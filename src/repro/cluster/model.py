"""Machine model of the evaluation cluster.

Defaults follow Section 5 of the paper: 32 nodes of two 16-core Skylake
processors (1,024 cores total), 1 TB of local SSD per node used by Spark for
shuffle staging, and a GbE interconnect.  The shared GPFS file system the
impure solvers use as a broadcast channel is priced by
:class:`~repro.cluster.costmodel.CostModel`'s own bandwidths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError

GIB = 1024 ** 3
MIB = 1024 ** 2


@dataclass(frozen=True)
class NodeSpec:
    """One cluster node: its cores and the local SSD Spark stages shuffles on."""

    cores: int = 32
    local_storage_bytes: int = 1024 * GIB      # 1 TB SSD for Spark local staging
    #: Effective sequential SSD bandwidth for shuffle restaging (writes are
    #: absorbed by the page cache and overlap with compute, so the effective
    #: figure exceeds the raw device write rate).
    local_storage_bandwidth: float = 1024 * MIB

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError("cores must be positive")


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect between nodes (the paper's cluster uses GbE)."""

    bandwidth_per_node: float = 125 * MIB      # 1 Gbit/s ≈ 125 MB/s, bytes/s
    latency: float = 2.5e-4                    # per-message latency (MPI over TCP/GbE), seconds


@dataclass(frozen=True)
class SparkOverheadSpec:
    """Spark's driver -> executors broadcast channel.

    Scheduling overheads are priced by
    :class:`~repro.cluster.costmodel.CostModel` itself
    (``task_dispatch_seconds``, ``stage_overhead_seconds``), which also
    carries the driver collect bandwidth.
    """

    broadcast_bandwidth: float = 125 * MIB     # driver -> executors, bytes/s


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: ``num_nodes`` identical nodes on one network.

    The shared GPFS bandwidths the impure solvers stage through are
    :class:`~repro.cluster.costmodel.CostModel` fields.
    """

    num_nodes: int = 32
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    spark: SparkOverheadSpec = field(default_factory=SparkOverheadSpec)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")

    @property
    def total_cores(self) -> int:
        """Cores across all nodes."""
        return self.num_nodes * self.node.cores


def paper_cluster() -> ClusterSpec:
    """The 32-node / 1,024-core cluster of Section 5."""
    return ClusterSpec()
