"""Ablation bench: partitioner choice (PH vs MD vs GRID).

Measures (a) the raw cost of assigning upper-triangular block keys to
partitions and (b) the resulting balance, the mechanism behind the Figure 3
bottom panel and the Section 5.3 tuning discussion.
"""

import pytest

from repro.linalg.blocks import upper_triangular_block_ids
from repro.spark.partitioner import partitioner_by_name

PARTITIONERS = ("PH", "MD", "GRID")
Q = 128                 # the paper's n=131072 / b=1024 grid
NUM_PARTITIONS = 2048   # p=1024, B=2


@pytest.mark.parametrize("name", PARTITIONERS)
def test_bench_partition_assignment(benchmark, name):
    keys = list(upper_triangular_block_ids(Q))
    partitioner = partitioner_by_name(name, NUM_PARTITIONS, Q)

    def assign():
        return [partitioner(key) for key in keys]

    benchmark(assign)
    counts = partitioner.distribution(keys)
    benchmark.extra_info["max_blocks_per_partition"] = int(counts.max())
    benchmark.extra_info["std_blocks_per_partition"] = float(counts.std())


@pytest.mark.parametrize("name", ("PH", "MD"))
def test_bench_partitioner_effect_on_solver(benchmark, bench_config, bench_graph, name):
    """End-to-end effect of the partitioner on the Blocked In-Memory solver."""
    from repro.core.blocked_inmemory import BlockedInMemorySolver
    from repro.core.request import SolveRequest

    request = SolveRequest(block_size=32, partitioner=name)

    def run():
        return BlockedInMemorySolver(config=bench_config, request=request).solve(bench_graph)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["shuffle_bytes"] = result.metrics["shuffle_bytes"]
