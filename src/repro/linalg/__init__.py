"""Dense linear algebra over pluggable path algebras and blocked matrices.

These are the "bare metal" kernels of the paper (Section 4.1): semiring
matrix product (min-plus by default), elementwise ⊕, the Floyd-Warshall
block kernel and the rank-1 Floyd-Warshall update.  In the paper they are
dispatched to NumPy/SciPy/Numba; here they are vectorized NumPy (BLAS-free
but cache-aware: the product's broadcast cube is streamed through L2-sized
row panels, see :meth:`~repro.linalg.algebra.Semiring.mul_panels`),
parameterized by a :class:`~repro.linalg.algebra.Semiring` so the same
kernels also compute widest paths, most-reliable paths, DAG longest paths and
transitive closure.
"""

from repro.linalg.algebra import (
    Semiring,
    get_algebra,
    register_algebra,
    resolve_algebra_name,
    available_algebras,
    algebra_catalog,
    SHORTEST_PATH,
    WIDEST_PATH,
    MOST_RELIABLE,
    LONGEST_PATH,
    REACHABILITY,
)
from repro.linalg.bitset import (
    PackedBlock,
    pack_bits,
    unpack_bits,
    packed_closure,
    packed_product,
    packed_or,
    packed_floyd_warshall_inplace,
)
from repro.linalg.payload import payload_ops
from repro.linalg.semiring import (
    semiring_product,
    semiring_relax,
    semiring_power,
    semiring_square,
    elementwise_combine,
    closure_iterations,
    minplus_product,
)
from repro.linalg.kernels import (
    floyd_warshall_inplace,
    floyd_warshall,
    floyd_warshall_scipy,
    fw_rank1_update,
    blocked_floyd_warshall_inplace,
    semiring_closure,
)
from repro.linalg.blocks import (
    BlockId,
    num_blocks,
    block_range,
    matrix_to_blocks,
    blocks_to_matrix,
)

__all__ = [
    "payload_ops",
    "PackedBlock",
    "pack_bits",
    "unpack_bits",
    "packed_closure",
    "packed_product",
    "packed_or",
    "packed_floyd_warshall_inplace",
    "Semiring",
    "get_algebra",
    "register_algebra",
    "resolve_algebra_name",
    "available_algebras",
    "algebra_catalog",
    "SHORTEST_PATH",
    "WIDEST_PATH",
    "MOST_RELIABLE",
    "LONGEST_PATH",
    "REACHABILITY",
    "semiring_product",
    "semiring_relax",
    "semiring_power",
    "semiring_square",
    "elementwise_combine",
    "closure_iterations",
    "semiring_closure",
    "minplus_product",
    "floyd_warshall_inplace",
    "floyd_warshall",
    "floyd_warshall_scipy",
    "fw_rank1_update",
    "blocked_floyd_warshall_inplace",
    "BlockId",
    "num_blocks",
    "block_range",
    "matrix_to_blocks",
    "blocks_to_matrix",
]
