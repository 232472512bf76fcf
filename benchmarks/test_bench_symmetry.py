"""Ablation bench: symmetric (upper-triangular) vs full block storage.

The paper stores only the upper triangle of the adjacency matrix and
regenerates the transposed blocks on demand, halving RDD volume at the price
of extra transposition work.  This bench quantifies both sides at engine scale:
decomposition/assembly cost and the volume held in the RDD.
"""

import pytest

from repro.linalg.blocks import blocks_to_matrix, matrix_to_blocks

BLOCK_SIZE = 16


@pytest.mark.parametrize("layout", ("triangular", "full"), ids=("upper-triangular", "full"))
def test_bench_decompose(benchmark, bench_graph, layout):
    def decompose():
        return list(matrix_to_blocks(bench_graph, BLOCK_SIZE, layout=layout))

    blocks = benchmark(decompose)
    benchmark.extra_info["num_blocks"] = len(blocks)
    benchmark.extra_info["stored_bytes"] = int(sum(b.nbytes for _, b in blocks))


@pytest.mark.parametrize("layout", ("triangular", "full"), ids=("upper-triangular", "full"))
def test_bench_reassemble(benchmark, bench_graph, layout):
    n = bench_graph.shape[0]
    blocks = list(matrix_to_blocks(bench_graph, BLOCK_SIZE, layout=layout))
    benchmark(lambda: blocks_to_matrix(blocks, n, BLOCK_SIZE, layout=layout))
