"""Ablation bench: kernel implementation choices.

* dense NumPy Floyd-Warshall vs the SciPy (C) implementation — the paper
  offloads the diagonal-block solve to SciPy/MKL;
* min-plus product block size x right-operand layout — the two things the
  row-panel kernel is sensitive to (panels per product; a mirrored ``.T``
  operand pays one contiguous copy per call);
* dense vs per-source Dijkstra on a sparse instance — the paper argues the
  dense-block representation is the right default because the matrix fills in
  quickly.
"""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg.kernels import floyd_warshall, floyd_warshall_scipy
from repro.linalg.semiring import minplus_product
from repro.sequential.dijkstra import apsp_dijkstra

N = 160


@pytest.fixture(scope="module")
def kernel_graph():
    return erdos_renyi_adjacency(N, seed=77)


def test_bench_floyd_warshall_numpy(benchmark, kernel_graph):
    benchmark(lambda: floyd_warshall(kernel_graph))


def test_bench_floyd_warshall_scipy(benchmark, kernel_graph):
    benchmark(lambda: floyd_warshall_scipy(kernel_graph))


def test_bench_apsp_dijkstra_sparse(benchmark, kernel_graph):
    benchmark.pedantic(lambda: apsp_dijkstra(kernel_graph),
                       rounds=1, iterations=1, warmup_rounds=0)


@pytest.mark.parametrize("layout", ("contiguous", "mirrored"))
@pytest.mark.parametrize("block", (64, 128, 256, 384))
def test_bench_minplus_product(benchmark, block, layout):
    left, right = np.random.default_rng(77).uniform(1.0, 10.0, (2, block, block))
    if layout == "mirrored":
        right = right.T
    benchmark.extra_info.update(block=block, layout=layout)
    benchmark(lambda: minplus_product(left, right))
