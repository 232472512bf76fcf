"""In-place rank-1 update kernels and the packed broadcast vector.

The dynamic-update siblings of the pure ``*_rank1_update`` kernels must
produce the same matrices while mutating their block argument directly, and
their changed-row masks must name exactly the rows that moved — that mask is
what the serving layer's cache invalidation trusts.  ``PackedVector`` is the
8×-smaller wire form of the fw-2d broadcast column; its dense slice windows
must agree with the vector it packed.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg.algebra import get_algebra
from repro.linalg.bitset import (PackedBlock, PackedVector, is_packed_vector,
                                 packed_rank1_update, packed_rank1_update_inplace)
from repro.linalg.kernels import fw_rank1_update, fw_rank1_update_inplace


def prepared(n, seed, algebra="shortest-path"):
    adj = erdos_renyi_adjacency(n, seed=seed)
    return get_algebra(algebra).prepare_adjacency(adj)


class TestFwRank1UpdateInplace:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(4, 20),
           algebra=st.sampled_from(["shortest-path", "widest-path"]))
    def test_matches_pure_kernel_and_masks_changed_rows(self, seed, n, algebra):
        block = prepared(n, seed)
        rng = np.random.default_rng(seed)
        col = rng.uniform(0.0, 5.0, n)
        row = rng.uniform(0.0, 5.0, n)
        expected = fw_rank1_update(block.copy(), col, row, algebra)
        before = block.copy()
        mask = fw_rank1_update_inplace(block, col, row, algebra)
        assert np.array_equal(block, expected)
        assert np.array_equal(mask, (block != before).any(axis=1))

    def test_noop_update_reports_no_rows(self):
        block = prepared(8, 3)
        mask = fw_rank1_update_inplace(block, np.full(8, np.inf),
                                       np.full(8, np.inf))
        assert not mask.any()

    def test_float32_stays_float32(self):
        block = prepared(8, 3).astype(np.float32)
        fw_rank1_update_inplace(block, np.zeros(8, np.float32),
                                np.zeros(8, np.float32))
        assert block.dtype == np.float32


class TestPackedRank1UpdateInplace:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(4, 30))
    def test_matches_pure_kernel_and_masks_changed_rows(self, seed, n):
        rng = np.random.default_rng(seed)
        dense = rng.random((n, n)) < 0.3
        np.fill_diagonal(dense, True)
        col = rng.random(n) < 0.5
        row = rng.random(n) < 0.5
        block = PackedBlock.from_dense(dense)
        expected = packed_rank1_update(PackedBlock.from_dense(dense), col, row)
        mask = packed_rank1_update_inplace(block, col, row)
        assert np.array_equal(block.words, expected.words)
        assert np.array_equal(mask,
                              (block.to_dense() != dense).any(axis=1))

    def test_length_mismatch_rejected(self):
        block = PackedBlock.from_dense(np.eye(6, dtype=bool))
        with pytest.raises(ValidationError):
            packed_rank1_update_inplace(block, np.ones(5, bool), np.ones(6, bool))


class TestPackedVector:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 200))
    def test_roundtrip_and_windows(self, seed, n):
        rng = np.random.default_rng(seed)
        bits = rng.random(n) < 0.4
        vec = PackedVector.from_dense(bits)
        assert is_packed_vector(vec)
        assert vec.shape == (n,) and vec.dtype == np.bool_
        assert np.array_equal(vec.to_dense(), bits)
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n + 1))
        assert np.array_equal(vec[lo:hi], bits[lo:hi])

    def test_wire_size_is_one_eighth(self):
        vec = PackedVector.from_dense(np.ones(1024, dtype=bool))
        assert vec.nbytes == 1024 // 8

    def test_pickle_roundtrip(self):
        bits = np.arange(90) % 3 == 0
        clone = pickle.loads(pickle.dumps(PackedVector.from_dense(bits)))
        assert np.array_equal(clone.to_dense(), bits)

    def test_only_unit_step_slices(self):
        vec = PackedVector.from_dense(np.ones(16, dtype=bool))
        with pytest.raises(ValidationError):
            vec[3]
        with pytest.raises(ValidationError):
            vec[::2]

    def test_non_1d_source_rejected(self):
        with pytest.raises(ValidationError):
            PackedVector.from_dense(np.ones((4, 4), dtype=bool))
