"""Tests for the packed-bitset popcount metric and its cache invalidation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.bitset import (PackedBlock,
                                 packed_floyd_warshall_inplace, packed_or,
                                 packed_product, packed_rank1_update,
                                 popcount_words)


def random_bits(rng, rows, cols, density=0.3):
    return rng.random((rows, cols)) < density


class TestPopcountWords:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 150),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
    def test_exact_against_dense_sum(self, rows, cols, density, seed):
        rng = np.random.default_rng(seed)
        bits = random_bits(rng, rows, cols, density)
        block = PackedBlock.from_dense(bits)
        assert popcount_words(block.words) == int(bits.sum())

    def test_empty_and_saturated(self):
        assert popcount_words(np.zeros(4, dtype=np.uint64)) == 0
        assert popcount_words(np.full(4, np.uint64(2**64 - 1))) == 4 * 64

    def test_matches_python_bit_count(self):
        words = np.array([0, 1, 0xF0F0, 2**63], dtype=np.uint64)
        assert popcount_words(words) == sum(int(w).bit_count() for w in words)


class TestBitsSetProperty:
    def test_bits_set_and_density(self):
        bits = np.zeros((4, 70), dtype=bool)
        bits[0, :7] = True
        block = PackedBlock.from_dense(bits)
        assert block.bits_set == 7
        assert block.density == pytest.approx(7 / (4 * 70))

    def test_empty_block_density_is_zero(self):
        block = PackedBlock.from_dense(np.zeros((0, 0), dtype=bool))
        assert block.bits_set == 0
        assert block.density == 0.0

    def test_popcount_is_cached_until_invalidated(self):
        block = PackedBlock.from_dense(np.eye(8, dtype=bool))
        assert block.bits_set == 8
        # A raw in-place mutation must be followed by invalidate_popcount();
        # until then the cached value is (deliberately) served.
        block.words[0] = np.uint64(0)
        assert block.bits_set == 8
        block.invalidate_popcount()
        assert block.bits_set == 7

    def test_copy_propagates_the_cached_count(self):
        block = PackedBlock.from_dense(np.eye(8, dtype=bool))
        assert block.bits_set == 8
        clone = block.copy()
        assert clone._bits_set == 8
        clone.words[0] = np.uint64(0)
        clone.invalidate_popcount()
        assert clone.bits_set == 7
        assert block.bits_set == 8                # the original is untouched


class TestKernelInvalidation:
    """Every mutating kernel must leave ``bits_set`` consistent afterwards."""

    def setup_blocks(self, seed=0, rows=12, cols=70):
        rng = np.random.default_rng(seed)
        a = random_bits(rng, rows, cols)
        b = random_bits(rng, rows, cols)
        return a, b

    def test_packed_or_and_with_out(self):
        a, b = self.setup_blocks()
        out = PackedBlock.from_dense(np.zeros_like(a))
        assert out.bits_set == 0                  # prime the cache
        packed_or(PackedBlock.from_dense(a), PackedBlock.from_dense(b), out=out)
        assert out.bits_set == int((a | b).sum())

    @pytest.mark.parametrize("density", [0.05, 0.6])
    def test_packed_product_accumulate(self, density):
        """Both product paths (selector and bit-expansion) invalidate out."""
        rng = np.random.default_rng(1)
        a = random_bits(rng, 10, 66, density)
        b = random_bits(rng, 66, 20, 0.3)
        out = PackedBlock.from_dense(np.zeros((10, 20), dtype=bool))
        assert out.bits_set == 0
        packed_product(PackedBlock.from_dense(a), PackedBlock.from_dense(b),
                       out=out)
        assert out.bits_set == int((a @ b).astype(bool).sum())

    def test_floyd_warshall_inplace(self):
        rng = np.random.default_rng(2)
        bits = random_bits(rng, 16, 16, 0.2)
        np.fill_diagonal(bits, True)
        block = PackedBlock.from_dense(bits)
        assert block.bits_set == int(bits.sum())  # prime the cache
        packed_floyd_warshall_inplace(block)
        assert block.bits_set == int(block.to_dense().sum())

    def test_rank1_update(self):
        rng = np.random.default_rng(3)
        bits = random_bits(rng, 8, 66, 0.2)
        block = PackedBlock.from_dense(bits)
        assert block.bits_set == int(bits.sum())
        col = np.ones(8, dtype=bool)
        row = random_bits(rng, 1, 66, 0.5)[0]
        out = packed_rank1_update(block, col, row)
        assert out.bits_set == int((bits | np.outer(col, row)).sum())
