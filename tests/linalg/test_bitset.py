"""Packed-bitset storage and kernels: round trips and dense equivalence."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.linalg.algebra import get_algebra
from repro.linalg.bitset import (PackedBlock, is_packed, pack_bits, unpack_bits,
                                 packed_closure,
                                 packed_floyd_warshall_inplace, packed_or,
                                 packed_product, packed_rank1_update,
                                 packed_width)
from repro.linalg.kernels import (floyd_warshall_inplace, fw_rank1_update,
                                  semiring_closure)
from repro.linalg.semiring import elementwise_combine, semiring_product

REACH = get_algebra("reachability")


def random_bits(rng, rows, cols, density=0.3):
    return rng.random((rows, cols)) < density


# ---------------------------------------------------------------------------
# Round trips (property-tested, including ragged widths with cols % 64 != 0)
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 70), cols=st.integers(1, 200),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_pack_unpack_round_trip(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    bits = random_bits(rng, rows, cols, density)
    block = PackedBlock.from_dense(bits)
    assert block.shape == (rows, cols)
    assert block.words.shape == (rows, packed_width(cols))
    assert np.array_equal(block.to_dense(), bits)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 50), cols=st.integers(1, 150),
       seed=st.integers(0, 2**31 - 1))
def test_padding_bits_stay_zero(rows, cols, seed):
    """The invariant every kernel relies on: bits past ``cols`` are zero."""
    rng = np.random.default_rng(seed)
    block = PackedBlock.from_dense(random_bits(rng, rows, cols))
    tail = cols % 64
    if tail:
        mask = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(tail)
        assert not (block.words[:, -1] & mask).any()
    # Kernels preserve it.
    closed = packed_floyd_warshall_inplace(
        PackedBlock.from_dense(random_bits(rng, cols, cols)))
    if tail:
        assert not (closed.words[:, -1] & mask).any()


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 60), cols=st.integers(1, 150),
       seed=st.integers(0, 2**31 - 1))
def test_transpose_and_bit_slices(rows, cols, seed):
    rng = np.random.default_rng(seed)
    bits = random_bits(rng, rows, cols)
    block = PackedBlock.from_dense(bits)
    assert np.array_equal(block.T.to_dense(), bits.T)
    j = int(rng.integers(0, cols))
    i = int(rng.integers(0, rows))
    assert np.array_equal(block.bit_column(j), bits[:, j])
    assert np.array_equal(block.bit_row(i), bits[i, :])


def test_pack_bits_shapes_and_errors():
    row = pack_bits(np.array([True, False, True]))
    assert row.shape == (1, 1)
    assert unpack_bits(row, 3).tolist() == [[True, False, True]]
    with pytest.raises(ValidationError):
        pack_bits(np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(ValidationError):
        unpack_bits(np.zeros((2, 2), dtype=np.uint64), 300)
    with pytest.raises(ValidationError):
        PackedBlock(np.zeros((2, 1), dtype=np.uint64), (2, 65))


def test_packed_block_surface():
    rng = np.random.default_rng(0)
    bits = random_bits(rng, 10, 70)
    block = PackedBlock.from_dense(bits)
    assert is_packed(block) and not is_packed(bits)
    assert np.array_equal(block.to_dense(), bits)
    assert block.dtype == np.bool_
    assert block.nbytes == block.words.nbytes
    # 64x denser than a float64 block, 8x denser than bool, up to padding.
    assert block.nbytes <= ((70 + 63) // 64) * 8 * 10
    clone = block.copy()
    clone.words[0, 0] = np.uint64(0)
    assert block == PackedBlock.from_dense(bits)  # copy is deep
    assert pickle.loads(pickle.dumps(block)) == block


# ---------------------------------------------------------------------------
# Kernel equivalence against the dense boolean reference
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 40), k=st.integers(1, 80), n=st.integers(1, 90),
       seed=st.integers(0, 2**31 - 1))
def test_packed_product_matches_dense(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = random_bits(rng, m, k, 0.2)
    b = random_bits(rng, k, n, 0.2)
    ref = semiring_product(a, b, REACH)
    got = packed_product(PackedBlock.from_dense(a), PackedBlock.from_dense(b))
    assert np.array_equal(got.to_dense(), ref)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 90), density=st.floats(0.0, 0.3),
       seed=st.integers(0, 2**31 - 1))
def test_packed_floyd_warshall_matches_dense(n, density, seed):
    rng = np.random.default_rng(seed)
    adj = random_bits(rng, n, n, density)
    np.fill_diagonal(adj, True)
    ref = floyd_warshall_inplace(adj.copy(), REACH)
    assert np.array_equal(packed_closure(adj), ref)


def test_packed_elementwise_and_rank1():
    rng = np.random.default_rng(3)
    a = random_bits(rng, 20, 70)
    b = random_bits(rng, 20, 70)
    pa, pb = PackedBlock.from_dense(a), PackedBlock.from_dense(b)
    assert np.array_equal(packed_or(pa, pb).to_dense(), a | b)
    out = pa.copy()
    packed_or(pa, pb, out=out)
    assert np.array_equal(out.to_dense(), a | b)

    col = rng.random(20) < 0.5
    row = rng.random(70) < 0.5
    ref = fw_rank1_update(a, col, row, REACH)
    got = packed_rank1_update(pa, col, row)
    assert np.array_equal(got.to_dense(), ref)
    assert np.array_equal(pa.to_dense(), a)  # input untouched


def test_semiring_product_out_overwrites_like_dense():
    """`semiring_product(out=)` must not accumulate stale bits under packing."""
    rng = np.random.default_rng(9)
    a = random_bits(rng, 16, 16, 0.2)
    pa = PackedBlock.from_dense(a)
    dirty = PackedBlock.from_dense(np.ones((16, 16), dtype=bool))
    result = semiring_product(pa, pa, REACH, out=dirty)
    assert result is dirty
    assert np.array_equal(dirty.to_dense(), semiring_product(a, a, REACH))


def test_packed_product_accumulates_into_out():
    rng = np.random.default_rng(4)
    a = random_bits(rng, 15, 30)
    b = random_bits(rng, 30, 40)
    seed_bits = random_bits(rng, 15, 40)
    out = PackedBlock.from_dense(seed_bits)
    packed_product(PackedBlock.from_dense(a), PackedBlock.from_dense(b), out=out)
    ref = seed_bits | semiring_product(a, b, REACH)
    assert np.array_equal(out.to_dense(), ref)


def test_kernel_shape_errors():
    rng = np.random.default_rng(5)
    a = PackedBlock.from_dense(random_bits(rng, 4, 6))
    b = PackedBlock.from_dense(random_bits(rng, 5, 6))
    with pytest.raises(ValidationError):
        packed_or(a, b)
    with pytest.raises(ValidationError):
        packed_product(a, a)          # inner dims disagree (6 vs 4)
    with pytest.raises(ValidationError):
        packed_floyd_warshall_inplace(a)  # not square
    with pytest.raises(ValidationError):
        packed_rank1_update(a, np.ones(3, dtype=bool), np.ones(6, dtype=bool))


# ---------------------------------------------------------------------------
# Dispatch: the generic kernels route packed operands to the bitset kernels
# ---------------------------------------------------------------------------
def test_generic_kernels_dispatch_packed():
    rng = np.random.default_rng(6)
    a = random_bits(rng, 12, 12, 0.2)
    np.fill_diagonal(a, True)
    pa = PackedBlock.from_dense(a)
    combined = elementwise_combine(pa, pa, "reachability")
    assert is_packed(combined)
    prod = semiring_product(pa, pa, "reachability")
    assert is_packed(prod)
    assert np.array_equal(prod.to_dense(), semiring_product(a, a, REACH))
    closed = floyd_warshall_inplace(pa.copy(), "reachability")
    assert is_packed(closed)
    assert np.array_equal(closed.to_dense(), semiring_closure(a, "reachability"))
    # Mixed packed/dense operands are a typed error, not a silent coercion.
    with pytest.raises(ValidationError):
        semiring_product(pa, a, "reachability")


def test_generic_kernels_reject_packed_for_numeric_algebras():
    pa = PackedBlock.from_dense(np.eye(4, dtype=bool))
    with pytest.raises(ValidationError):
        semiring_product(pa, pa, "shortest-path")
    with pytest.raises(ValidationError):
        elementwise_combine(pa, pa, "widest-path")
    with pytest.raises(ValidationError):
        floyd_warshall_inplace(pa, "shortest-path")
    with pytest.raises(ValidationError):
        fw_rank1_update(pa, np.ones(4, dtype=bool), np.ones(4, dtype=bool),
                        "most-reliable")
