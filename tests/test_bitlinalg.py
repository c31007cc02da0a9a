"""Unit and property tests for GF(2) linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretapkit import bitlinalg, codes
from wiretapkit.bitlinalg import BitMatrix

from conftest import oracle_null_space, oracle_rank, oracle_rref

bit_matrices = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 10).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)



@st.composite
def shaped_matrices(draw):
    """Bit matrices with 0 rows, 0 columns or more than 64 columns among
    the shapes; rows are drawn as mixes of fewer rows, so dependent rows
    and low ranks come up often."""
    rows = draw(st.integers(0, 10))
    cols = draw(st.integers(0, 12) | st.integers(63, 90))
    inner = draw(st.integers(0, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    if draw(st.booleans()):
        return BitMatrix(full)
    mix = rng.integers(0, 2, size=(rows, inner), dtype=np.int64)
    return BitMatrix((mix @ full[:inner].astype(np.int64) % 2).astype(np.uint8))


class TestBitMatrix:
    def test_from_strings_bit_convention(self):
        m = BitMatrix.from_strings(["1011"])
        assert list(m.a[0]) == [1, 0, 1, 1]

    def test_round_trip_strings(self):
        rows = ["0111", "1110"]
        assert BitMatrix.from_strings(rows).to_strings() == rows

    def test_identity_and_zeros(self):
        assert bitlinalg.rank(BitMatrix.identity(4)) == 4
        assert bitlinalg.rank(BitMatrix(np.zeros((3, 5), dtype=np.uint8))) == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitMatrix([[0, 2]])

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            BitMatrix(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_immutable(self):
        m = BitMatrix([[1, 0]])
        with pytest.raises(ValueError):
            m.a[0, 0] = 0

    def test_eq_and_hash(self):
        a = BitMatrix.from_strings(["10", "01"])
        b = BitMatrix.identity(2)
        assert a == b and hash(a) == hash(b)
        assert a != BitMatrix.from_strings(["01", "10"])


class TestRank:
    def test_example_generator(self):
        assert bitlinalg.rank(BitMatrix.from_strings(["0111", "1110"])) == 2

    def test_dependent_rows(self):
        assert bitlinalg.rank(BitMatrix.from_strings(["101", "011", "110"])) == 2

    def test_identity(self):
        assert bitlinalg.rank(BitMatrix.identity(5)) == 5

    def test_more_than_64_rows(self):
        rng = np.random.default_rng(3)
        m = BitMatrix(rng.integers(0, 2, size=(70, 6), dtype=np.uint8))
        assert bitlinalg.rank(m) == oracle_rank(m.a)
        a = np.eye(70, dtype=np.uint8)
        assert bitlinalg.rank(BitMatrix(a)) == 70
        a[69] = a[0] ^ a[68]
        assert bitlinalg.rank(BitMatrix(a)) == 69

    @given(bit_matrices)
    @settings(max_examples=150, deadline=None)
    def test_matches_rowspace_oracle(self, rows):
        m = BitMatrix(rows)
        assert bitlinalg.rank(m) == oracle_rank(m.a)

    @given(bit_matrices)
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_dimensions(self, rows):
        m = BitMatrix(rows)
        assert bitlinalg.rank(m) <= min(m.rows, m.cols)


class TestMul:
    def test_against_numpy_mod2(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
            b = rng.integers(0, 2, size=(6, 3), dtype=np.uint8)
            got = bitlinalg.mul(BitMatrix(a), BitMatrix(b)).a
            assert np.array_equal(got, (a.astype(int) @ b.astype(int)) % 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bitlinalg.mul(BitMatrix.identity(2), BitMatrix.identity(3))

    def test_mulvec(self):
        g = BitMatrix.from_strings(["0111", "1110"])
        assert list(bitlinalg.mulvec([1, 1], g)) == [1, 0, 0, 1]
        with pytest.raises(ValueError):
            bitlinalg.mulvec([1, 1, 1], g)

    @pytest.mark.parametrize("inner", [1, 255, 256, 300, 512])
    def test_mulvec_large_inner_dimension(self, inner):
        """Sums above 255 (all-ones rows against all-ones columns) keep their parity."""
        rng = np.random.default_rng(inner)
        b = rng.integers(0, 2, size=(inner, 40), dtype=np.uint8)
        b[:, 0] = 1
        a = rng.integers(0, 2, size=(6, inner), dtype=np.uint8)
        a[0] = 1
        m = BitMatrix(b)

        def want(v):
            return (v.astype(np.int64) @ b) % 2

        assert (np.ones(inner, dtype=np.int64) @ b)[0] == inner
        for v in (a, a[0], a[1], a[:0]):
            got = bitlinalg.mulvec(v, m)
            assert got.dtype == np.uint8 and got.shape == v.shape[:-1] + (40,)
            assert np.array_equal(got, want(v))


class TestRrefNullSpace:
    @given(bit_matrices)
    @settings(max_examples=150, deadline=None)
    def test_rref_preserves_rank_and_pivots(self, rows):
        m = BitMatrix(rows)
        red, pivots = bitlinalg.rref(m)
        assert len(pivots) == bitlinalg.rank(m)
        for i, p in enumerate(pivots):
            col = red.a[:, p]
            assert col[i] == 1 and col.sum() == 1

    @given(bit_matrices)
    @settings(max_examples=150, deadline=None)
    def test_null_space_orthogonal_and_complete(self, rows):
        m = BitMatrix(rows)
        ns = bitlinalg.null_space(m)
        assert ns.rows == m.cols - bitlinalg.rank(m)
        if ns.rows:
            prod = (m.a.astype(int) @ ns.a.T.astype(int)) % 2
            assert not prod.any()
            assert bitlinalg.rank(ns) == ns.rows

    def test_full_rank_square_has_trivial_null_space(self):
        assert bitlinalg.null_space(BitMatrix.identity(4)).rows == 0


class TestAgainstOracles:
    """Element-for-element equality with the replaced eliminations."""

    @given(shaped_matrices())
    @settings(max_examples=200, deadline=None)
    def test_rref_and_pivots(self, m):
        assert bitlinalg.rref(m) == oracle_rref(m)

    @pytest.mark.parametrize("order", [1, 4, 6, 8])
    def test_rref_wide_reed_muller(self, order):
        g = codes.reed_muller(order, codes.RM_MAX_DEGREE).generator
        m = BitMatrix(g.a[:, ::-1])
        assert bitlinalg.rref(m) == oracle_rref(m)

    @given(shaped_matrices())
    @settings(max_examples=200, deadline=None)
    def test_null_space(self, m):
        assert bitlinalg.null_space(m) == oracle_rref(oracle_null_space(m))[0]
