"""Tests for code construction, duals, and weight hierarchies."""

import re
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiretapkit import bitlinalg, codes
from wiretapkit.bitlinalg import BitMatrix
from wiretapkit.codes import GHWProfile, LinearCode

from conftest import (
    oracle_codeword_set,
    oracle_column_rank_tallies,
    oracle_gaussian_binomials,
    oracle_ghw,
    oracle_ghw_rm_monomial,
    oracle_rank,
    oracle_rm_generator,
    oracle_subcode_solve,
)


def oracle_subcode_tally(c: LinearCode) -> np.ndarray:
    """The depth-first oracle's column-rank tally R read as c's subcode
    tally: dim C(S) = dim - rank(G on the complement of S), so
    h[s, dim - r] = R[n - s, r]."""
    ranks = oracle_column_rank_tallies(c.generator.a)
    assert not ranks[:, c.dim + 1 :].any()
    return ranks[::-1, c.dim :: -1]


def free_counts_both_ways(c: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """h[s, f] of the smaller of c and its dual, by the zeta transform and
    by subcode enumeration."""
    side = codes.dual(c) if 2 * c.dim > c.n else c
    return codes._zeta_free_counts(side), codes._subcode_free_counts(side)


class TestLinearCode:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearCode(n=4, dim=3, generator=BitMatrix.identity(2))

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            LinearCode(n=2, dim=2, generator=BitMatrix.from_strings(["11", "11"]))


class TestReedMuller:
    def test_parameters(self):
        c = codes.reed_muller(1, 2)
        assert (c.n, c.dim) == (4, 3)

    def test_repetition(self):
        c = codes.reed_muller(0, 3)
        assert (c.n, c.dim) == (8, 1)
        assert c.generator.to_strings() == ["11111111"]

    def test_min_distance_rm13(self):
        words = codes.enumerate_codewords(codes.reed_muller(1, 3))
        nonzero = words[words.any(axis=1)]
        assert int(nonzero.sum(axis=1).min()) == 4

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            codes.reed_muller(3, 2)
        with pytest.raises(ValueError):
            codes.reed_muller(0, 0)

    def test_nesting(self):
        # RM(u, m) codewords all lie inside RM(u+1, m)
        for m in (2, 3, 4):
            for u in range(m):
                inner = oracle_codeword_set(codes.reed_muller(u, m).generator.a)
                outer = oracle_codeword_set(codes.reed_muller(u + 1, m).generator.a)
                assert inner <= outer


class TestDual:
    def test_example_code_dual_matches_published_check_matrix(self):
        g = BitMatrix.from_strings(["0111", "1110"])
        c = LinearCode(n=4, dim=2, generator=g, label="demo")
        d = codes.dual(c)
        assert oracle_codeword_set(d.generator.a) == oracle_codeword_set(
            BitMatrix.from_strings(["1101", "1011"]).a
        )

    def test_dual_rm12_is_repetition(self):
        d = codes.dual(codes.reed_muller(1, 2))
        assert oracle_codeword_set(d.generator.a) == {(0, 0, 0, 0), (1, 1, 1, 1)}
        assert d.rm_params == (0, 2) and d.label == "RM(0,2)"

    def test_dual_of_full_space(self):
        c = LinearCode(n=3, dim=3, generator=BitMatrix.identity(3))
        assert codes.dual(c).dim == 0

    def test_one_reduction(self, monkeypatch):
        calls = []
        real_rref = bitlinalg.rref

        def counting_rref(m):
            calls.append(m)
            return real_rref(m)

        monkeypatch.setattr(bitlinalg, "rref", counting_rref)
        codes.dual(codes.reed_muller(2, 5))
        assert len(calls) == 1

    def test_double_dual_and_orthogonality(self, small_corpus):
        for c in small_corpus:
            if c.n > 12:
                continue
            d = codes.dual(c)
            assert c.dim + d.dim == c.n
            if d.dim:
                prod = (c.generator.a.astype(int) @ d.generator.a.T.astype(int)) % 2
                assert not prod.any()
                dd = codes.dual(d)
                assert oracle_codeword_set(dd.generator.a) == oracle_codeword_set(c.generator.a)


class TestEnumerate:
    def test_example_code_words_in_order(self):
        g = BitMatrix.from_strings(["0111", "1110"])
        c = LinearCode(n=4, dim=2, generator=g)
        got = ["".join(map(str, w)) for w in codes.enumerate_codewords(c)]
        assert got == ["0000", "1110", "0111", "1001"]

    def test_rm02(self):
        words = codes.enumerate_codewords(codes.reed_muller(0, 2))
        assert {tuple(w) for w in words} == {(0, 0, 0, 0), (1, 1, 1, 1)}

    def test_cap_refusal(self):
        c = codes.reed_muller(4, 5)
        with pytest.raises(ValueError):
            codes.enumerate_codewords(c, cap=10)

    def test_matches_oracle(self, small_corpus):
        for c in small_corpus[:10]:
            got = {tuple(int(b) for b in w) for w in codes.enumerate_codewords(c)}
            assert got == oracle_codeword_set(c.generator.a)


class TestSubsetRankTallies:
    """``codes.subcode_tally`` against the depth-first column-rank oracle."""

    def test_identity_code(self):
        # every subset S of the coordinates holds a subcode of dimension |S|
        t = codes.subcode_tally(LinearCode(n=3, dim=3, generator=BitMatrix.identity(3)))
        for s in range(4):
            assert t[s, s] == comb(3, s)
            assert t[s].sum() == comb(3, s)

    def test_matches_dfs_oracle_every_dimension(self):
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            for dim in range(n + 1):
                if dim == 0:
                    c = LinearCode(n=n, dim=0, generator=BitMatrix(np.zeros((0, n), dtype=np.uint8)))
                else:
                    c = codes.random_code(n, dim, rng)
                assert np.array_equal(codes.subcode_tally(c), oracle_subcode_tally(c)), (n, dim)

    def test_matches_dfs_oracle_up_to_14(self):
        rng = np.random.default_rng(14)
        for n in range(11, 15):
            for dim in (int(rng.integers(1, n // 2 + 1)), int(rng.integers(n // 2 + 1, n))):
                c = codes.random_code(n, dim, rng)
                assert np.array_equal(codes.subcode_tally(c), oracle_subcode_tally(c)), (n, dim)

    @staticmethod
    def assert_matches_oracle(c: LinearCode):
        """The tally matches the oracle, and so do both of its ways, each
        called directly on the smaller side."""
        assert np.array_equal(codes.subcode_tally(c), oracle_subcode_tally(c)), (c.n, c.dim, c.label)
        zeta, subcode = free_counts_both_ways(c)
        assert np.array_equal(zeta, subcode), (c.n, c.dim, c.label)

    @given(st.integers(1, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_both_ways_agree_on_random_codes(self, shape, seed):
        n, dim = shape
        if dim == 0:
            c = LinearCode(n=n, dim=0, generator=BitMatrix(np.zeros((0, n), dtype=np.uint8)))
        else:
            c = codes.random_code(n, dim, np.random.default_rng(seed))
        zeta, subcode = free_counts_both_ways(c)
        assert zeta.shape == (n + 1, min(dim, n - dim) + 1)
        assert np.array_equal(zeta, subcode), (n, dim)
        h = codes.subcode_tally(c)
        assert h.shape == (n + 1, dim + 1)
        for tally in (zeta, h):
            assert [int(row.sum()) for row in tally] == [comb(n, s) for s in range(n + 1)], (n, dim)

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    def test_matches_dfs_oracle_over_blocks(self, n):
        # one, two, four and eight blocks of 2^15 subsets; one dim per side
        rng = np.random.default_rng(n)
        for dim in (n // 2 - 2, n // 2 + 3):
            self.assert_matches_oracle(codes.random_code(n, dim, rng))

    def test_matches_dfs_oracle_dim_zero_and_full_over_blocks(self):
        self.assert_matches_oracle(LinearCode(n=16, dim=0, generator=BitMatrix(np.zeros((0, 16), dtype=np.uint8))))
        self.assert_matches_oracle(LinearCode(n=16, dim=16, generator=BitMatrix.identity(16)))

    @pytest.mark.parametrize("dim", [9, 12])
    def test_matches_dfs_oracle_at_twenty(self, dim):
        self.assert_matches_oracle(codes.random_code(20, dim, np.random.default_rng(20)))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_dfs_oracle_reed_muller(self, order):
        self.assert_matches_oracle(codes.reed_muller(order, 4))

    @pytest.mark.parametrize("dim", [11, 14])
    def test_peak_memory_is_the_indicator(self, dim):
        # one uint16 count per subset (2^25 bytes at n = 24), plus 1 MiB for
        # the codewords and a block's temporaries: no second full-size array
        c = codes.random_code(24, dim, np.random.default_rng(24))
        tracemalloc.start()
        try:
            codes.subcode_tally(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**25 + 2**20, peak

    @staticmethod
    def refusal(n: int, dim: int, d: int) -> str:
        return re.escape(
            f"({n}, {dim}) code exceeds the subset-rank cap: above n = 24 the tally enumerates the subcodes "
            f"of the smaller of C and C-perp, which needs n <= 64 and dimension <= 9, here {d}"
        )

    def test_cap(self):
        # above n = 24 only subcode enumeration runs, and d = 12 is over its budget
        c = codes.random_code(codes.SUBSET_RANK_CAP + 1, 12, np.random.default_rng(0))
        with pytest.raises(ValueError, match=self.refusal(25, 12, 12)):
            codes.subcode_tally(c)

    def test_over_budget_refused_before_allocating(self):
        c = codes.reed_muller(2, 6)  # (64, 22): d = 22
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="subset-rank cap"):
                codes.subcode_tally(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    # Largest smaller-side dimension d that subcode enumeration takes at
    # each n, the largest d with fewer subspaces than 2^n subsets; the
    # transform takes the rest.
    ENUMERATION_UP_TO = {16: 7, 17: 7, 18: 7, 19: 8, 20: 8, 21: 8, 22: 8, 23: 9, 24: 9}

    def test_fewer_visited_sets_choice(self, monkeypatch):
        ran = []

        def recording(name):
            method = getattr(codes, name)

            def run(side):
                ran.append((name, side.dim))
                return method(side)

            return run

        for name in ("_zeta_free_counts", "_subcode_free_counts"):
            monkeypatch.setattr(codes, name, recording(name))
        rng = np.random.default_rng(16)
        for n, top in self.ENUMERATION_UP_TO.items():
            for d in (top, top + 1):
                # C the smaller side, then C-perp (at n = 2d both are d)
                for dim in (d, n - d):
                    ran.clear()
                    codes.subcode_tally(codes.random_code(n, dim, rng))
                    method = "_subcode_free_counts" if d <= top else "_zeta_free_counts"
                    assert ran == [(method, d)], (n, dim)

    def test_subspace_count_is_triangle_row_sum(self):
        # every d the cap check prices at n <= 64, far past int64
        for d in range(33):
            assert codes._subspace_count(d) == sum(oracle_gaussian_binomials(d)[d]), d

    @pytest.mark.parametrize("n", [65, 128])
    def test_subcode_enumeration_stops_at_64(self, n):
        # a support must fit one uint64, however small the smaller side
        c = LinearCode(n=n, dim=1, generator=BitMatrix(np.ones((1, n), dtype=np.uint8)))
        with pytest.raises(ValueError, match=self.refusal(n, 1, 1)):
            codes.subcode_tally(c)


class TestSubcodeSolve:
    """``codes._subcode_free_counts``'s tabled binomials and array solve
    against the ``math.comb`` oracle, above the transform's reach."""

    @given(st.integers(25, 64), st.integers(1, 9), st.booleans(), st.integers(0, 2**32 - 1))
    @example(40, 9, False, 0)
    @example(64, 8, False, 0)
    @example(64, 8, True, 0)  # on the dual of the code
    @example(64, 9, False, 0)
    @example(64, 9, True, 0)
    @settings(max_examples=15, deadline=None)
    def test_matches_oracle_on_random_codes(self, n, d, larger, seed):
        c = codes.random_code(n, n - d if larger else d, np.random.default_rng(seed))
        dual = codes.dual(c)
        side = dual if larger else c
        h = codes._subcode_free_counts(side)
        assert np.array_equal(h, oracle_subcode_solve(codes._subspace_support_counts(side), n, d)), (n, d)
        assert [int(row.sum()) for row in h] == [comb(n, s) for s in range(n + 1)], (n, d)
        TestWeiDuality.assert_partition(n, codes.ghw_exact(c).weights, codes.ghw_exact(dual).weights)
        assert not codes._pascal(n).flags.writeable
        assert not codes._gaussian_binomials(d).flags.writeable

    # Every codeword of a packed code lies inside its first d coordinates,
    # so the covers C(64 - w, s - w) are near their largest and the sums
    # pass 2^64; RM(1,6) is a real code of the cap's size whose sums do not.
    @pytest.mark.parametrize("name,d", [("rm", 7), ("packed", 8), ("packed", 9)])
    def test_solve_exact_at_largest_sums(self, name, d):
        if name == "rm":
            side = codes.reed_muller(1, 6)
        else:
            g = np.hstack([np.eye(d, dtype=np.uint8), np.zeros((d, 64 - d), dtype=np.uint8)])
            side = LinearCode(n=64, dim=d, generator=BitMatrix(g))
        cnt = codes._subspace_support_counts(side)
        h = codes._subcode_free_counts(side)
        assert np.array_equal(h, oracle_subcode_solve(cnt, 64, d))
        assert [int(row.sum()) for row in h] == [comb(64, s) for s in range(65)]
        covers = max(
            sum(int(cnt[j, w]) * comb(64 - w, s - w) for w in range(s + 1)) for j in range(d + 1) for s in range(65)
        )
        assert (covers >= 2**64) == (name == "packed"), covers.bit_length()


class TestWeiDuality:
    """{d_r(C)} and {n + 1 - d_r(C-perp)} partition {1, ..., n} (Wei 1991)."""

    @staticmethod
    def assert_partition(n: int, weights, dual_weights):
        assert sorted([*weights, *(n + 1 - d for d in dual_weights)]) == list(range(1, n + 1))

    @given(st.integers(2, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_exact_random_codes(self, shape, seed):
        n, dim = shape
        c = codes.random_code(n, dim, np.random.default_rng(seed))
        self.assert_partition(n, codes.ghw_exact(c).weights, codes.ghw_exact(codes.dual(c)).weights)

    def test_exact_above_twenty(self):
        c = codes.random_code(22, 11, np.random.default_rng(22))
        self.assert_partition(22, codes.ghw_exact(c).weights, codes.ghw_exact(codes.dual(c)).weights)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_exact_above_the_transform(self, dim):
        n = codes.SUBSET_RANK_CAP + 1
        c = codes.random_code(n, dim, np.random.default_rng(0))
        self.assert_partition(n, codes.ghw_exact(c).weights, codes.ghw_exact(codes.dual(c)).weights)

    def test_monomial_reed_muller(self):
        for m in range(1, codes.RM_MAX_DEGREE + 1):
            for u in range(m + 1):
                dual_weights = () if u == m else codes.ghw_rm(m - u - 1, m).weights
                self.assert_partition(2**m, codes.ghw_rm(u, m).weights, dual_weights)


class TestReedMullerGenerator:
    def test_rows_match_per_monomial_oracle(self):
        for m in range(1, codes.RM_MAX_DEGREE + 1):
            for u in range(m + 1):
                got = codes.reed_muller(u, m).generator.a
                want = oracle_rm_generator(u, m)
                assert got.dtype == want.dtype and got.shape == want.shape, (u, m)
                assert got.tobytes() == want.tobytes(), (u, m)


class TestGHW:
    def test_profile_must_increase(self):
        with pytest.raises(ValueError):
            GHWProfile(weights=(2, 2, 3))

    def test_leakage_at(self):
        p = GHWProfile(weights=(2, 4))
        assert [p.leakage_at(mu) for mu in range(5)] == [0, 0, 1, 1, 2]

    def test_exact_known_values(self):
        g = BitMatrix.from_strings(["1101", "1011"])
        c = LinearCode(n=4, dim=2, generator=g)
        assert codes.ghw_exact(c).weights == (2, 4)
        rep = codes.reed_muller(0, 2)
        assert codes.ghw_exact(rep).weights == (4,)
        full = LinearCode(n=2, dim=2, generator=BitMatrix.identity(2))
        assert codes.ghw_exact(full).weights == (1, 2)

    def test_exact_cap(self):
        c = codes.random_code(codes.SUBSET_RANK_CAP + 1, 12, np.random.default_rng(0))
        with pytest.raises(ValueError, match="subset-rank cap"):
            codes.ghw_exact(c)

    def test_exact_matches_subcode_oracle(self, small_corpus):
        checked = 0
        for c in small_corpus:
            if c.dim > 4 or c.n > 10:
                continue
            assert codes.ghw_exact(c).weights == oracle_ghw(c.generator.a), c.label
            checked += 1
        assert checked >= 8

    def test_first_weight_is_min_distance(self, small_corpus):
        for c in small_corpus:
            if c.dim > 12:
                continue
            words = codes.enumerate_codewords(c)
            nonzero = words[words.any(axis=1)]
            assert codes.ghw_exact(c).weights[0] == int(nonzero.sum(axis=1).min())


class TestGHWReedMuller:
    def test_known_profiles(self):
        assert codes.ghw_of(codes.reed_muller(1, 2)).weights == (2, 3, 4)
        assert codes.ghw_of(codes.reed_muller(0, 4)).weights == (16,)
        assert codes.ghw_of(codes.reed_muller(3, 3)).weights == tuple(range(1, 9))

    def test_monomial_equals_exact_at_desk_scale(self):
        for m in range(1, 5):
            for u in range(0, m + 1):
                mono = codes.ghw_rm(u, m)
                exact = codes.ghw_exact(codes.reed_muller(u, m))
                assert mono.weights == exact.weights, (u, m)

    def test_monomial_closed_form_equals_greedy_oracle(self):
        for m in range(1, codes.RM_MAX_DEGREE + 1):
            for u in range(0, m + 1):
                assert codes.ghw_rm(u, m) == oracle_ghw_rm_monomial(u, m), (u, m)

    def test_auto_source_switch(self):
        for m in range(1, codes.RM_MAX_DEGREE + 1):
            assert codes.ghw_of(codes.reed_muller(1, m)).source == "monomial", m
        for n in (4, 16, codes.SUBSET_RANK_CAP, codes.SUBSET_RANK_CAP + 1):
            assert codes.ghw_of(codes.random_code(n, 2, np.random.default_rng(n))).source == "exact", n
        above = codes.random_code(codes.SUBSET_RANK_CAP + 1, 12, np.random.default_rng(0))
        with pytest.raises(ValueError, match="subset-rank cap"):
            codes.ghw_of(above)

    def test_rm_params_survive_duals(self):
        """The closed form trusts the label ``dual`` carries: RM(u, m), its
        dual and the dual of that dual must each be the code they name.
        Only the zero code (the dual of RM(m, m)) and the whole space after
        it carry no label."""
        for m in range(1, 5):
            for u in range(m + 1):
                rm = codes.reed_muller(u, m)
                perp = codes.dual(rm)
                for c in (rm, perp, codes.dual(perp)):
                    if c.rm_params is None:
                        assert u == m and c.dim in (0, c.n), c.label
                        continue
                    cu, cm = c.rm_params
                    assert cm == m and c.dim == sum(comb(m, i) for i in range(cu + 1)), c.label
                    assert codes.ghw_rm(cu, cm).weights == codes.ghw_exact(c).weights, c.label

    def test_first_order_length32_hierarchy(self):
        # classical hierarchy of the (32, 6) first-order code
        assert codes.ghw_of(codes.reed_muller(1, 5)).weights == (16, 24, 28, 30, 31, 32)

    def test_monomial_equals_exact_above_24(self):
        # subcode enumeration counts the hierarchy independently of the closed form
        assert codes.ghw_exact(codes.reed_muller(1, 5)).weights == codes.ghw_rm(1, 5).weights


class TestRandomCode:
    def test_full_rank_and_shape(self):
        rng = np.random.default_rng(9)
        c = codes.random_code(8, 3, rng)
        assert (c.n, c.dim) == (8, 3)
        assert bitlinalg.rank(c.generator) == 3
        assert oracle_rank(c.generator.a) == 3

    def test_bad_params(self):
        with pytest.raises(ValueError):
            codes.random_code(4, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            codes.random_code(4, 5, np.random.default_rng(0))
