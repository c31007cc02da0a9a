"""Tests for the coset wiretap construction and equivocation analysis."""

import itertools
from math import comb

import numpy as np
import pytest

from wiretapkit import bitlinalg, codes, wiretap
from wiretapkit.bitlinalg import BitMatrix
from wiretapkit.codes import LinearCode

from conftest import oracle_leakage, posterior_entropy, posterior_oracle

EXPECTED_COUNTS = np.array(
    [
        [0, 0, 0, 0, 1],  # e = 0
        [0, 0, 1, 4, 0],  # e = 1
        [1, 4, 5, 0, 0],  # e = 2
    ]
)


def assert_round_trips(w, rng, draws: int = 16):
    for _ in range(draws):
        m = rng.integers(0, 2, size=w.k, dtype=np.uint8)
        mp = rng.integers(0, 2, size=w.n - w.k, dtype=np.uint8)
        assert np.array_equal(wiretap.decode(w, wiretap.encode(w, m, mp)), m)


@pytest.fixture(scope="module")
def demo():
    return wiretap.example_code()


class TestBuild:
    def test_demo_reproduces_published_matrices(self, demo):
        assert demo.base_code.generator.to_strings() == ["0111", "1110"]
        assert demo.gprime.to_strings() == ["1101", "1011"]
        assert demo.h == demo.gprime == demo.dual_code.generator
        assert demo.decoder == BitMatrix(demo.h.a.T) and demo.k == 2

    def test_rm02_base_gives_rate_three_quarters(self):
        w = wiretap.build(codes.reed_muller(0, 2))
        assert (w.n, w.k) == (4, 3)
        # H is the dual's RREF [1001; 0101; 0011], so G' is the identity
        # rows at its pivots
        assert w.gprime.to_strings() == ["1000", "0100", "0010"] and w.gprime != w.h
        assert not (w.h.a.sum(axis=1) % 2).any()

    def test_degenerate_base_rejected(self, demo):
        full = LinearCode(n=3, dim=3, generator=BitMatrix.identity(3))
        with pytest.raises(ValueError, match="0 < dim < n"):
            wiretap.build(full)
        # a published encoder does not make a full base a wiretap code (k = 0)
        zero_dual = LinearCode(n=3, dim=0, generator=BitMatrix(np.zeros((0, 3), dtype=np.uint8)))
        empty_gprime = BitMatrix(np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="0 < dim < n"):
            wiretap.WiretapCode(full, zero_dual, empty_gprime)
        with pytest.raises(ValueError, match="gprime is missing"):
            wiretap.WiretapCode(demo.base_code, demo.dual_code)
        with pytest.raises(ValueError, match="dual_code is missing"):
            wiretap.WiretapCode(demo.base_code, gprime=demo.gprime)

    def test_rm05_base_k31_builds_and_decodes(self):
        w = wiretap.build(codes.reed_muller(0, 5))
        assert (w.n, w.k) == (32, 31)
        assert_round_trips(w, np.random.default_rng(5))

    def test_non_orthonormal_random_code_with_k_above_20(self):
        # the all-ones row makes every dual codeword even, so no basis
        # with H.H^T = I exists
        rng = np.random.default_rng(30)
        g = np.vstack([np.ones(30, dtype=np.uint8), rng.integers(0, 2, size=(4, 30), dtype=np.uint8)])
        w = wiretap.build(LinearCode(n=30, dim=5, generator=BitMatrix(g)))
        assert w.k == 25 and w.gprime != w.h
        assert_round_trips(w, rng)
        # G'' = M.G' xor R.G with M invertible still complements C, but
        # G''.H^T = M != I, so its syndrome is not the message
        while True:
            mix = BitMatrix(rng.integers(0, 2, size=(25, 25), dtype=np.uint8))
            if bitlinalg.rank(mix) == 25 and mix != BitMatrix.identity(25):
                break
        noise = BitMatrix(rng.integers(0, 2, size=(25, 5), dtype=np.uint8))
        gpp = bitlinalg.mul(mix, w.gprime).a ^ bitlinalg.mul(noise, w.base_code.generator).a
        with pytest.raises(ValueError, match="identity"):
            wiretap.WiretapCode(w.base_code, w.dual_code, gprime=BitMatrix(gpp))

    def test_invariants_validated(self, demo):
        bad_h = BitMatrix.from_strings(["1000", "0100"])
        with pytest.raises(ValueError, match="not orthogonal"):
            wiretap.WiretapCode(demo.base_code, LinearCode(n=4, dim=2, generator=bad_h), gprime=demo.gprime)
        repeated_h = BitMatrix.from_strings(["1101", "1101"])
        with pytest.raises(ValueError, match="full row rank"):
            wiretap.WiretapCode(demo.base_code, LinearCode(n=4, dim=2, generator=repeated_h), gprime=demo.gprime)
        one_row = LinearCode(n=4, dim=1, generator=BitMatrix.from_strings(["1101"]))
        with pytest.raises(ValueError, match=r"dual code must be \(4, 2\)"):
            wiretap.WiretapCode(demo.base_code, one_row, gprime=demo.gprime)

    def test_label_override(self):
        w = wiretap.build(codes.reed_muller(1, 2), label="custom")
        assert w.label == "custom"


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "m,mprime,expected",
        [((1, 0), (0, 1), "0011"), ((0, 0), (0, 0), "0000"), ((1, 1), (1, 1), "1111")],
    )
    def test_published_cells(self, demo, m, mprime, expected):
        x = wiretap.encode(demo, m, mprime)
        assert "".join(map(str, x)) == expected

    @pytest.mark.parametrize("y,expected", [("1011", (0, 1)), ("0000", (0, 0)), ("1111", (1, 1))])
    def test_decode_known_words(self, demo, y, expected):
        got = wiretap.decode(demo, [int(ch) for ch in y])
        assert tuple(got) == expected

    def test_length_checks(self, demo):
        with pytest.raises(ValueError):
            wiretap.encode(demo, [1], [0, 0])
        with pytest.raises(ValueError):
            wiretap.encode(demo, [1, 0], [0])
        with pytest.raises(ValueError):
            wiretap.decode(demo, [1, 0, 1])

    def test_coset_bijection_and_round_trip(self, small_corpus):
        # encode is a bijection F2^k x F2^(n-k) -> F2^n; decode inverts m
        for c in small_corpus:
            if c.n > 8 or not 0 < c.dim < c.n:
                continue
            w = wiretap.build(c)
            seen = set()
            for m in itertools.product([0, 1], repeat=w.k):
                for mp in itertools.product([0, 1], repeat=w.n - w.k):
                    x = wiretap.encode(w, m, mp)
                    seen.add(tuple(int(b) for b in x))
                    assert np.array_equal(wiretap.decode(w, x), m)
            assert len(seen) == 2**w.n


class TestLeakage:
    def test_published_values(self, demo):
        assert wiretap.leakage(demo, (1, 2)) == 1
        assert wiretap.leakage(demo, ()) == 0
        assert wiretap.leakage(demo, (0, 1, 2, 3)) == 2

    def test_pattern_validation(self, demo):
        with pytest.raises(ValueError, match="duplicate"):
            wiretap.leakage(demo, (1, 1))
        with pytest.raises(ValueError, match="out of range"):
            wiretap.leakage(demo, (4,))
        with pytest.raises(ValueError, match="out of range"):
            wiretap.leakage(demo, (-1,))

    def test_matches_rank_oracle_and_bounds(self, small_corpus):
        for c in small_corpus:
            if c.n > 8:
                continue
            w = wiretap.build(c)
            g = w.base_code.generator.a
            for mu in range(w.n + 1):
                for revealed in itertools.combinations(range(w.n), mu):
                    leak = wiretap.leakage(w, revealed)
                    assert leak == oracle_leakage(g, revealed)
                    assert 0 <= leak <= w.k


class TestPosteriorOracle:
    def test_half_the_messages_ruled_out(self, demo):
        assert posterior_oracle(demo, "?00?") == {"00": 0.5, "11": 0.5}

    def test_nothing_revealed_is_uniform(self, demo):
        post = posterior_oracle(demo, "????")
        assert post == {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}

    def test_full_word_is_certain(self, demo):
        assert posterior_oracle(demo, "1011") == {"01": 1.0}

    def test_sequence_form_with_none(self, demo):
        assert posterior_oracle(demo, [None, 0, 0, None]) == {"00": 0.5, "11": 0.5}

    def test_every_full_observation_is_consistent(self):
        # the coset map is a bijection onto F2^n, so any full word decodes
        w = wiretap.build(codes.reed_muller(0, 2))
        assert posterior_oracle(w, "1000") == {"100": 1.0}

    def test_cap_and_length_errors(self, demo):
        with pytest.raises(ValueError):
            posterior_oracle(demo, "???")
        big = wiretap.build(codes.reed_muller(2, 5))
        with pytest.raises(ValueError):
            posterior_oracle(big, "?" * 32)

    def test_entropy(self):
        assert posterior_entropy({"00": 0.5, "11": 0.5}) == 1.0
        assert posterior_entropy({"01": 1.0}) == 0.0


class TestEquivocationMatrix:
    def test_demo_matches_published_table(self, demo):
        mat = wiretap.equivocation_matrix(demo)
        assert np.array_equal(mat.counts, EXPECTED_COUNTS)

    def test_csv_layout(self, demo):
        csv = wiretap.equivocation_matrix(demo).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "equivocation_bits,mu=0,mu=1,mu=2,mu=3,mu=4"
        assert lines[1] == "2,1,4,5,0,0"
        assert lines[2] == "1,0,0,1,4,0"
        assert lines[3] == "0,0,0,0,0,1"

    def test_column_sums_and_corners(self, small_corpus):
        for c in small_corpus:
            if c.n > 10:
                continue
            w = wiretap.build(c)
            mat = wiretap.equivocation_matrix(w)
            assert mat.column_sums_ok()
            assert mat.counts[w.k, 0] == 1
            assert mat.counts[0, w.n] == 1

    def test_matches_pattern_oracle(self, small_corpus):
        # independent tally: iterate every pattern, rank by row-space oracle
        for c in small_corpus:
            if c.n > 8:
                continue
            w = wiretap.build(c)
            expected = np.zeros((w.k + 1, w.n + 1), dtype=np.int64)
            g = w.base_code.generator.a
            for mu in range(w.n + 1):
                for revealed in itertools.combinations(range(w.n), mu):
                    expected[w.k - oracle_leakage(g, revealed), mu] += 1
            assert np.array_equal(wiretap.equivocation_matrix(w).counts, expected)

    def test_cap_refusal_mentions_size(self):
        w = wiretap.build(codes.reed_muller(2, 5))
        with pytest.raises(ValueError, match="subset-rank cap"):
            wiretap.equivocation_matrix(w)

    @pytest.mark.parametrize("u, m", [(1, 5), (3, 5), (1, 6), (4, 6)])
    def test_reed_muller_above_24_agrees_with_wei_duality(self, u, m):
        # worst-case leakage at mu is the number of dual GHWs <= mu (Wei 1991)
        w = wiretap.build(codes.reed_muller(u, m))
        mat = wiretap.equivocation_matrix(w)
        assert mat.column_sums_ok()
        profile = w.dual_ghw()
        assert profile.source == "monomial"
        assert [mat.worst_case_leakage(mu) for mu in range(w.n + 1)] == [
            profile.leakage_at(mu) for mu in range(w.n + 1)
        ]


class TestWorstCaseLeakage:
    def test_demo_values(self, demo):
        assert [demo.dual_ghw().leakage_at(mu) for mu in range(5)] == [0, 0, 1, 1, 2]
        assert demo.dual_ghw().weights == (2, 4)

    @pytest.mark.parametrize("base", [codes.reed_muller(1, 4), codes.reed_muller(2, 6),
                                      codes.random_code(10, 6, np.random.default_rng(3))],
                             ids=["rm1_4", "rm2_6", "random10_6"])
    def test_build_hands_its_dual_on(self, base, dual_calls):
        # build derives nothing, and a Reed-Muller profile is read off the
        # base's parameters; the first read of the encoder derives C-perp,
        # and every later reader gets that one
        w = wiretap.build(base)
        assert dual_calls == []
        profile = w.dual_ghw()
        assert len(dual_calls) == (base.rm_params is None)
        for _ in range(2):
            assert w.h is w.dual_code.generator and w.decoder == BitMatrix(w.h.a.T)
            assert bitlinalg.mul(w.gprime, w.decoder) == BitMatrix.identity(w.k)
            assert w.dual_ghw() is profile
        assert dual_calls == [base]
        assert profile == codes.ghw_of(codes.dual(base))

    def test_profile_tallies_the_base_it_holds(self, dual_calls):
        # C-perp (16, 12) is the larger side, so its tally runs on its dual, C
        w = wiretap.build(codes.random_code(16, 4, np.random.default_rng(16)))
        profile = w.dual_ghw()
        assert dual_calls == [w.base_code]
        assert profile == codes.ghw_exact(w.dual_code)

    @pytest.mark.parametrize("order, degree", [(2, 4), (3, 5)])
    def test_matrix_tallies_the_dual_it_holds(self, order, degree, dual_calls):
        # both bases are larger than their duals, so the tally runs on C-perp
        w = wiretap.build(codes.reed_muller(order, degree))
        first = wiretap.equivocation_matrix(w)
        assert first.column_sums_ok()
        assert np.array_equal(wiretap.equivocation_matrix(w).counts, first.counts)
        assert dual_calls == [w.base_code]

    def test_agrees_with_matrix_worst_case(self, medium_corpus):
        for c in medium_corpus:
            if not 0 < c.dim < c.n or c.n > 16:
                continue
            w = wiretap.build(c)
            mat = wiretap.equivocation_matrix(w)
            for mu in range(w.n + 1):
                assert w.dual_ghw().leakage_at(mu) == mat.worst_case_leakage(mu), (
                    c.label,
                    mu,
                )
