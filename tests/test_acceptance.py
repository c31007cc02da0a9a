"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Every test prints a single PASS line (outside pytest capture) when its
criterion holds; a failure shows up as a normal pytest failure for that
criterion.  Expected values are frozen here, independent of the library.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from wiretapkit import channel, codes, sweep, wiretap
from wiretapkit.channel import RegionMap

from conftest import cells_grid, oracle_leakage, posterior_entropy, posterior_oracle, synth_capture

GOLDEN = Path(__file__).parent / "data" / "golden_frontier.csv"

# the full 16-cell message/auxiliary-word table of the built-in n=4 code,
# rows m = 00,01,10,11; columns m' = 00,01,10,11
EXPECTED_TABLE = [
    ["0000", "1110", "0111", "1001"],
    ["1011", "0101", "1100", "0010"],
    ["1101", "0011", "1010", "0100"],
    ["0110", "1000", "0001", "1111"],
]

EXPECTED_EQ_COUNTS = np.array(
    [
        [0, 0, 0, 0, 1],  # e = 0
        [0, 0, 1, 4, 0],  # e = 1
        [1, 4, 5, 0, 0],  # e = 2
    ]
)


def report(capsys, line):
    with capsys.disabled():
        print(line)


def bits(value, width):
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def two_location_grid(bob, eve):
    return cells_grid([(0.0, 0.0, "bob_office"), (1.0, 0.0, "eve_room")], [bob, eve])


TWO_REGIONS = RegionMap(bob_region="bob_office", eve_regions=frozenset({"eve_room"}))


def test_criterion_1_codeword_table(capsys):
    """All 16 codeword cells and all 16 decodes, exactly, under 1 s."""
    start = time.perf_counter()
    w = wiretap.example_code()
    for mi in range(4):
        for j in range(4):
            x = wiretap.encode(w, bits(mi, 2), bits(j, 2))
            assert "".join(map(str, x)) == EXPECTED_TABLE[mi][j], (mi, j)
            assert list(wiretap.decode(w, x)) == bits(mi, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(capsys, f"PASS 1/9 codeword table: 16/16 cells exact, decode exact ({elapsed:.3f}s)")


def test_criterion_2_equivocation_matrix(capsys):
    """Equivocation matrix of the built-in code matches the frozen table."""
    start = time.perf_counter()
    mat = wiretap.equivocation_matrix(wiretap.example_code())
    assert np.array_equal(mat.counts, EXPECTED_EQ_COUNTS)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(capsys, f"PASS 2/9 equivocation matrix: exact 3x5 match ({elapsed:.3f}s)")


def test_criterion_3_oracle_equivalence(capsys, small_corpus):
    """Posterior entropy = k - leakage for every pattern of every n<=10 code."""
    n_random = sum(1 for c in small_corpus if c.label.startswith("corpus"))
    assert n_random >= 20
    rng = np.random.default_rng(2025)
    patterns = 0
    for c in small_corpus:
        assert c.n <= 10
        w = wiretap.build(c)
        m = rng.integers(0, 2, size=w.k, dtype=np.uint8)
        mp = rng.integers(0, 2, size=w.n - w.k, dtype=np.uint8)
        x = wiretap.encode(w, m, mp)
        for mu in range(w.n + 1):
            for revealed in itertools.combinations(range(w.n), mu):
                rset = set(revealed)
                z = "".join(str(int(b)) if i in rset else "?" for i, b in enumerate(x))
                entropy = posterior_entropy(posterior_oracle(w, z))
                leak = wiretap.leakage(w, revealed)
                assert abs(entropy - round(entropy)) < 1e-9, (c.label, revealed)
                assert round(entropy) == w.k - leak, (c.label, revealed)
                patterns += 1
    report(
        capsys,
        f"PASS 3/9 oracle equivalence: {patterns} patterns over "
        f"{len(small_corpus)} codes, all integer-exact",
    )


def test_criterion_4_ghw_consistency(capsys, medium_corpus):
    """GHW-derived worst case equals brute force; RM closed path == exact."""
    checked = 0
    for c in medium_corpus:
        assert c.n <= 16
        w = wiretap.build(c)
        mat = wiretap.equivocation_matrix(w)
        for mu in range(w.n + 1):
            assert w.dual_ghw().leakage_at(mu) == mat.worst_case_leakage(mu), (c.label, mu)
        checked += 1
    rm_pairs = 0
    for m in range(1, 5):  # every 2^m <= 20
        for u in range(0, m + 1):
            exact = codes.ghw_exact(codes.reed_muller(u, m))
            mono = codes.ghw_rm(u, m)
            assert exact.weights == mono.weights, (u, m)
            rm_pairs += 1
    report(
        capsys,
        f"PASS 4/9 GHW consistency: {checked} codes vs brute force, "
        f"{rm_pairs} RM profiles closed==exact",
    )


def test_criterion_5_throughput_arithmetic(capsys):
    """Rate-3/4 code with 29 active carriers reports exactly 21.75 b/cu."""
    bob = np.full(64, 20.0)
    bob[:29] = 28.0
    eve = np.full(64, 10.0)
    grid = two_location_grid(bob, eve)
    w = wiretap.build(codes.reed_muller(0, 2), label="RM(1,2)|Cperp")
    p = sweep.evaluate(w, grid, TWO_REGIONS, 27.0)
    assert p.rate == 0.75 and p.active_carriers == 29
    assert p.throughput == 21.75
    report(capsys, "PASS 5/9 throughput arithmetic: 3/4 x 29 carriers = 21.75 b/cu exact")


def test_criterion_6_secrecy_capacity(capsys):
    """C_s = 0 on equal SNRs; C_s <= C_bob on 1000 seeded grids; spot values."""
    rng = np.random.default_rng(99)
    snrs = rng.uniform(0, 40, 64)
    assert channel.secrecy_capacity(snrs, snrs) == 0.0
    for _ in range(1000):
        bob = rng.uniform(-20, 45, 64)
        eve = rng.uniform(-20, 45, 64)
        assert channel.secrecy_capacity(bob, eve) <= channel.capacity_sum(bob) + 1e-12
    one = np.full(64, -np.inf)
    one[0] = 15.0
    cap_expected = 0.5 * math.log2(1.0 + 10.0**1.5)
    assert abs(channel.capacity_sum(one) - cap_expected) <= 1e-9 * cap_expected
    eve5 = np.full(64, -np.inf)
    eve5[0] = 5.0
    cs_expected = 0.5 * (math.log2(1.0 + 10.0**1.5) - math.log2(1.0 + 10.0**0.5))
    got = channel.secrecy_capacity(one, eve5)
    assert abs(got - cs_expected) <= 1e-9 * cs_expected
    report(capsys, "PASS 6/9 secrecy capacity: 1000 bound checks + spot values to 1e-9")


def test_criterion_7_snr_estimation(capsys):
    """All 64 estimates within +/-1 dB at 15/25/35 dB, 32 Welch segments."""
    start = time.perf_counter()
    worst = 0.0
    for snr, seed in ((15.0, 101), (25.0, 102), (35.0, 103)):
        cap = synth_capture(snr, seed=seed, periods=32)
        est = channel.snr_estimate(cap)
        worst = max(worst, float(np.abs(est - snr).max()))
        assert np.all(np.abs(est - snr) < 1.0), snr
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        capsys,
        f"PASS 7/9 SNR estimation: 192 estimates, worst error {worst:.3f} dB "
        f"< 1 dB ({elapsed:.1f}s)",
    )


def test_criterion_8_monte_carlo_dominance(capsys):
    """10 scenarios x 10^4 trials: leakage <= bound, Bob errors exactly 0."""
    start = time.perf_counter()
    table1 = wiretap.example_code()
    rate34 = wiretap.build(codes.reed_muller(0, 2))
    rng = np.random.default_rng(1234)
    scenarios = []
    for i in range(8):
        w = table1 if i % 2 == 0 else rate34
        bob = np.full(64, 30.0)
        eve = rng.uniform(18.0, 32.0, 64)
        scenarios.append((w, two_location_grid(bob, eve), 25.0, i))
    # extremes: blind Eve and omniscient Eve
    scenarios.append((table1, two_location_grid(np.full(64, 30.0), np.full(64, 5.0)), 25.0, 8))
    scenarios.append((rate34, two_location_grid(np.full(64, 30.0), np.full(64, 35.0)), 25.0, 9))
    for w, grid, tau, seed in scenarios:
        rep = sweep.simulate_mc(w, grid, TWO_REGIONS, tau, trials=10_000, seed=seed)
        assert rep["bob_error_rate"] == 0.0, seed
        assert rep["eve_leakage_bits_max"] <= rep["worst_case_bound"], seed
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        capsys,
        f"PASS 8/9 Monte Carlo dominance: 10 scenarios x 10^4 trials, "
        f"0 Bob errors, max leakage <= bound ({elapsed:.1f}s)",
    )


def test_criterion_9_end_to_end_pipeline(capsys):
    """Bundled-grid sweep: golden CSV byte-exact, monotone in tau, secure best."""
    grid = channel.default_grid()
    regions = channel.default_environment().region_map
    taus = [25.0, 26.0, 27.0, 28.0, 29.0, 30.0, 31.0]
    points = sweep.sweep(sweep.default_code_family(max_m=5), grid, regions, taus)
    got = sweep.frontier_csv(points)
    assert got.encode() == GOLDEN.read_bytes()
    by_code = {}
    for p in points:
        by_code.setdefault(p.code_label, []).append(p)
    for label, pts in by_code.items():
        pts = sorted(pts, key=lambda p: p.tau_db)
        for a, b in zip(pts, pts[1:]):
            assert b.active_carriers <= a.active_carriers, label
            assert b.min_equivocation_pct >= a.min_equivocation_pct, label
    best = sweep.select_best(points)
    assert best.min_equivocation_pct == 100.0
    assert best.throughput > 0
    report(
        capsys,
        f"PASS 9/9 end-to-end pipeline: {len(points)} points byte-match golden, "
        f"monotone; best {best.code_label} at tau={best.tau_db:g} dB "
        f"({best.throughput:g} b/cu, 100% equivocation)",
    )
