"""Tests for the code/threshold sweep, selection, and Monte Carlo check."""

import csv
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretapkit import channel, codes, sweep, wiretap
from wiretapkit.bitlinalg import BitMatrix
from wiretapkit.channel import RegionMap

from conftest import (
    cells_grid,
    oracle_bob_reference,
    oracle_family_params,
    oracle_leakage,
    oracle_rref,
    oracle_sweep,
    oracle_sweep_by_eve,
    oracle_sweep_point,
    oracle_wiretap_matrices,
    posterior_entropy,
    posterior_oracle,
    random_corpus,
    rm_family_codes,
)


def two_location_grid(bob_snrs, eve_snrs):
    return cells_grid([(0.0, 0.0, "bob_office"), (1.0, 0.0, "eve_room")], [bob_snrs, eve_snrs])


REGIONS = RegionMap(bob_region="bob_office", eve_regions=frozenset({"eve_room"}))


@pytest.fixture(scope="module")
def analog_grid():
    """Bob: 29 carriers at 28 dB, 2 at 26 dB, rest 20 dB.

    Eve reads ten of Bob's strong carriers, but only below 27 dB, so the
    26 and 27 dB thresholds behave very differently.
    """
    bob = np.full(64, 20.0)
    bob[:29] = 28.0
    bob[29:31] = 26.0
    eve = np.full(64, 10.0)
    eve[:10] = 26.0
    return two_location_grid(bob, eve)


@pytest.fixture(scope="module")
def rate34():
    return wiretap.build(codes.reed_muller(0, 2), label="RM(1,2)|Cperp")


class TestEvaluate:
    def test_throughput_arithmetic(self, analog_grid, rate34):
        p = sweep.evaluate(rate34, analog_grid, REGIONS, 27.0)
        assert p.active_carriers == 29
        assert p.throughput == 21.75
        # exact integer identity before division
        assert p.throughput * p.n == p.k * p.active_carriers

    def test_secure_when_eve_reads_nothing(self, analog_grid, rate34):
        p = sweep.evaluate(rate34, analog_grid, REGIONS, 27.0)
        assert p.min_equivocation_pct == 100.0

    def test_insecure_when_eve_reads_everything(self, rate34):
        grid = two_location_grid(np.full(64, 30.0), np.full(64, 30.0))
        p = sweep.evaluate(rate34, grid, REGIONS, 25.0)
        assert p.min_equivocation_pct == 0.0

    def test_no_active_carriers_flagged_unreliable(self, rate34):
        grid = two_location_grid(np.full(64, 20.0), np.full(64, 10.0))
        p = sweep.evaluate(rate34, grid, REGIONS, 25.0)
        assert not p.reliable and p.throughput == 0.0

    @pytest.mark.parametrize("interleave", [False, True], ids=["worst_case", "interleaved"])
    def test_no_active_carriers_matches_oracle(self, rate34, interleave):
        grid = two_location_grid(np.full(64, 20.0), np.full(64, 30.0))
        got = sweep.sweep([rate34], grid, REGIONS, [25.0], interleave=interleave)
        assert got == oracle_sweep([rate34], grid, REGIONS, [25.0], interleave)
        assert not got[0].reliable and got[0].min_equivocation_pct == 100.0

    def test_empty_eve_region_errors(self, analog_grid, rate34):
        lonely = RegionMap(bob_region="bob_office", eve_regions=frozenset({"ghost_room"}))
        with pytest.raises(ValueError):
            sweep.evaluate(rate34, analog_grid, lonely, 25.0)

    def test_fully_excluded_eve_region_errors(self, analog_grid, rate34):
        excluded = RegionMap(
            bob_region="bob_office",
            eve_regions=frozenset({"eve_room"}),
            excluded_regions=frozenset({"eve_room"}),
        )
        with pytest.raises(ValueError, match="no candidate Eve locations"):
            sweep.sweep([rate34], analog_grid, excluded, [25.0, 27.0])

    def test_interleave_never_worse_than_worst_case(self, analog_grid, rate34):
        for tau in (25.0, 26.0, 27.0):
            worst = sweep.evaluate(rate34, analog_grid, REGIONS, tau)
            [inter] = sweep.sweep([rate34], analog_grid, REGIONS, [tau], interleave=True)
            assert inter.min_equivocation_pct >= worst.min_equivocation_pct

    def test_bob_reference_is_capacity_argmax(self):
        grid = cells_grid(
            [(0.0, 0.0, "bob_office"), (0.5, 0.0, "bob_office"), (1.0, 0.0, "eve_room")],
            [np.full(64, 20.0), np.full(64, 30.0), np.full(64, 5.0)],
        )
        assert sweep.bob_reference_index(grid, REGIONS) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_bob_reference_matches_per_row_argmax(self, seed):
        """One array call picks what a per-row capacity argmax picks.

        Grids hold finite SNRs only, so rows that carry nothing sit at
        -300 dB (capacity exactly 0, as for -inf).  Bob's best row is
        repeated at a later Bob location, and the lower index must win.
        """
        rng = np.random.default_rng(seed)
        count = int(rng.integers(8, 40))
        snr = rng.uniform(-10.0, 40.0, size=(count, 64))
        bob = sorted(rng.choice(count, size=int(rng.integers(4, count)), replace=False).tolist())
        labels = ["bob_office" if i in bob else "eve_room" for i in range(count)]
        snr[bob[0]] = -300.0
        snr[bob[1], ::2] = -300.0
        snr[bob[2]] = snr[bob[-1]] = rng.uniform(40.0, 50.0, size=64)
        grid = cells_grid([(float(i), 0.0, r) for i, r in enumerate(labels)], snr)
        caps = [channel.capacity_sum(snr[i]) for i in bob]
        assert caps[0] == 0.0 and caps.count(max(caps)) == 2
        assert sweep.bob_reference_index(grid, REGIONS) == bob[caps.index(max(caps))] == bob[2]


def bob_grid(bob_rows):
    """Bob's rows in grid order, then one Eve cell."""
    cells = [(float(i), 0.0, "bob_office") for i in range(len(bob_rows))] + [(-1.0, 0.0, "eve_room")]
    return cells_grid(cells, [*bob_rows, np.zeros(64)])


@pytest.fixture
def capacity_rows(monkeypatch):
    """The row count of every ``channel.capacity_sum`` call made during the test."""
    rows = []
    real = channel.capacity_sum

    def counting(snrs):
        rows.append(int(np.prod(np.shape(snrs)[:-1])))
        return real(snrs)

    monkeypatch.setattr(channel, "capacity_sum", counting)
    return rows


def perturbed_plan(seed):
    """The bundled plan with its transmitter, reference SNR, wall losses
    and fading seed redrawn from ``seed``."""
    env = channel.default_environment()
    rng = np.random.default_rng(seed)
    walls = tuple(dataclasses.replace(w, loss_db=float(rng.uniform(3.0, 14.0))) for w in env.walls)
    env = dataclasses.replace(
        env,
        tx=(float(rng.uniform(0.5, 4.5)), float(rng.uniform(0.2, 3.0))),
        ref_snr_db=float(rng.uniform(26.0, 40.0)),
        walls=walls,
    )
    return channel.synth_grid(env, seed=seed), env.region_map


class TestBobReference:
    """The bound-pruned argmax against the per-location oracle.

    A carrier at x dB holds between 0.5 max(0, s) and that plus 0.5 b/cu
    (s = x log2(10) / 10), so a row's floor, its summed lower ends, is
    within 32 b/cu of its capacity."""

    def test_lower_floor_wins_on_capacity(self):
        """All 64 carriers at 0 dB: floor 0, capacity exactly 32.  One
        carrier just under 32 b/cu of floor, the rest silent: floor and
        capacity just under 32.  The row with the best floor loses."""
        flat = np.zeros(64)
        spike = np.full(64, -300.0)
        spike[0] = (32.0 - 1e-9) / (0.05 * np.log2(10.0))
        grid = bob_grid([spike, flat, spike])
        assert channel.capacity_sum(spike) < channel.capacity_sum(flat) == 32.0
        assert sweep.bob_reference_index(grid, REGIONS) == oracle_bob_reference(grid, "bob_office") == 1

    def test_far_floor_is_pruned(self, capacity_rows):
        """A row whose floor is 32 b/cu or more below the best never
        reaches the exact capacity sum."""
        grid = bob_grid([np.zeros(64), np.full(64, 7.0), np.full(64, 6.0)])
        assert sweep.bob_reference_index(grid, REGIONS) == oracle_bob_reference(grid, "bob_office") == 1
        assert capacity_rows == [2]

    def test_exact_ties_pick_lowest_index(self):
        rng = np.random.default_rng(3)
        best = rng.uniform(20.0, 40.0, size=64)
        rows = [rng.uniform(0.0, 30.0, size=64), best, rng.uniform(0.0, 30.0, size=64), best, best]
        grid = bob_grid(rows)
        assert sweep.bob_reference_index(grid, REGIONS) == oracle_bob_reference(grid, "bob_office") == 1

    def test_all_below_0_db_keeps_every_cell(self, capacity_rows):
        rng = np.random.default_rng(4)
        grid = bob_grid(list(rng.uniform(-30.0, -0.1, size=(9, 64))))
        assert sweep.bob_reference_index(grid, REGIONS) == oracle_bob_reference(grid, "bob_office")
        assert capacity_rows == [9]

    def test_one_cell_region(self):
        grid = bob_grid([np.full(64, 12.0)])
        assert sweep.bob_reference_index(grid, REGIONS) == oracle_bob_reference(grid, "bob_office") == 0

    def test_overflowing_capacity_scores_every_cell(self, capacity_rows):
        """At 3,100 dB 10^(x/10) overflows, so one such carrier makes the
        capacity inf, above a row whose floor is far higher."""
        huge = np.full(64, -300.0)
        huge[5] = 3100.0
        grid = bob_grid([np.full(64, 1000.0), huge])
        with np.errstate(over="ignore"):
            assert sweep.bob_reference_index(grid, REGIONS) == oracle_bob_reference(grid, "bob_office") == 1
        assert capacity_rows == [2]

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_plans(self, seed):
        grid, regions = perturbed_plan(seed)
        assert sweep.bob_reference_index(grid, regions) == oracle_bob_reference(grid, regions.bob_region)

    def test_bundled_grid_scores_few_rows(self, capacity_rows):
        grid, regions = channel.default_grid(), channel.default_environment().region_map
        assert sweep.bob_reference_index(grid, regions) == oracle_bob_reference(grid, regions.bob_region)
        assert grid.region_indices((regions.bob_region,)).size == 600
        assert sum(capacity_rows) <= 10


class TestSweepAndSelect:
    def test_single_point_equals_evaluate(self, analog_grid, rate34):
        pts = sweep.sweep([rate34], analog_grid, REGIONS, [27.0])
        assert pts == [sweep.evaluate(rate34, analog_grid, REGIONS, 27.0)]

    def test_cartesian_count_and_order(self, analog_grid, rate34):
        fam = [rate34, wiretap.example_code()]
        taus = [25.0, 27.0, 29.0]
        pts = sweep.sweep(fam, analog_grid, REGIONS, taus)
        assert len(pts) == 6
        assert [p.code_label for p in pts] == [rate34.label] * 3 + ["demo(4,2)"] * 3
        assert [p.tau_db for p in pts] == taus * 2

    def test_empty_inputs_rejected(self, analog_grid, rate34):
        with pytest.raises(ValueError):
            sweep.sweep([], analog_grid, REGIONS, [25.0])
        with pytest.raises(ValueError):
            sweep.sweep([rate34], analog_grid, REGIONS, [])

    def test_repeated_tau_rejected(self, analog_grid, rate34):
        with pytest.raises(ValueError, match=r"^threshold 25 dB listed twice$"):
            sweep.sweep([rate34], analog_grid, REGIONS, [25.0, 27.0, 25.0])

    @pytest.mark.parametrize("max_m", [-1, 0, 1])
    def test_family_below_m2_rejected(self, max_m):
        with pytest.raises(ValueError, match=rf"^max_m must be at least 2, got {max_m}: "):
            sweep.default_code_family(max_m)

    def test_analog_selection_returns_rate34_at_tau27(self, analog_grid, rate34):
        fam = [
            wiretap.build(codes.reed_muller(1, 2), label="RM(1,2)|C"),
            rate34,
            wiretap.example_code(),
        ]
        taus = [25.0, 26.0, 27.0, 28.0, 29.0, 30.0, 31.0]
        best = sweep.select_best(sweep.sweep(fam, analog_grid, REGIONS, taus))
        assert best.code_label == "RM(1,2)|Cperp"
        assert best.tau_db == 27.0
        assert best.throughput == 21.75
        assert best.min_equivocation_pct == 100.0

    def test_monotonicity_in_tau(self, analog_grid):
        fam = sweep.default_code_family(max_m=3)
        taus = [24.0, 25.0, 26.0, 27.0, 28.0]
        for w in fam:
            pts = [sweep.evaluate(w, analog_grid, REGIONS, t) for t in taus]
            for a, b in zip(pts, pts[1:]):
                assert b.active_carriers <= a.active_carriers
                assert b.min_equivocation_pct >= a.min_equivocation_pct

    def test_select_best_permutation_invariant(self, analog_grid):
        fam = sweep.default_code_family(max_m=3)
        pts = sweep.sweep(fam, analog_grid, REGIONS, [25.0, 26.0, 27.0, 28.0])
        best = sweep.select_best(pts)
        rng = random.Random(0)
        for _ in range(10):
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert sweep.select_best(shuffled) == best

    def test_no_secure_point_raises(self, rate34):
        grid = two_location_grid(np.full(64, 30.0), np.full(64, 30.0))
        pts = sweep.sweep([rate34], grid, REGIONS, [25.0])
        with pytest.raises(sweep.NoSecureOperatingPoint):
            sweep.select_best(pts)
        relaxed = sweep.select_best(pts, require_full_equivocation=False)
        assert relaxed.min_equivocation_pct < 100.0

    def test_select_best_empty(self):
        with pytest.raises(ValueError):
            sweep.select_best([])


@st.composite
def small_scenarios(draw):
    """A grid with one Bob location reading ``a`` carriers at 30 dB, one
    excluded hallway cell that reads everything, and 1-5 Eve cells over
    two rooms, optionally ending in a copy of the first Eve (a tie)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = draw(st.integers(0, 64))
    bob = np.full(64, 10.0)
    bob[rng.permutation(64)[:a]] = 30.0
    eves = rng.choice([10.0, 20.0, 25.0, 30.0], size=(draw(st.integers(1, 5)), 64))
    if draw(st.booleans()):
        eves = np.vstack([eves, eves[:1]])
    rooms = [("eve_room", "eve_annex")[i % 2] for i in range(len(eves))]
    cells = [(0.0, 0.0, "hallway"), (1.0, 0.0, "bob_office")]
    cells += [(2.0 + i, 0.0, r) for i, r in enumerate(rooms)]
    grid = cells_grid(cells, np.vstack([np.full(64, 40.0), bob, eves]))
    regions = RegionMap(
        bob_region="bob_office",
        eve_regions=frozenset(rooms),
        excluded_regions=frozenset({"hallway"}),
    )
    return grid, regions


@st.composite
def repeated_mask_scenarios(draw):
    """Two Bob cells and 2-12 Eve cells over two rooms, each Eve a copy
    of one of 1-3 patterns of 10/20/25/30 dB carriers.  Copies are
    jittered by under 0.9 dB, which crosses none of the thresholds 20,
    25, 30, 31 dB, and redrawn on the carriers Bob reads at none of
    them, so many Eves share a read mask while their SNRs differ."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = np.array([10.0, 20.0, 25.0, 30.0])
    bob = rng.choice(levels, size=(2, 64))
    patterns = rng.choice(levels, size=(draw(st.integers(1, 3)), 64))
    eves = patterns[rng.integers(len(patterns), size=draw(st.integers(2, 12)))]
    eves = eves + rng.uniform(0.0, 0.9, size=eves.shape)
    unread = bob.max(axis=0) < 20.0
    eves[:, unread] = rng.choice(levels, size=(len(eves), int(unread.sum())))
    rooms = [("eve_room", "eve_annex")[int(i)] for i in rng.integers(2, size=len(eves))]
    cells = [(0.0, 0.0, "bob_office"), (0.5, 0.0, "bob_office")]
    cells += [(1.0 + i, 0.0, r) for i, r in enumerate(rooms)]
    grid = cells_grid(cells, np.vstack([bob, eves]))
    return grid, RegionMap(bob_region="bob_office", eve_regions=frozenset(rooms))


class TestBlockLayout:
    def test_round_robin_blocks(self):
        """Block b holds carriers b, b + B, ...; bit i sits on its carrier
        i mod c_b, so each carrier carries floor or ceil of n / c_b bits;
        B = ceil(a / n) blocks use every carrier exactly once."""
        for n in range(1, 41):
            for a in range(1, 71):
                for blocks in {1, -(-a // n)}:
                    layout = sweep._block_layout(n, a, blocks)
                    assert layout.shape == (blocks, n)
                    for b, row in enumerate(layout):
                        carriers = np.arange(b, a, blocks)
                        c = carriers.size
                        assert np.array_equal(row, carriers[np.arange(n) % c]), (n, a, blocks, b)
                        assert set(row.tolist()) == set(carriers[:n].tolist())
                        loads = [int((row == j).sum()) for j in carriers]
                        assert set(loads) <= {n // c, -(-n // c)}, (n, a, blocks, b)
                    if blocks == -(-a // n):
                        assert sorted(set(layout.ravel().tolist())) == list(range(a))

    def test_worst_case_closed_form(self):
        """e floor(n / a) + min(e, n mod a) is the sum of the e heaviest
        carrier loads of one block laid out on all a active carriers."""
        for a in range(1, 65):
            readable = np.arange(a + 1)
            for n in range(1, 513):
                loads = np.sort(np.bincount(sweep._block_layout(n, a, 1)[0], minlength=a))[::-1]
                want = np.concatenate(([0], loads.cumsum()))
                assert np.array_equal(sweep._worst_case_bits(readable, a, n), want), (n, a)


class TestSweepMatchesOracle:
    """The one-pass sweep equals the per-Eve loop in tests/conftest.py."""

    TAUS = [20.0, 25.0, 30.0, 31.0]  # 31 dB leaves Bob no active carrier

    @pytest.fixture(scope="class")
    def family(self):
        return sweep.default_code_family(max_m=4)

    @pytest.fixture(scope="class")
    def every_carrier_level(self):
        """The bundled grid and the m <= 7 family (n = 4-128), with every
        distinct SNR of Bob's reference row as a threshold, so that
        carriers sit exactly on tau, and one more above them all that
        leaves him no active carrier (a = 0), listed unsorted."""
        env = channel.default_environment()
        grid = channel.default_grid()
        levels = np.unique(grid.snr_db[oracle_bob_reference(grid, env.region_map.bob_region)])
        taus = np.random.default_rng(7).permutation(np.append(levels, levels[-1] + 1.0)).tolist()
        return sweep.default_code_family(max_m=7), grid, env.region_map, taus

    @given(small_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_random_small_grids(self, family, scenario):
        grid, regions = scenario
        for interleave in (False, True):
            got = sweep.sweep(family, grid, regions, self.TAUS, interleave=interleave)
            assert got == oracle_sweep(family, grid, regions, self.TAUS, interleave)

    @given(repeated_mask_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_repeated_read_masks(self, family, scenario):
        grid, regions = scenario
        for interleave in (False, True):
            got = sweep.sweep(family, grid, regions, self.TAUS, interleave=interleave)
            assert got == oracle_sweep(family, grid, regions, self.TAUS, interleave)

    @pytest.mark.parametrize("interleave", [False, True], ids=["worst_case", "interleaved"])
    @pytest.mark.parametrize("early, late", [(63, 0), (0, 63)], ids=["early_sorts_last", "early_sorts_first"])
    def test_tied_masks_blame_first_eve(self, family, interleave, early, late):
        """Bob reads carriers 0 and 63; two Eves read one of them each and
        so leak alike.  The earlier one is blamed whichever mask sorts
        first, and an even earlier blind Eve is not."""
        bob = np.full(64, 10.0)
        bob[[0, 63]] = 30.0
        eves = np.full((3, 64), 10.0)
        eves[1, early] = eves[2, late] = 30.0
        cells = [(0.0, 0.0, "bob_office")] + [(1.0 + i, 0.0, "eve_room") for i in range(3)]
        grid = cells_grid(cells, np.vstack([bob, eves]))
        got = sweep.sweep(family, grid, REGIONS, [25.0], interleave=interleave)
        assert got == oracle_sweep(family, grid, REGIONS, [25.0], interleave)
        leaky = [p for p in got if p.min_equivocation_pct < 100.0]
        assert leaky and all(p.worst_eve_location == 2 for p in leaky)

    @pytest.mark.parametrize("perturbed", [False, True], ids=["bundled", "perturbed"])
    def test_full_family_frontier(self, perturbed, no_location_objects):
        env = channel.default_environment()
        seed = channel.DEFAULT_GRID_SEED
        if perturbed:
            walls = tuple(dataclasses.replace(w, loss_db=9.5) for w in env.walls)
            env = dataclasses.replace(env, tx=(2.6, 0.5), ref_snr_db=32.4, walls=walls)
            seed = 11
        grid = channel.synth_grid(env, seed=seed)
        fam = sweep.default_code_family(max_m=5)
        taus = [25.0, 26.0, 27.0, 28.0, 29.0, 30.0, 31.0]
        for interleave in (False, True):
            got = sweep.sweep(fam, grid, env.region_map, taus, interleave=interleave)
            want = oracle_sweep(fam, grid, env.region_map, taus, interleave)
            assert sweep.frontier_csv(got) == sweep.frontier_csv(want)
            assert got == want

    @pytest.mark.parametrize("interleave", [False, True], ids=["worst_case", "interleaved"])
    def test_bundled_grid_at_every_carrier_level(self, every_carrier_level, interleave):
        fam, grid, regions, taus = every_carrier_level
        got = sweep.sweep(fam, grid, regions, taus, interleave=interleave)
        # the per-Eve loop, as array passes over the Eves, at every point
        assert got == oracle_sweep_by_eve(fam, grid, regions, taus, interleave)
        assert {p.active_carriers for p in got} >= {0, 1, 64}
        # and as the loop itself on the shortest and longest code at three thresholds
        for c in (0, len(fam) - 1):
            for t in (0, taus.index(max(taus)), len(taus) - 1):
                assert got[c * len(taus) + t] == oracle_sweep_point(fam[c], grid, regions, taus[t], interleave)


class TestDefaultFamily:
    def test_contents(self):
        fam = sweep.default_code_family(max_m=5)
        labels = {w.label for w in fam}
        assert "RM(1,2)|C" in labels and "RM(1,2)|Cperp" in labels
        # every distinct non-degenerate RM base up to m = 5 is built, the
        # k = 26 and k = 31 codes included
        assert len(fam) == 14
        assert {"RM(1,5)|C", "RM(4,5)|Cperp"} <= labels
        # full-space and zero-dimension bases are excluded
        assert all(0 < w.n - w.k < w.n for w in fam)
        # no duplicate base codes
        assert len(fam) == len({(w.n, w.base_code.generator) for w in fam})

    def test_family_and_profiles_run_no_elimination(self, dual_calls, null_space_calls):
        for max_m in range(2, codes.RM_MAX_DEGREE + 1):
            for w in sweep.default_code_family(max_m):
                w.dual_ghw()
        assert dual_calls == [] and null_space_calls == []

    @pytest.mark.parametrize("max_m,members", [(5, 14), (7, 27)])
    def test_one_dual_per_member(self, dual_calls, max_m, members):
        fam = sweep.default_code_family(max_m)
        assert dual_calls == []
        for _ in range(2):
            for w in fam:
                w.dual_code, w.h, w.gprime, w.decoder
        assert len(fam) == members
        assert dual_calls == [w.base_code for w in fam]

    def test_profiles_run_no_subset_search(self, monkeypatch):
        def refuse(c):
            raise AssertionError(f"subset-rank search on {c.label}")

        monkeypatch.setattr(codes, "subcode_tally", refuse)
        for max_m in range(2, codes.RM_MAX_DEGREE + 1):
            sources = {w.dual_ghw().source for w in sweep.default_code_family(max_m)}
            assert sources == {"monomial"}, max_m

    def test_matches_parameter_oracle_up_to_degree_bound(self):
        fam = sweep.default_code_family(codes.RM_MAX_DEGREE)
        got = [(w.label, w.base_code.rm_params) for w in fam]
        assert got == oracle_family_params(codes.RM_MAX_DEGREE)

    def test_syndrome_is_message(self):
        for w in sweep.default_code_family(max_m=codes.RM_MAX_DEGREE):
            prod = w.gprime.a.astype(int) @ w.h.a.T.astype(int) % 2
            assert np.array_equal(prod, np.eye(w.k)), w.label
            assert w.decoder == BitMatrix(w.h.a.T), w.label

    def test_all_members_round_trip(self):
        rng = np.random.default_rng(2)
        fam = sweep.default_code_family(max_m=5)
        assert {26, 31} <= {w.k for w in fam}
        for w in fam:
            for _ in range(8):
                m = rng.integers(0, 2, size=w.k, dtype=np.uint8)
                mp = rng.integers(0, 2, size=w.n - w.k, dtype=np.uint8)
                assert np.array_equal(wiretap.decode(w, wiretap.encode(w, m, mp)), m), w.label

    def test_matches_oracle_eliminations(self):
        fam = sweep.default_code_family(max_m=6)
        corpus = [wiretap.build(c) for c in random_corpus(max_n=40, count=60, seed=9)]
        for w in fam + corpus:
            assert (w.gprime, w.h, w.decoder) == oracle_wiretap_matrices(w.base_code), w.label
        # the corpus holds codes whose dual has an orthonormal basis: the
        # Gram matrix H.H^T is invertible with an odd diagonal entry
        grams = [BitMatrix(w.h.a.astype(int) @ w.h.a.T % 2) for w in corpus]
        assert sum(g.a.diagonal().any() and len(oracle_rref(g)[1]) == g.rows for g in grams) >= 10
        # no code twice, even under another generator
        assert len({oracle_rref(w.base_code.generator)[0] for w in fam}) == len(fam)


class TestSimulateMC:
    def test_eve_blind_leaks_nothing(self, rate34):
        grid = two_location_grid(np.full(64, 30.0), np.full(64, 10.0))
        rep = sweep.simulate_mc(rate34, grid, REGIONS, 25.0, trials=50, seed=1)
        assert rep["bob_error_rate"] == 0.0
        assert rep["eve_leakage_bits_max"] == 0.0

    def test_eve_omniscient_leaks_everything(self, rate34):
        grid = two_location_grid(np.full(64, 30.0), np.full(64, 30.0))
        rep = sweep.simulate_mc(rate34, grid, REGIONS, 25.0, trials=50, seed=1)
        assert rep["eve_leakage_bits_mean"] == rate34.k
        assert rep["eve_leakage_bits_max"] == rate34.k

    def test_partial_view_leaks_exactly_one_bit(self):
        # Eve reads positions 1 and 2 of every block of the built-in code
        w = wiretap.example_code()
        bob = np.full(64, 10.0)
        bob[:4] = 30.0
        eve = np.full(64, 10.0)
        eve[1:3] = 30.0
        grid = two_location_grid(bob, eve)
        rep = sweep.simulate_mc(w, grid, REGIONS, 25.0, trials=100, seed=7)
        assert rep["eve_leakage_bits_mean"] == 1.0
        assert rep["eve_leakage_bits_max"] == 1.0
        assert rep["worst_case_bound"] >= 1

    def test_dominated_by_worst_case_bound(self, rate34):
        rng = np.random.default_rng(3)
        for seed in range(5):
            bob = np.full(64, 30.0)
            eve = rng.uniform(15.0, 35.0, 64)
            grid = two_location_grid(bob, eve)
            rep = sweep.simulate_mc(rate34, grid, REGIONS, 25.0, trials=200, seed=seed)
            assert rep["eve_leakage_bits_max"] <= rep["worst_case_bound"]
            assert rep["bob_error_rate"] == 0.0

    def test_deterministic_given_seed(self, rate34):
        grid = two_location_grid(np.full(64, 30.0), np.full(64, 24.0))
        a = sweep.simulate_mc(rate34, grid, REGIONS, 25.0, trials=64, seed=5)
        b = sweep.simulate_mc(rate34, grid, REGIONS, 25.0, trials=64, seed=5)
        assert a == b

    def test_preconditions(self, rate34):
        grid = two_location_grid(np.full(64, 30.0), np.full(64, 10.0))
        with pytest.raises(ValueError):
            sweep.simulate_mc(rate34, grid, REGIONS, 25.0, trials=0, seed=1)
        # no active carrier at 45 dB, so no block can be sent
        with pytest.raises(ValueError, match="no active carriers"):
            sweep.simulate_mc(rate34, grid, REGIONS, 45.0, trials=1, seed=1)
        # RM(2,5) puts 32 bits on 20 carriers in two channel uses; Eve
        # reads carriers 0-7, which carry bits 0-7 and 20-27
        big = wiretap.build(codes.reed_muller(2, 5))
        bob = np.full(64, 10.0)
        bob[:20] = 30.0
        eve = np.full(64, 10.0)
        eve[:8] = 30.0
        grid = two_location_grid(bob, eve)
        rep = sweep.simulate_mc(big, grid, REGIONS, 25.0, trials=3000, seed=1)
        revealed = [*range(8), *range(20, 28)]
        assert rep["trials"] == 3000 and rep["bob_error_rate"] == 0.0
        assert rep["eve_leakage_bits_max"] == oracle_leakage(big.base_code.generator.a, revealed) == 3
        assert rep["worst_case_bound"] == big.dual_ghw().leakage_at(16) == 5


@pytest.fixture(scope="module")
def bundled():
    return channel.default_grid(), channel.default_environment().region_map


class TestSimulateMatchesOracles:
    """simulate_mc's exact leakage against the codebook posterior and the sweep."""

    @pytest.mark.parametrize("tau", [18.0, 19.0, 26.0, 29.0])
    def test_leakage_equals_posterior_oracle(self, bundled, tau):
        grid, regions = bundled
        bases = random_corpus(max_n=12, count=12, seed=73) + rm_family_codes(max_m=3)
        rng = np.random.default_rng(int(tau))
        leaks = set()
        for c in bases:
            w = wiretap.build(c)
            rep = sweep.simulate_mc(w, grid, regions, tau, trials=16, seed=0)
            bob = grid.snr_db[sweep.bob_reference_index(grid, regions)]
            active = np.nonzero(channel.erase_mask(bob, tau))[0]
            read = channel.erase_mask(grid.snr_db[rep["eve_location"]], tau)
            x = wiretap.encode(w, rng.integers(0, 2, w.k), rng.integers(0, 2, w.n - w.k))
            z = "".join(str(b) if read[active[i % active.size]] else "?" for i, b in enumerate(x))
            leak = w.k - posterior_entropy(posterior_oracle(w, z))
            assert rep["eve_leakage_bits_mean"] == pytest.approx(leak, abs=1e-9), (c.label, tau)
            assert rep["eve_leakage_bits_max"] == rep["eve_leakage_bits_mean"]
            leaks.add((round(leak) > 0, round(leak) < w.k))
        if tau < 25.0:  # Eve reads part of the block for some code
            assert (True, True) in leaks

    def test_bound_equals_sweep_leakage_at_n128(self, bundled):
        grid, regions = bundled
        family = [w for w in sweep.default_code_family(max_m=7) if w.n == 128]
        points = sweep.sweep(family, grid, regions, [19.0])
        assert {p.active_carriers for p in points} == {64}  # two channel uses per block
        for w, p in zip(family, points):
            rep = sweep.simulate_mc(w, grid, regions, 19.0, trials=8, seed=0)
            assert rep["eve_location"] == p.worst_eve_location
            assert rep["worst_case_bound"] == round(w.k * (100.0 - p.min_equivocation_pct) / 100.0)
            assert rep["eve_leakage_bits_max"] <= rep["worst_case_bound"]
            assert rep["bob_error_rate"] == 0.0
        # Eve reads 59 of 64 carriers, 118 of 128 bits: 3 of RM(1,7)|Cperp's 8 bits leak
        cperp = next(p for p in points if p.code_label == "RM(1,7)|Cperp")
        assert cperp.min_equivocation_pct == 62.5


class TestFrontierOutput:
    def test_csv_schema(self, analog_grid, rate34):
        pts = sweep.sweep([rate34], analog_grid, REGIONS, [25.0, 27.0])
        lines = sweep.frontier_csv(pts).strip().splitlines()
        assert lines[0] == (
            "code_label,n,k,rate,tau_db,active_carriers,throughput,"
            "min_equivocation_pct,worst_eve_location"
        )
        assert len(lines) == 3
        fields = next(csv.reader([lines[2]]))
        assert fields[0] == rate34.label
        assert fields[6] == "21.75"

    def test_svg(self, analog_grid, rate34):
        pts = sweep.sweep([rate34], analog_grid, REGIONS, [25.0, 27.0])
        svg = sweep.frontier_svg(pts)
        assert svg.startswith("<svg") and svg.count("<circle") == 2
        with pytest.raises(ValueError):
            sweep.frontier_svg([])
