"""Tests for SNR estimation, the synthetic grid, and capacity math."""

import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretapkit import channel, maps
from wiretapkit.channel import (
    CARRIERS,
    ChannelGrid,
    EnvironmentConfig,
    FadingModel,
    RegionMap,
    RegionRect,
    SoundingCapture,
    Wall,
)

from conftest import (
    cells_grid,
    grid_to_csv,
    old_carrier_capacity,
    oracle_block_draws,
    oracle_synth_grid,
    region_of,
    save_capture,
    synth_capture,
)


def flat_env(**overrides):
    base = dict(
        width=1.0,
        height=1.0,
        grid_spacing=0.5,
        tx=(0.0, 0.0),
        ref_snr_db=30.0,
        ref_distance=1.0,
        path_loss_exponent=3.0,
        fading=FadingModel(enabled=False),
    )
    base.update(overrides)
    return EnvironmentConfig(**base)


class TestWelchPsd:
    def test_pure_tone_concentrates_on_its_bin(self):
        t = np.arange(4 * channel.FFT_LENGTH)
        iq = np.exp(2j * np.pi * 6 * t / channel.FFT_LENGTH)
        cap = SoundingCapture(iq=iq, periods=4)
        psd = channel.welch_psd(cap)
        others = np.delete(psd, 6)
        assert psd[6] > 0
        assert np.all(others <= 1e-9 * psd[6])

    def test_zero_signal(self):
        cap = SoundingCapture(iq=np.zeros(32 * channel.FFT_LENGTH, dtype=complex))
        assert not channel.welch_psd(cap).any()

    def test_capture_length_validation(self):
        with pytest.raises(ValueError):
            SoundingCapture(iq=np.zeros(100, dtype=complex))


class TestSnrEstimate:
    def test_noiseless_capture_is_degenerate(self):
        cap = synth_capture(25.0, seed=0, noiseless=True)
        with pytest.raises(ValueError):
            channel.snr_estimate(cap)

    @pytest.mark.parametrize("snr", [15.0, 25.0, 35.0])
    def test_uniform_snr_within_one_db(self, snr):
        cap = synth_capture(snr, seed=42)
        est = channel.snr_estimate(cap)
        assert est.shape == (CARRIERS,)
        assert np.all(np.abs(est - snr) < 1.0)

    def test_single_hot_subcarrier(self):
        snrs = np.full(CARRIERS, -30.0)
        snrs[0] = 30.0
        est = channel.snr_estimate(synth_capture(snrs, seed=1))
        assert est[0] > est[1:].max() + 20

    def test_synth_capture_deterministic(self):
        a = synth_capture(20.0, seed=9)
        b = synth_capture(20.0, seed=9)
        assert np.array_equal(a.iq, b.iq)


class TestErasureAndCapacity:
    def test_erase_mask_boundary_inclusive(self):
        mask = channel.erase_mask([24.9, 25.0, 25.1], 25.0)
        assert list(mask) == [False, True, True]

    def test_reliable_count(self):
        alt = np.where(np.arange(64) % 2 == 0, 30.0, 20.0)
        rows = np.array([np.full(64, 30.0), np.full(64, 20.0), alt])
        assert channel.erase_mask(rows, 25.0).sum(axis=1).tolist() == [64, 0, 32]

    def test_capacity_p_over_n_three(self):
        snr_db = 10.0 * math.log10(3.0)
        assert channel.capacity_sum(np.full(64, snr_db)) == pytest.approx(64.0, abs=1e-12)

    def test_capacity_all_off(self):
        assert channel.capacity_sum(np.full(64, -np.inf)) == 0.0

    def test_capacity_minus_inf_db_is_exactly_zero_without_warning(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert channel.capacity_sum(np.full(64, -np.inf)) == 0.0
            caps = channel._carrier_capacity(np.array([-np.inf, 0.0, 30.0]))
        assert caps[0] == 0.0 and caps[1] == 0.5

    def test_capacity_bit_identical_to_guarded_formula(self):
        """Dropping the -inf guard changes no bit of the bundled grid's capacities."""
        snr = channel.default_grid().snr_db
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = channel.capacity_sum(snr)
        assert np.array_equal(got, old_carrier_capacity(snr).sum(axis=-1))

    def test_capacity_spot_value(self):
        snrs = np.full(64, -np.inf)
        snrs[0] = 15.0
        expected = 0.5 * math.log2(1.0 + 10.0**1.5)
        assert abs(channel.capacity_sum(snrs) - expected) <= 1e-9 * expected

    def test_secrecy_zero_when_equal(self):
        snrs = np.random.default_rng(0).uniform(0, 40, 64)
        assert channel.secrecy_capacity(snrs, snrs) == 0.0

    def test_secrecy_equals_capacity_when_eve_off(self):
        snr_db = 10.0 * math.log10(3.0)
        bob = np.full(64, snr_db)
        eve = np.full(64, -np.inf)
        assert channel.secrecy_capacity(bob, eve) == pytest.approx(64.0, abs=1e-12)

    def test_secrecy_spot_value(self):
        bob = np.full(64, -np.inf)
        eve = np.full(64, -np.inf)
        bob[0], eve[0] = 15.0, 5.0
        expected = 0.5 * (math.log2(1.0 + 10.0**1.5) - math.log2(1.0 + 10.0**0.5))
        got = channel.secrecy_capacity(bob, eve)
        assert abs(got - expected) <= 1e-9 * expected

    def test_secrecy_shape_mismatch(self):
        with pytest.raises(ValueError):
            channel.secrecy_capacity(np.zeros(64), np.zeros(32))

    def test_array_calls_equal_per_row_calls(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-10, 40, size=(40, 64))
        rows[rng.random(rows.shape) < 0.2] = -np.inf
        rows[5] = -np.inf
        bob = rows[11]
        caps = channel.capacity_sum(rows)
        secrecy = channel.secrecy_capacity(bob, rows)
        assert caps.shape == secrecy.shape == (40,)
        assert caps.tolist() == [channel.capacity_sum(r) for r in rows]
        assert secrecy.tolist() == [channel.secrecy_capacity(bob, r) for r in rows]
        assert type(channel.capacity_sum(bob)) is float
        assert type(channel.secrecy_capacity(bob, rows[0])) is float
        with pytest.raises(ValueError, match="shape mismatch"):
            channel.secrecy_capacity(bob, rows[:, :32])

    def test_secrecy_bounded_by_capacity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            bob = rng.uniform(-10, 40, 64)
            eve = rng.uniform(-10, 40, 64)
            assert channel.secrecy_capacity(bob, eve) <= channel.capacity_sum(bob) + 1e-12


class TestSynthGrid:
    def test_reference_distance_no_walls(self):
        cfg = flat_env()
        grid = channel.synth_grid(cfg, seed=0)
        # the corner cell sits at the transmitter, inside ref_distance
        assert np.allclose(grid.snr_db[0], 30.0)

    def test_wall_adds_exact_loss(self):
        wall = Wall(x1=0.5, y1=-1.0, x2=0.5, y2=2.0, loss_db=10.0)
        cfg_wall = flat_env(width=2.0, grid_spacing=1.0, walls=(wall,))
        cfg_open = flat_env(width=2.0, grid_spacing=1.0)
        g_wall = channel.synth_grid(cfg_wall, seed=0)
        g_open = channel.synth_grid(cfg_open, seed=0)
        # location x=2, y=0 is behind the wall; x=0 is not
        [idx] = np.flatnonzero((g_wall.x == 2.0) & (g_wall.y == 0.0))
        assert np.allclose(g_open.snr_db[idx] - g_wall.snr_db[idx], 10.0)

    def test_path_loss_slope(self):
        cfg = flat_env(width=4.0, grid_spacing=1.0)
        grid = channel.synth_grid(cfg, seed=0)
        [at2] = np.flatnonzero((grid.x == 2.0) & (grid.y == 0.0))
        [at4] = np.flatnonzero((grid.x == 4.0) & (grid.y == 0.0))
        delta = grid.snr_db[at2, 0] - grid.snr_db[at4, 0]
        assert delta == pytest.approx(10.0 * 3.0 * math.log10(2.0), abs=1e-9)

    def test_deterministic_with_fading(self):
        cfg = flat_env(fading=FadingModel(enabled=True))
        a = channel.synth_grid(cfg, seed=5)
        b = channel.synth_grid(cfg, seed=5)
        assert np.array_equal(a.snr_db, b.snr_db)
        c = channel.synth_grid(cfg, seed=6)
        assert not np.array_equal(a.snr_db, c.snr_db)

    @pytest.mark.parametrize(
        ("fading", "field"),
        [
            (FadingModel(taps=0), "taps"),
            (FadingModel(taps=channel.CARRIERS + 1), "taps"),
            (FadingModel(taps=10**5), "taps"),
            (FadingModel(taps=4.5), "taps"),
            (FadingModel(taps=4.0), "taps"),
            (FadingModel(taps=True), "taps"),
            (FadingModel(taps="4"), "taps"),
            (FadingModel(enabled="no"), "enabled"),
            (FadingModel(enabled=1), "enabled"),
            (FadingModel(sigma_scale=math.nan), "sigma_scale"),
            (FadingModel(sigma_scale=-math.inf), "sigma_scale"),
            (FadingModel(sigma_scale="1"), "sigma_scale"),
            (FadingModel(delay_spread="1.5"), "delay_spread"),
            (FadingModel(delay_spread=True), "delay_spread"),
            (FadingModel(delay_spread=math.inf), "delay_spread"),
        ],
    )
    def test_bad_fading_refused_naming_field(self, fading, field):
        with pytest.raises(ValueError, match=f"fading {field} must be"):
            flat_env(fading=fading)

    def test_taps_up_to_carriers_accepted(self):
        for taps in (1, channel.CARRIERS):
            grid = channel.synth_grid(flat_env(fading=FadingModel(taps=taps)), seed=1)
            assert np.all(np.isfinite(grid.snr_db))

    @pytest.mark.parametrize("side", [{"grid_spacing": 5e-324}, {"width": 1e308}, {"height": 1e308}])
    def test_lattice_overflowing_to_inf_refused_at_cap(self, side):
        cap = channel.MAX_GRID_LOCATIONS
        with pytest.raises(ValueError, match=rf"gives .*inf.* locations, above the cap of {cap}"):
            flat_env(**side)

    def test_region_labels(self):
        region = RegionRect(label="office", x_min=0.0, x_max=0.6, y_min=0.0, y_max=2.0)
        cfg = flat_env(regions=(region,))
        grid = channel.synth_grid(cfg, seed=0)
        assert grid.region_labels() == {"office", "open"}

    @pytest.mark.parametrize("fading", [FadingModel(), FadingModel(enabled=False)], ids=["fading", "no_fading"])
    def test_negative_seed_refused_before_drawing(self, fading, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew fading for a negative seed")

        monkeypatch.setattr(channel, "_fading_into", no_draws)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            channel.synth_grid(flat_env(fading=fading), seed=-1)

    def test_default_grid_is_deterministic_and_complete(self):
        grid = channel.default_grid()
        assert grid.x.size > 2000
        assert grid.region_labels() == {"hallway", "eve_west", "bob_office", "eve_east"}
        again = channel.default_grid()
        assert np.array_equal(grid.snr_db, again.snr_db)


def _oracle_cases():
    """(id, environment, seed) for the grid oracle comparison."""
    env = channel.default_environment()
    rng = np.random.default_rng(17)
    cases = []
    # The bundled plan with the transmitter moved along the hallway and new
    # wall losses, reference SNR and fading seed, as the benchmark perturbs it.
    for i in range(3):
        walls = tuple(dataclasses.replace(w, loss_db=float(rng.uniform(9.0, 11.0))) for w in env.walls)
        tx = (float(rng.uniform(1.8, 2.8)), env.tx[1])
        cfg = dataclasses.replace(env, tx=tx, ref_snr_db=float(rng.uniform(31.5, 32.5)), walls=walls)
        cases.append((f"perturbed{i}", cfg, int(rng.integers(2**31))))
    # The transmitter inside the vertical wall and in line with the
    # horizontal one: rays along walls reach the on-segment branches of
    # the crossing test.
    collinear = flat_env(
        width=3.0, height=2.0, tx=(1.0, 1.0), fading=FadingModel(),
        walls=(Wall(1.0, 0.5, 1.0, 1.5, 7.0), Wall(0.0, 1.0, 0.5, 1.0, 3.0)),
    )
    chunks = flat_env(
        width=2.0, height=1.5, grid_spacing=0.1, tx=(0.7, 0.3), walls=env.walls,
        fading=FadingModel(taps=6, delay_spread=2.0, sigma_scale=0.7),
    )
    cases += [
        ("tx_on_wall_endpoint", dataclasses.replace(env, tx=(2.05, 1.0)), 3),
        ("tx_1e-10_off_wall", dataclasses.replace(env, tx=(1.0, 1.0 + 1e-10)), 11),
        ("tx_on_lattice_point", dataclasses.replace(env, tx=(20 * env.grid_spacing, 5 * env.grid_spacing)), 4),
        ("ray_along_wall", collinear, 5),
        ("fading_off", dataclasses.replace(env, fading=FadingModel(enabled=False)), 6),
        ("no_walls_no_regions", dataclasses.replace(env, walls=(), regions=()), 7),
        ("width_zero", dataclasses.replace(env, width=0.0), 8),
        ("spacing_0.07", dataclasses.replace(env, grid_spacing=0.07), 9),
        ("chunk_remainder", chunks, 10),
        # Seeds of two and of four or more 32-bit words: the last runs
        # SeedSequence's loop over entropy beyond its 4-word pool.
        ("seed_two_words", env, 2**40 + 7),
        ("seed_above_2^96", chunks, 2**100 + 12345),
    ]
    # Tap profiles from 1 to 64 taps, each padded to the 64-point FFT, on
    # the plan with a partial chunk.
    cases += [
        (f"taps_{t}", dataclasses.replace(chunks, fading=FadingModel(taps=t, delay_spread=3.0)), 40 + t)
        for t in (1, 3, 5, 8, 9, 64)
    ]
    return cases


@st.composite
def path_loss_envs(draw):
    """A wall-free plan of at most 14 x 14 locations with fading off.  The
    transmitter is inside the plan, on a lattice point or outside it, and
    the reference distance is drawn up to 1.5 times the farthest corner's,
    so that it clamps all, some or none of the locations."""
    spacing = draw(st.floats(0.05, 2.0))
    cfg = flat_env(width=spacing * draw(st.floats(0.0, 13.9)), height=spacing * draw(st.floats(0.0, 13.9)),
                   grid_spacing=spacing, path_loss_exponent=draw(st.floats(1.0, 6.0)))
    nx, ny = cfg.lattice
    where = draw(st.sampled_from(["inside", "lattice", "outside"]))
    if where == "inside":
        tx = (draw(st.floats(0.0, cfg.width)), draw(st.floats(0.0, cfg.height)))
    elif where == "lattice":
        tx = (draw(st.integers(0, nx - 1)) * spacing, draw(st.integers(0, ny - 1)) * spacing)
    else:
        side = draw(st.floats(1e-3, 30.0))
        tx = (draw(st.sampled_from([-side, cfg.width + side])), draw(st.floats(-30.0, cfg.height + 30.0)))
    corners = [(cx, cy) for cx in (0.0, (nx - 1) * spacing) for cy in (0.0, (ny - 1) * spacing)]
    far = max(math.hypot(cx - tx[0], cy - tx[1]) for cx, cy in corners)
    return dataclasses.replace(cfg, tx=tx, ref_distance=max(far, spacing) * draw(st.floats(0.01, 1.5)))


def assert_same_grid(got: ChannelGrid, want: ChannelGrid) -> None:
    """Equal coordinates, label per location and SNR bytes."""
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
    assert region_of(got) == region_of(want)
    assert got.snr_db.tobytes() == want.snr_db.tobytes()


class TestSynthGridMatchesOracle:
    """The array passes give exactly the grid of the per-location loop."""

    def test_default_grid(self):
        got = channel.default_grid()
        want = oracle_synth_grid(channel.default_environment(), channel.DEFAULT_GRID_SEED)
        assert_same_grid(got, want)

    @pytest.mark.parametrize("cfg, seed", [c[1:] for c in _oracle_cases()], ids=[c[0] for c in _oracle_cases()])
    def test_equal(self, cfg, seed):
        got = channel.synth_grid(cfg, seed)
        want = oracle_synth_grid(cfg, seed)
        assert_same_grid(got, want)

    @given(path_loss_envs())
    @settings(max_examples=100, deadline=None)
    def test_drawn_path_loss(self, cfg):
        assert_same_grid(channel.synth_grid(cfg, 0), oracle_synth_grid(cfg, 0))

    def test_cases_cover_a_partial_chunk(self):
        nx, ny = dict((c[0], c[1]) for c in _oracle_cases())["chunk_remainder"].lattice
        assert nx * ny > channel.FADING_CHUNK and nx * ny % channel.FADING_CHUNK

    def test_cases_cover_two_draw_blocks(self):
        nx, ny = dict((c[0], c[1]) for c in _oracle_cases())["spacing_0.07"].lattice
        assert nx * ny > channel.FADING_BLOCK
        assert channel.FADING_BLOCK % channel.FADING_CHUNK == 0


class TestFadingTransform:
    """The fading is |H(f)| in dB, H the 64-point DFT of each row's taps."""

    def test_matches_direct_sum(self):
        # H(f) = sum_j tap_j e^(-2 pi i f j / 64), summed directly, on a
        # partial chunk at every tap count; row i is row i of block 0's draw
        rows, seed = 37, 99
        f = np.arange(CARRIERS)[:, None]
        for t in range(1, CARRIERS + 1):
            fading = FadingModel(taps=t, delay_spread=3.0)
            got = np.zeros((rows, CARRIERS))
            channel._fading_into(fading, seed, got)
            powers = np.exp(-np.arange(t) / fading.delay_spread)
            amp = np.sqrt(powers / powers.sum() / 2)
            phase = np.exp(-2j * np.pi * f * np.arange(t) / CARRIERS)
            for i, z in enumerate(oracle_block_draws(seed, 0, t)[:rows]):
                h = np.abs(((z[:t] + 1j * z[t:]) * amp * phase).sum(axis=1))
                want = 20.0 * np.log10(np.maximum(h, 1e-6))
                assert np.max(np.abs(got[i] - want)) <= 1e-9, (t, i)

    def test_stream_canary(self):
        # Fading in dB at carriers 0, 21, 42 and 63 of the bundled seed at
        # 4 taps, on both sides of the first block boundary.  A change to
        # numpy's standard_normal stream fails here first.
        out = np.zeros((channel.FADING_BLOCK + 1, CARRIERS))
        channel._fading_into(FadingModel(taps=4), 2024, out)
        want = {
            0: [2.266821061776894, 0.7450399281123609, -5.4120107817330885, 1.6613247804305726],
            4095: [7.617788709483339, 3.0377127503678176, 0.2321012842885015, 7.679514299150849],
            4096: [-6.2710648424586495, 2.102441627812159, -3.5043971554732667, -5.163959533652425],
        }
        for row, values in want.items():
            assert out[row, [0, 21, 42, 63]].tolist() == pytest.approx(values, abs=1e-9), row

    def test_fading_peak_memory(self):
        # a (chunk, 64, 64) complex product would take 8 MiB; the first
        # call's one-time allocations are made before tracing
        fading = FadingModel(taps=64)
        channel._fading_into(fading, 2024, np.zeros((1, CARRIERS)))
        out = np.zeros((2360, CARRIERS))
        tracemalloc.start()
        try:
            channel._fading_into(fading, 2024, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak


class TestRegionMap:
    def test_bob_cannot_be_eve(self):
        with pytest.raises(ValueError):
            RegionMap(bob_region="a", eve_regions=frozenset({"a", "b"}))

    def test_validate_against_grid(self):
        grid = channel.synth_grid(flat_env(), seed=0)
        rm = RegionMap(bob_region="nowhere", eve_regions=frozenset({"open"}))
        with pytest.raises(ValueError):
            rm.validate_against(grid)

    def test_dict_round_trip(self):
        rm = RegionMap.from_dict(
            {"bob_region": "b", "eve_regions": ["e1", "e2"], "excluded_regions": ["h"]}
        )
        assert RegionMap.from_dict(rm.to_dict()) == rm

    def test_excluded_regions_filtered(self):
        region = RegionRect(label="east", x_min=0.6, x_max=2.0, y_min=0.0, y_max=2.0)
        grid = channel.synth_grid(flat_env(regions=(region,)), seed=0)
        rm = RegionMap(
            bob_region="open",
            eve_regions=frozenset({"east"}),
            excluded_regions=frozenset({"east"}),
        )
        assert rm.eve_indices(grid).tolist() == []


def _region_id_grids() -> dict[str, ChannelGrid]:
    """Grids on which the region-id lookups are checked against scans."""
    bundled = channel.default_grid()
    solo = cells_grid(
        [(float(i), 0.0, r) for i, r in enumerate(["a", "b", "a", "solo", "b", "a"])], np.zeros((6, CARRIERS))
    )
    # Relabelled in place of the bundled labels, after the bundled grid's
    # location view is built: a stale view would still report the old regions.
    bundled.locations
    names = ["west" if x < 2.0 else r for x, r in zip(bundled.x.tolist(), region_of(bundled))]
    west = cells_grid(zip(bundled.x, bundled.y, names), bundled.snr_db)
    return {
        "bundled": bundled,
        "csv": channel.grid_from_csv(grid_to_csv(bundled)),
        "solo_label": solo,
        "replaced": dataclasses.replace(bundled, region_id=west.region_id, labels=west.labels),
    }


def _scan(grid: ChannelGrid, labels) -> list[int]:
    return [i for i, label in enumerate(region_of(grid)) if label in labels]


class TestRegionIds:
    @pytest.fixture(scope="class")
    def grids(self):
        return _region_id_grids()

    @pytest.mark.parametrize("name", ["bundled", "csv", "solo_label", "replaced"])
    def test_lookups_match_location_scan(self, grids, name):
        grid = grids[name]
        labels = set(region_of(grid))
        assert grid.region_labels() == labels
        assert [loc.region for loc in grid.locations] == region_of(grid)
        for label in sorted(labels) + ["nowhere"]:
            assert grid.region_indices([label]).tolist() == _scan(grid, {label})
        ordered = sorted(labels)
        bob, rest = ordered[0], ordered[1:]
        for eve, excluded in (
            (rest, []),
            (rest, rest[:1]),
            (rest, rest),
            (rest + ["absent"], rest[-1:]),
            (["absent"], []),
        ):
            rm = RegionMap(bob_region=bob, eve_regions=frozenset(eve), excluded_regions=frozenset(excluded))
            assert rm.eve_indices(grid).tolist() == _scan(grid, set(eve) - set(excluded))
            if "absent" in eve:
                with pytest.raises(ValueError, match=r"regions \['absent'\] not present in grid"):
                    rm.validate_against(grid)
            else:
                rm.validate_against(grid)

    def test_replaced_grid_rebuilds_ids(self, grids):
        bundled, replaced = grids["bundled"], grids["replaced"]
        assert "west" in replaced.region_labels() and "west" not in bundled.region_labels()
        assert replaced.region_indices(["west"]).tolist() == _scan(replaced, {"west"}) != []


def _columns(**overrides) -> dict:
    """Columns of a valid three-location grid, with some replaced."""
    cols = dict(
        x=np.array([0.0, 1.0, 2.0]),
        y=np.zeros(3),
        region_id=np.array([0, 1, 0], dtype=np.intp),
        labels=("office", "lobby"),
        snr_db=np.zeros((3, CARRIERS)),
    )
    cols.update(overrides)
    return cols


class TestColumns:
    def test_columns_are_arrays(self):
        grid = ChannelGrid(**_columns(x=[0, 1, 2], region_id=[0, 1, 0], labels=["office", "lobby"]))
        assert grid.x.dtype == np.float64 and grid.y.dtype == np.float64
        assert grid.region_id.dtype == np.intp and grid.labels == ("office", "lobby")
        assert grid.region_indices(["office"]).tolist() == [0, 2]

    @pytest.mark.parametrize(
        "field, value, shape",
        [
            ("x", np.zeros((3, 1)), "(3, 1) does not match (3,)"),
            ("y", np.zeros(4), "(4,) does not match (3,)"),
            ("y", np.zeros((3, 1)), "(3, 1) does not match (3,)"),
            ("region_id", np.zeros(2, dtype=np.intp), "(2,) does not match (3,)"),
            ("snr_db", np.zeros((2, CARRIERS)), "(2, 64) does not match (3, 64)"),
            ("snr_db", np.zeros((3, 32)), "(3, 32) does not match (3, 64)"),
        ],
    )
    def test_mismatched_column_lengths(self, field, value, shape):
        with pytest.raises(ValueError, match=rf"^{field} shape {re.escape(shape)}$"):
            ChannelGrid(**_columns(**{field: value}))

    @pytest.mark.parametrize("ids", [[0, 2, 1], [-1, 1, 0], [1, 1, 1]], ids=["above", "negative", "label_unused"])
    def test_region_id_must_index_every_label(self, ids):
        with pytest.raises(ValueError, match=r"^region_id must take each value in \[0, 2\), one per label"):
            ChannelGrid(**_columns(region_id=np.array(ids)))

    def test_labels_distinct(self):
        with pytest.raises(ValueError, match=r"^labels must be distinct, got \('office', 'office'\)$"):
            ChannelGrid(**_columns(labels=("office", "office")))

    @pytest.mark.parametrize("field", ["x", "y"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate(self, field, value):
        column = np.zeros(3)
        column[1] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            ChannelGrid(**_columns(**{field: column}))

    def test_empty_grid(self):
        grid = ChannelGrid(x=[], y=[], region_id=[], labels=(), snr_db=np.zeros((0, CARRIERS)))
        assert grid.region_labels() == set() and grid.region_indices(["a"]).size == 0

    def test_location_view(self):
        grid = ChannelGrid(**_columns())
        view = grid.locations
        assert [(loc.x, loc.y, loc.region) for loc in view] == [
            (0.0, 0.0, "office"), (1.0, 0.0, "lobby"), (2.0, 0.0, "office")
        ]
        assert grid.locations is view
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.locations = ()

    def test_paths_build_no_location(self, no_location_objects):
        cfg = flat_env(regions=(RegionRect("east", 0.6, 2.0, 0.0, 2.0),), fading=FadingModel())
        grid = channel.synth_grid(cfg, seed=1)
        text = grid_to_csv(grid)
        back = channel.grid_from_csv(text)
        assert grid_to_csv(back) == text and region_of(back) == region_of(grid)
        values = channel.capacity_sum(grid.snr_db)
        assert maps.heatmap_csv(grid, values).count("\n") == grid.x.size + 1
        assert maps.heatmap_svg(grid, values).count("<rect") == grid.x.size
        with pytest.raises(AssertionError, match="Location was built"):
            grid.locations


class TestSynthRegions:
    def test_shared_label_is_one_region(self):
        regions = (
            RegionRect("office", 0.0, 0.6, 0.0, 0.6),
            RegionRect("hall", 0.0, 0.6, 0.0, 2.0),
            RegionRect("office", 0.6, 2.0, 0.6, 2.0),
        )
        grid = channel.synth_grid(flat_env(regions=regions), seed=0)
        assert sorted(grid.labels) == ["hall", "office", "open"]
        # x-fastest on the 3 x 3 lattice of spacing 0.5
        assert region_of(grid) == ["office", "office", "open"] * 2 + ["hall", "hall", "office"]
        assert grid.region_indices(["office"]).tolist() == [0, 1, 3, 4, 8]

    def test_regions_without_locations_dropped(self):
        regions = (RegionRect("void", 5.0, 6.0, 5.0, 6.0), RegionRect("all", -1.0, 2.0, -1.0, 2.0))
        grid = channel.synth_grid(flat_env(regions=regions), seed=0)
        assert grid.labels == ("all",) and grid.region_labels() == {"all"}
        rm = RegionMap(bob_region="all", eve_regions=frozenset({"open"}))
        with pytest.raises(ValueError, match=r"regions \['open'\] not present in grid \(has \['all'\]\)"):
            rm.validate_against(grid)


class TestFileFormats:
    def test_grid_csv_round_trip(self):
        grid = channel.synth_grid(flat_env(fading=FadingModel(enabled=True)), seed=3)
        text = grid_to_csv(grid)
        back = channel.grid_from_csv(text)
        assert region_of(back) == region_of(grid)
        # values survive at the 6-significant-digit precision of the format
        assert np.allclose(back.snr_db, grid.snr_db, rtol=1e-5, atol=1e-4)

    def test_grid_csv_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            channel.grid_from_csv("a,b,c\n")

    @pytest.mark.parametrize("column", [0, 1, 3, 66], ids=["x", "y", "snr_00", "snr_63"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_grid_csv_non_finite_value_reports_line(self, column, value):
        lines = grid_to_csv(channel.synth_grid(flat_env(), seed=0)).splitlines()
        for ln in (4, 6):
            parts = lines[ln - 1].split(",")
            parts[column] = value
            lines[ln - 1] = ",".join(parts)
        with pytest.raises(ValueError, match="^line 4: x, y and the SNRs must be finite$"):
            channel.grid_from_csv("\n".join(lines))

    def test_grid_csv_without_rows(self):
        header = grid_to_csv(channel.synth_grid(flat_env(), seed=0)).splitlines()[0]
        with pytest.raises(ValueError, match="^grid file has no locations"):
            channel.grid_from_csv(header + "\n")

    def test_grid_csv_bad_row_reports_line(self):
        grid = channel.synth_grid(flat_env(), seed=0)
        lines = grid_to_csv(grid).splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",oops"
        with pytest.raises(ValueError, match="line 3"):
            channel.grid_from_csv("\n".join(lines))

    def test_capture_io_round_trip(self, tmp_path):
        cap = synth_capture(20.0, seed=4)
        iq_path = tmp_path / "cap.iq"
        sidecar = tmp_path / "cap.json"
        save_capture(cap, iq_path, sidecar)
        meta = json.loads(sidecar.read_text())
        assert meta["carriers"] == 64 and meta["center_freq_hz"] == 1250e6
        back = channel.load_capture(iq_path, sidecar)
        assert back.periods == cap.periods
        assert np.allclose(back.iq, cap.iq, atol=1e-5)

    def test_capture_rejects_other_carrier_counts(self, tmp_path):
        iq_path, sidecar = tmp_path / "cap.iq", tmp_path / "cap.json"
        save_capture(synth_capture(20.0, seed=4), iq_path, sidecar)
        sidecar.write_text(json.dumps({"carriers": 32}))
        with pytest.raises(ValueError, match="32 carriers; captures have 64"):
            channel.load_capture(iq_path, sidecar)

    @pytest.mark.parametrize("rate", [0, -20e6, True, math.inf, "20e6"])
    def test_capture_rejects_nonpositive_sample_rate(self, tmp_path, rate):
        iq_path, sidecar = tmp_path / "cap.iq", tmp_path / "cap.json"
        save_capture(synth_capture(20.0, seed=4), iq_path, sidecar, sample_rate_hz=rate)
        with pytest.raises(ValueError, match="sample_rate_hz must be positive"):
            channel.load_capture(iq_path, sidecar)

    def test_capture_odd_sample_count(self, tmp_path):
        bad = tmp_path / "bad.iq"
        np.zeros(33, dtype="<f4").tofile(bad)
        sidecar = tmp_path / "bad.json"
        sidecar.write_text("{}")
        with pytest.raises(ValueError, match="odd sample count"):
            channel.load_capture(bad, sidecar)

    def test_environment_json_round_trip(self, tmp_path):
        cfg = channel.default_environment()
        assert cfg.ref_snr_db == 32.0
        assert cfg.region_map is not None
        assert cfg.region_map.bob_region == "bob_office"

    def test_heatmap_csv_and_svg(self):
        grid = channel.synth_grid(flat_env(), seed=0)
        vals = [channel.capacity_sum(row) for row in grid.snr_db]
        csv = maps.heatmap_csv(grid, vals)
        assert csv.splitlines()[0] == "x,y,value"
        assert len(csv.splitlines()) == grid.x.size + 1
        svg = maps.heatmap_svg(grid, vals)
        assert svg.startswith("<svg") and svg.count("<rect") == grid.x.size
        with pytest.raises(ValueError):
            maps.heatmap_csv(grid, vals[:-1])

    @pytest.mark.parametrize("render", [maps.heatmap_csv, maps.heatmap_svg], ids=["csv", "svg"])
    @pytest.mark.parametrize("shape", [(6,), (10,), (9, 1), ()], ids=["6", "10", "9x1", "scalar"])
    def test_heatmap_needs_one_value_per_location(self, render, shape):
        """A 9-location grid refuses 6, 10, a (9, 1) column or a scalar,
        where the SVG's zip would draw as many cells as the shorter input."""
        grid = cells_grid([(float(i % 3), float(i // 3), "room") for i in range(9)], np.zeros((9, 64)))
        with pytest.raises(ValueError, match=re.escape(f"need one value per location, got {shape}")):
            render(grid, np.ones(shape))
