"""Command-line interface tests via click's test runner."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from wiretapkit import channel, cli, codes

from conftest import cells_grid, grid_to_csv, save_capture, synth_capture


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def tiny_grid_file(tmp_path):
    """A two-location grid CSV plus a matching regions JSON."""
    bob = np.full(64, 30.0)
    eve = np.full(64, 22.0)
    grid = cells_grid([(0.0, 0.0, "office"), (1.0, 0.0, "lobby")], [bob, eve])
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text(grid_to_csv(grid))
    regions_path = tmp_path / "regions.json"
    regions_path.write_text(json.dumps({"bob_region": "office", "eve_regions": ["lobby"]}))
    return grid_path, regions_path


def assert_one_line_error(res):
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception
    assert "Traceback" not in res.output
    assert res.output.startswith("Error: ") and res.output.count("\n") == 1, res.output


def manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestDemo:
    def test_full_table_and_round_trip(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["demo", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        for word in ("0000", "1110", "0111", "1001", "1101", "1011", "0011", "1111"):
            assert word in res.output
        assert "decode round-trip: ok" in res.output
        assert (tmp_path / "demo.txt").exists()
        assert manifest(tmp_path)["command"] == "demo"


class TestEqmatrix:
    def test_published_matrix(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["eqmatrix", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "eqmatrix.csv").read_text().strip().splitlines()
        assert lines[1] == "2,1,4,5,0,0"
        assert lines[2] == "1,0,0,1,4,0"
        assert lines[3] == "0,0,0,0,0,1"

    def test_rm_code_spec(self, runner, tmp_path):
        res = runner.invoke(
            cli.main,
            ["eqmatrix", "--code", "rm:1,3", "--orientation", "Cperp", "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output

    def test_bad_spec_fails(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["eqmatrix", "--code", "bogus", "--out-dir", str(tmp_path)])
        assert res.exit_code != 0


@pytest.mark.parametrize(
    "args",
    [
        ["eqmatrix", "--code", "rm:9,3"],
        ["ghw", "--code", "rm:4,3"],
        ["simulate", "--code", "rm:9,3"],
        ["ghw", "--code", "rm:1,40"],
    ],
)
def test_out_of_range_rm_spec_is_one_line_error(runner, tmp_path, monkeypatch, args):
    def build_row(*_):
        raise AssertionError("a Reed-Muller generator row was built")

    monkeypatch.setattr(codes, "_monomial_rows", build_row)
    res = runner.invoke(cli.main, [*args, "--out-dir", str(tmp_path)])
    assert_one_line_error(res)
    assert res.output.startswith("Error: rm:")


class TestOneLineErrors:
    """Inputs the library rejects end in one ``Error:`` line, exit code 1."""

    def test_secrecy_unknown_bob_region(self, runner, tmp_path, tiny_grid_file):
        grid_path, _ = tiny_grid_file
        regions_path = tmp_path / "nowhere.json"
        regions_path.write_text(json.dumps({"bob_region": "nowhere", "eve_regions": ["lobby"]}))
        res = runner.invoke(
            cli.main,
            ["secrecy", "--grid", str(grid_path), "--regions", str(regions_path),
             "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)
        assert "'nowhere'" in res.output

    @pytest.mark.parametrize("command", ["heatmap", "simulate"])
    def test_nan_tau(self, runner, tmp_path, tiny_grid_file, command):
        grid_path, regions_path = tiny_grid_file
        args = ["--grid", str(grid_path), "--tau", "nan", "--out-dir", str(tmp_path)]
        if command == "simulate":
            args += ["--regions", str(regions_path), "--trials", "5"]
        res = runner.invoke(cli.main, [command, *args])
        assert_one_line_error(res)
        assert "finite" in res.output
        assert not (tmp_path / "reliable_map.csv").exists()

    def test_synth_config_missing_key(self, runner, tmp_path):
        config = tmp_path / "env.json"
        config.write_text(json.dumps({"width_m": 6}))
        res = runner.invoke(
            cli.main, ["synth", "--config", str(config), "--out-dir", str(tmp_path)]
        )
        assert_one_line_error(res)
        assert res.output == f"Error: {config}: missing key 'height_m'\n"

    def test_synth_grid_above_location_cap(self, runner, tmp_path):
        env = json.loads((Path(channel.__file__).parent / "data" / "default_env.json").read_text())
        env["grid_spacing_m"] = 0.001  # 6,001 x 4,001 locations
        config = tmp_path / "env.json"
        config.write_text(json.dumps(env))
        start = time.perf_counter()
        res = runner.invoke(cli.main, ["synth", "--config", str(config), "--out-dir", str(tmp_path)])
        assert time.perf_counter() - start < 1.0
        assert_one_line_error(res)
        assert f"cap of {channel.MAX_GRID_LOCATIONS}" in res.output
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize(("key", "value"), [("grid_spacing_m", 5e-324), ("width_m", 1e308), ("height_m", 1e308)])
    def test_synth_lattice_overflowing_to_inf_refused(self, runner, tmp_path, key, value):
        env = json.loads((Path(channel.__file__).parent / "data" / "default_env.json").read_text())
        env[key] = value
        config = tmp_path / "env.json"
        config.write_text(json.dumps(env))
        res = runner.invoke(cli.main, ["synth", "--config", str(config), "--out-dir", str(tmp_path)])
        assert_one_line_error(res)
        assert f"cap of {channel.MAX_GRID_LOCATIONS}" in res.output

    def test_synth_negative_seed(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["synth", "--seed", "-1", "--out-dir", str(tmp_path)])
        assert_one_line_error(res)
        assert res.output == "Error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "grid.csv").exists()

    def test_simulate_negative_seed(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["simulate", "--seed", "-1", "--out-dir", str(tmp_path)])
        assert_one_line_error(res)
        assert res.output == "Error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "simulate.json").exists()

    @pytest.mark.parametrize(
        ("path", "value", "field"),
        [
            (("ref_distance_m",), 0, "ref_distance"),
            (("ref_distance_m",), -1.0, "ref_distance"),
            (("ref_distance_m",), math.inf, "ref_distance"),
            (("walls", 0, "x1"), math.nan, "walls[0].x1"),
            (("walls", 3, "y2"), math.inf, "walls[3].y2"),
            (("walls", 1, "loss_db"), math.nan, "walls[1].loss_db"),
            (("tx", "x"), math.nan, "tx.x"),
            (("tx", "y"), -math.inf, "tx.y"),
            (("ref_snr_db",), math.nan, "ref_snr_db"),
            (("tx_power_offset_db",), math.inf, "tx_power_offset_db"),
            (("path_loss_exponent",), math.nan, "path_loss_exponent"),
            (("fading", "taps"), 0, "taps"),
            (("fading", "delay_spread"), 0.0, "delay_spread"),
            (("fading", "taps"), 4.5, "taps"),
            (("fading", "taps"), True, "taps"),
            (("fading", "enabled"), "no", "enabled"),
            (("fading", "sigma_scale"), math.nan, "sigma_scale"),
            (("tx", "y"), "0", "tx.y"),
            (("tx",), [0, 1], "tx"),
            (("width_m",), "6", "width_m"),
            (("width_m",), True, "width_m"),
            (("height_m",), False, "height_m"),
            (("grid_spacing_m",), "0.1", "grid_spacing_m"),
            (("ref_distance_m",), "1", "ref_distance_m"),
            (("path_loss_exponent",), True, "path_loss_exponent"),
            (("regions", 0, "x_min"), "0", "regions[0].x_min"),
            (("regions", 2, "y_max"), math.inf, "regions[2].y_max"),
            (("regions", 1, "label"), 3, "regions[1].label"),
            (("walls", 0), [0, 1, 2, 3, 4], "walls[0]"),
            (("walls",), {"a": 1}, "walls"),
            (("regions",), "hall", "regions"),
            (("regions", 0), "hall", "regions[0]"),
            (("fading",), [1], "fading"),
            (("region_map",), ["x"], "region_map"),
            (("regions", 0, "label"), "bob,office", "regions[0].label"),
            (("fading", "delay_spread"), True, "delay_spread"),
            (("fading", "delay_spread"), math.inf, "delay_spread"),
        ],
    )
    def test_synth_config_bad_value_names_field(self, runner, tmp_path, path, value, field):
        env = json.loads((Path(channel.__file__).parent / "data" / "default_env.json").read_text())
        target = env
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        config = tmp_path / "env.json"
        config.write_text(json.dumps(env))
        res = runner.invoke(cli.main, ["synth", "--config", str(config), "--out-dir", str(tmp_path)])
        assert_one_line_error(res)
        assert field in res.output
        assert not (tmp_path / "grid.csv").exists()

    def test_sound_32_carrier_sidecar(self, runner, tmp_path):
        iq_path, sidecar = tmp_path / "c.iq", tmp_path / "c.json"
        save_capture(synth_capture(25.0, seed=3), iq_path, sidecar)
        sidecar.write_text(json.dumps({"carriers": 32}))
        res = runner.invoke(
            cli.main,
            ["sound", str(iq_path), "--sidecar", str(sidecar), "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)
        assert "64" in res.output

    @pytest.mark.parametrize("region", ["bob,office", "bob\noffice"])
    def test_sound_region_breaking_the_row(self, runner, tmp_path, region):
        iq_path, sidecar = tmp_path / "c.iq", tmp_path / "c.json"
        save_capture(synth_capture(25.0, seed=3), iq_path, sidecar)
        res = runner.invoke(
            cli.main,
            ["sound", str(iq_path), "--sidecar", str(sidecar), "--region", region, "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)
        assert "--region must be a string with no comma or line break" in res.output
        assert not (tmp_path / "snr_row.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--x", "--y"])
    def test_sound_non_finite_coordinate(self, runner, tmp_path, option, value):
        iq_path, sidecar = tmp_path / "c.iq", tmp_path / "c.json"
        save_capture(synth_capture(25.0, seed=3), iq_path, sidecar)
        res = runner.invoke(
            cli.main,
            ["sound", str(iq_path), "--sidecar", str(sidecar), option, value, "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)
        assert res.output == f"Error: {option[2:]} must be finite\n"
        assert not (tmp_path / "snr_row.csv").exists()

    @pytest.mark.parametrize("periods", [0, -3, 2.5, True, "32"])
    def test_sound_bad_periods(self, runner, tmp_path, periods):
        iq_path, sidecar = tmp_path / "c.iq", tmp_path / "c.json"
        save_capture(synth_capture(25.0, seed=3), iq_path, sidecar)
        sidecar.write_text(json.dumps({"periods": periods}))
        res = runner.invoke(
            cli.main,
            ["sound", str(iq_path), "--sidecar", str(sidecar), "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)
        assert "periods must be an integer >= 1" in res.output
        assert not (tmp_path / "snr_row.csv").exists()

    def test_sweep_max_m_above_bound(self, runner, tmp_path, monkeypatch):
        def build(*_):
            raise AssertionError("a Reed-Muller code was built")

        monkeypatch.setattr(codes, "reed_muller", build)
        res = runner.invoke(cli.main, ["sweep", "--max-m", "40", "--out-dir", str(tmp_path)])
        assert_one_line_error(res)
        assert f"bound {codes.RM_MAX_DEGREE}" in res.output

    def test_eqmatrix_above_subset_rank_cap(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["eqmatrix", "--code", "rm:2,5", "--out-dir", str(tmp_path)])
        assert_one_line_error(res)
        assert "subset-rank cap" in res.output


class TestGhw:
    def test_rm14(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["ghw", "--code", "rm:1,4", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "ghw.json").read_text())
        assert payload["weights"] == [8, 12, 14, 15, 16]
        assert payload["source"] == "monomial"

    def test_table1(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["ghw", "--code", "table1", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "ghw.json").read_text())
        assert payload == {"code": "demo(4,2)", "weights": [2, 4], "source": "exact"}

    def test_large_code_uses_monomial_path(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["ghw", "--code", "rm:1,5", "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "ghw.json").read_text())
        assert payload["source"] == "monomial"
        assert payload["weights"] == [16, 24, 28, 30, 31, 32]


class TestSynth:
    def test_grid_csv_survives_a_round_trip(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["synth", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "grid.csv").read_text()
        assert grid_to_csv(channel.grid_from_csv(text)) == text

    def test_deterministic_outputs(self, runner, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            res = runner.invoke(cli.main, ["synth", "--seed", "7", "--out-dir", str(out)])
            assert res.exit_code == 0, res.output
        assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()
        m = manifest(out1)
        assert m["options"]["seed"] == 7


class TestSound:
    def test_round_trip_snr(self, runner, tmp_path):
        cap = synth_capture(25.0, seed=3)
        iq_path, sidecar = tmp_path / "c.iq", tmp_path / "c.json"
        save_capture(cap, iq_path, sidecar)
        res = runner.invoke(
            cli.main,
            ["sound", str(iq_path), "--sidecar", str(sidecar), "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        row = channel.grid_from_csv((tmp_path / "snr_row.csv").read_text())
        assert np.all(np.abs(row.snr_db[0] - 25.0) < 1.0)
        assert set(manifest(tmp_path)["inputs"]) == {str(iq_path), str(sidecar)}


class TestMaps:
    def test_heatmap_on_custom_grid(self, runner, tmp_path, tiny_grid_file):
        grid_path, _ = tiny_grid_file
        res = runner.invoke(
            cli.main,
            ["heatmap", "--grid", str(grid_path), "--tau", "25", "--svg", "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "reliable_map.csv").read_text().strip().splitlines()
        assert lines[1] == "0,0,64"  # bob: all 64 carriers above 25 dB
        assert lines[2] == "1,0,0"
        assert (tmp_path / "reliable_map.svg").exists()

    def test_capacity_map(self, runner, tmp_path, tiny_grid_file):
        grid_path, _ = tiny_grid_file
        res = runner.invoke(
            cli.main, ["capacity", "--grid", str(grid_path), "--out-dir", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        assert (tmp_path / "capacity_map.csv").exists()

    def test_secrecy_map_needs_regions_for_custom_grid(self, runner, tmp_path, tiny_grid_file):
        grid_path, regions_path = tiny_grid_file
        res = runner.invoke(
            cli.main, ["secrecy", "--grid", str(grid_path), "--out-dir", str(tmp_path)]
        )
        assert res.exit_code != 0
        res = runner.invoke(
            cli.main,
            [
                "secrecy", "--grid", str(grid_path), "--regions", str(regions_path),
                "--out-dir", str(tmp_path),
            ],
        )
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "secrecy_map.csv").read_text().strip().splitlines()
        assert lines[1] == "0,0,0"  # against himself, zero advantage

    def test_bad_grid_file(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        res = runner.invoke(cli.main, ["heatmap", "--grid", str(bad), "--out-dir", str(tmp_path)])
        assert res.exit_code != 0

    @pytest.mark.parametrize("command", ["heatmap", "capacity", "secrecy"])
    @pytest.mark.parametrize("custom", [False, True], ids=["builtin", "custom"])
    def test_map_paths_build_no_location(self, runner, tmp_path, tiny_grid_file, no_location_objects, command, custom):
        grid_path, regions_path = tiny_grid_file
        args = [command, "--svg", "--out-dir", str(tmp_path)]
        if custom:
            args += ["--grid", str(grid_path)] + (["--regions", str(regions_path)] if command == "secrecy" else [])
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 0, res.output
        name = "reliable" if command == "heatmap" else command
        rows = (tmp_path / f"{name}_map.csv").read_text().count("\n") - 1
        assert rows == (2 if custom else channel.default_grid().x.size)
        assert (tmp_path / f"{name}_map.svg").read_text().count("<rect") == rows

    @pytest.mark.parametrize("column, value", [(0, "nan"), (0, "inf"), (1, "-inf")])
    @pytest.mark.parametrize("svg", [False, True])
    def test_non_finite_coordinate_in_grid_file(self, runner, tmp_path, tiny_grid_file, column, value, svg):
        grid_path, _ = tiny_grid_file
        lines = grid_path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[column] = value
        lines[2] = ",".join(parts)
        grid_path.write_text("\n".join(lines) + "\n")
        res = runner.invoke(
            cli.main, ["capacity", "--grid", str(grid_path), "--out-dir", str(tmp_path)] + ["--svg"] * svg
        )
        assert_one_line_error(res)
        assert res.output == f"Error: {grid_path}: line 3: x, y and the SNRs must be finite\n"
        assert not (tmp_path / "capacity_map.csv").exists() and not (tmp_path / "capacity_map.svg").exists()


class TestSweepAndSimulate:
    def test_sweep_custom_grid(self, runner, tmp_path, tiny_grid_file):
        grid_path, regions_path = tiny_grid_file
        res = runner.invoke(
            cli.main,
            [
                "sweep", "--grid", str(grid_path), "--regions", str(regions_path),
                "--max-m", "2", "--taus", "23,25", "--out-dir", str(tmp_path),
            ],
        )
        assert res.exit_code == 0, res.output
        frontier = (tmp_path / "frontier.csv").read_text().strip().splitlines()
        assert len(frontier) == 1 + 2 * 2  # 2 non-degenerate codes at m<=2, 2 thresholds
        best = json.loads((tmp_path / "best.json").read_text())
        # eve at 22 dB reads nothing at tau >= 23, so the rate-3/4 code wins
        assert best["rate"] == 0.75 and best["min_equivocation_pct"] == 100.0

    def test_sweep_reports_no_secure_point(self, runner, tmp_path):
        bob = np.full(64, 30.0)
        grid = cells_grid([(0.0, 0.0, "office"), (1.0, 0.0, "lobby")], [bob, bob])
        grid_path = tmp_path / "grid.csv"
        grid_path.write_text(grid_to_csv(grid))
        regions_path = tmp_path / "regions.json"
        regions_path.write_text(json.dumps({"bob_region": "office", "eve_regions": ["lobby"]}))
        res = runner.invoke(
            cli.main,
            [
                "sweep", "--grid", str(grid_path), "--regions", str(regions_path),
                "--max-m", "2", "--taus", "25", "--out-dir", str(tmp_path),
            ],
        )
        assert res.exit_code == 0, res.output
        assert "no secure operating point" in res.output
        assert json.loads((tmp_path / "best.json").read_text()) == {
            "no_secure_operating_point": True
        }

    def test_simulate(self, runner, tmp_path, tiny_grid_file):
        grid_path, regions_path = tiny_grid_file
        res = runner.invoke(
            cli.main,
            [
                "simulate", "--grid", str(grid_path), "--regions", str(regions_path),
                "--tau", "25", "--trials", "20", "--seed", "3", "--out-dir", str(tmp_path),
            ],
        )
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "simulate.json").read_text())
        assert report["bob_error_rate"] == 0.0
        assert report["trials"] == 20

    def test_simulate_sweep_best_point(self, runner, tmp_path):
        # RM(4,5)|Cperp at 29 dB, the bundled sweep's best point (n = 32)
        res = runner.invoke(
            cli.main,
            ["simulate", "--code", "rm:4,5", "--orientation", "Cperp", "--tau", "29",
             "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "simulate.json").read_text())
        assert report["bob_error_rate"] == 0.0
        assert report["eve_leakage_bits_max"] <= report["worst_case_bound"]

    def test_table1_honours_orientation(self, runner, tmp_path):
        # Eve reads bits 1 and 2: parallel columns of the table1 base code
        # C (one bit leaks), independent columns of its dual (none leaks)
        eve = np.full(64, 10.0)
        eve[1:3] = 30.0
        grid = cells_grid([(0.0, 0.0, "office"), (1.0, 0.0, "lobby")], [np.full(64, 30.0), eve])
        grid_path = tmp_path / "grid.csv"
        grid_path.write_text(grid_to_csv(grid))
        regions_path = tmp_path / "regions.json"
        regions_path.write_text(json.dumps({"bob_region": "office", "eve_regions": ["lobby"]}))
        leaks = {}
        for orientation in ("C", "Cperp"):
            res = runner.invoke(
                cli.main,
                ["simulate", "--grid", str(grid_path), "--regions", str(regions_path),
                 "--code", "table1", "--orientation", orientation, "--tau", "25",
                 "--trials", "10", "--out-dir", str(tmp_path / orientation)],
            )
            assert res.exit_code == 0, res.output
            leaks[orientation] = json.loads(res.output)["eve_leakage_bits_max"]
        assert leaks == {"C": 1.0, "Cperp": 0.0}

    def test_bad_taus(self, runner, tmp_path, tiny_grid_file):
        grid_path, regions_path = tiny_grid_file
        res = runner.invoke(
            cli.main,
            [
                "sweep", "--grid", str(grid_path), "--regions", str(regions_path),
                "--taus", "abc", "--out-dir", str(tmp_path),
            ],
        )
        assert res.exit_code != 0


class TestSweepInputErrors:
    @pytest.mark.parametrize(
        "regions",
        [
            {"bob_region": "bob_office", "eve_regions": ["nowhere"]},
            {"bob_region": "bob_office", "eve_regions": ["eve_west"], "excluded_regions": ["eve_west"]},
        ],
        ids=["unknown", "all_excluded"],
    )
    def test_eve_regions_without_locations(self, runner, tmp_path, regions):
        regions_path = tmp_path / "regions.json"
        regions_path.write_text(json.dumps(regions))
        res = runner.invoke(
            cli.main,
            ["sweep", "--regions", str(regions_path), "--max-m", "2", "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)

    @pytest.mark.parametrize("key", ["eve_regions", "excluded_regions"])
    def test_region_list_given_as_string(self, runner, tmp_path, key):
        regions = {"bob_region": "bob_office", "eve_regions": ["eve_west"], key: "eve_west"}
        regions_path = tmp_path / "regions.json"
        regions_path.write_text(json.dumps(regions))
        res = runner.invoke(
            cli.main,
            ["sweep", "--regions", str(regions_path), "--max-m", "2", "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)
        assert res.output == (
            f"Error: {regions_path}: {key} must be a list of region labels, got the string 'eve_west'\n"
        )
        assert not (tmp_path / "frontier.csv").exists()

    @pytest.mark.parametrize(
        "regions, message",
        [
            ({"bob_region": "nope", "eve_regions": [1]}, "eve_regions[0] must be a string"),
            ({"bob_region": "office", "eve_regions": ["lobby"], "excluded_regions": [None]},
             "excluded_regions[0] must be a string"),
            ({"bob_region": "office", "eve_regions": {"lobby": 1}},
             "eve_regions must be a list of region labels, got {'lobby': 1}"),
            ({"bob_region": 3, "eve_regions": ["lobby"]}, "bob_region must be a string"),
        ],
        ids=["int_eve_label", "null_excluded_label", "eve_regions_object", "int_bob_region"],
    )
    def test_malformed_region_labels(self, runner, tmp_path, tiny_grid_file, regions, message):
        grid_path, regions_path = tiny_grid_file
        regions_path.write_text(json.dumps(regions))
        res = runner.invoke(
            cli.main,
            ["sweep", "--grid", str(grid_path), "--regions", str(regions_path), "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)
        assert res.output.startswith(f"Error: {regions_path}: {message}"), res.output

    def test_grid_file_without_locations(self, runner, tmp_path, tiny_grid_file):
        grid_path, regions_path = tiny_grid_file
        header = tmp_path / "header.csv"
        header.write_text(grid_path.read_text().splitlines()[0] + "\n")
        res = runner.invoke(
            cli.main,
            ["sweep", "--grid", str(header), "--regions", str(regions_path), "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)
        assert res.output == f"Error: {header}: grid file has no locations; expected rows after the header\n"

    def test_empty_grid_file(self, runner, tmp_path, tiny_grid_file):
        _, regions_path = tiny_grid_file
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        res = runner.invoke(
            cli.main,
            ["sweep", "--grid", str(empty), "--regions", str(regions_path), "--out-dir", str(tmp_path)],
        )
        assert_one_line_error(res)
        assert "empty grid file" in res.output

    @pytest.mark.parametrize("taus", ["nan", "25,inf", "-inf"])
    def test_non_finite_taus(self, runner, tmp_path, tiny_grid_file, taus):
        grid_path, regions_path = tiny_grid_file
        res = runner.invoke(
            cli.main,
            [
                "sweep", "--grid", str(grid_path), "--regions", str(regions_path),
                "--taus", taus, "--out-dir", str(tmp_path),
            ],
        )
        assert_one_line_error(res)
        assert "finite" in res.output
        assert not (tmp_path / "frontier.csv").exists()

    @pytest.mark.parametrize("max_m", ["-1", "0", "1"])
    def test_max_m_below_two(self, runner, tmp_path, max_m):
        res = runner.invoke(cli.main, ["sweep", "--max-m", max_m, "--out-dir", str(tmp_path)])
        assert_one_line_error(res)
        assert res.output.startswith(f"Error: max_m must be at least 2, got {max_m}: ")
        assert "degenerate" in res.output
        assert not (tmp_path / "frontier.csv").exists()

    def test_repeated_tau(self, runner, tmp_path, tiny_grid_file):
        grid_path, regions_path = tiny_grid_file
        res = runner.invoke(
            cli.main,
            [
                "sweep", "--grid", str(grid_path), "--regions", str(regions_path),
                "--taus", "25,26,25.0", "--out-dir", str(tmp_path),
            ],
        )
        assert_one_line_error(res)
        assert res.output == "Error: threshold 25 dB listed twice\n"
        assert not (tmp_path / "frontier.csv").exists()


class TestManifest:
    def test_sorted_keys_and_no_timestamps(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["demo", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0
        text = (tmp_path / "manifest.json").read_text()
        m = json.loads(text)
        assert list(m) == sorted(m)
        assert "time" not in text.lower()
        assert m["version"]
