"""Fuzz the command line: no argument mix may end in a traceback.

Hypothesis draws a command and its arguments from good and bad values:
code specs, thresholds (nan, inf, garbage), degree bounds, trial counts,
and missing, empty or malformed grid, regions, config and capture files,
among them configs whose points per side overflow to inf (a grid spacing
of 5e-324, a width of 1e308).
Every run must exit 0 (success), 1 (one-line ``Error:``) or 2 (usage
error) within the per-example deadline.  Environment configs with one
drawn value out of range (ref_distance_m <= 0, a non-finite transmitter
or wall coordinate, fading taps that are not an integer in [1, 64]) must
end in an ``Error:`` that names it.
"""

import json
import math
from datetime import timedelta

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wiretapkit import channel, cli, codes

from conftest import cells_grid, grid_to_csv, save_capture, synth_capture

GOOD_GRID = "grid.csv"
MISSING = "missing.json"

# name -> file content; the first entry of each table is well formed
GRID_FILES = {
    GOOD_GRID: None,  # written by the fixture
    "empty.csv": "",
    "garbage.csv": "nope\n",
    "header_only.csv": "x,y,region," + ",".join(f"snr_{i:02d}" for i in range(64)) + "\n",
    "short_row.csv": "x,y,region," + ",".join(f"snr_{i:02d}" for i in range(64)) + "\n0,0,a,1\n",
    "nan_row.csv": "x,y,region," + ",".join(f"snr_{i:02d}" for i in range(64)) + "\n0,0,a"
    + ",nan" * 64 + "\n",
}
REGIONS_FILES = {
    "regions.json": {"bob_region": "office", "eve_regions": ["lobby"]},
    "bob_nowhere.json": {"bob_region": "nowhere", "eve_regions": ["lobby"]},
    "eve_nowhere.json": {"bob_region": "office", "eve_regions": ["nowhere"]},
    "all_excluded.json": {"bob_region": "office", "eve_regions": ["lobby"],
                          "excluded_regions": ["lobby"]},
    "bob_is_eve.json": {"bob_region": "office", "eve_regions": ["office"]},
    "no_bob.json": {"eve_regions": ["lobby"]},
    "list_bob.json": {"bob_region": ["office"], "eve_regions": ["lobby"]},
    "eve_string.json": {"bob_region": "office", "eve_regions": "lobby"},
    "array.json": [],
    "null.json": "null",
    "empty.json": "",
    "truncated.json": "{",
}
CONFIG_FILES = {
    "env.json": {"width_m": 0.5, "height_m": 0.3, "tx": {"x": 0.1, "y": 0.1}, "ref_snr_db": 30},
    "width_only.json": {"width_m": 6},
    "width_text.json": {"width_m": "six", "height_m": 4, "tx": {"x": 0, "y": 0}, "ref_snr_db": 30},
    "width_inf.json": '{"width_m": Infinity, "height_m": 4, "tx": {"x": 0, "y": 0}, "ref_snr_db": 30}',
    "width_nan.json": '{"width_m": NaN, "height_m": 4, "tx": {"x": 0, "y": 0}, "ref_snr_db": 30}',
    "negative.json": {"width_m": -1, "height_m": 4, "tx": {"x": 0, "y": 0}, "ref_snr_db": 30},
    "bad_fading.json": {"width_m": 0.5, "height_m": 0.3, "tx": {"x": 0, "y": 0},
                        "ref_snr_db": 30, "fading": {"bogus": 1}},
    "ref_distance_zero.json": {"width_m": 0.5, "height_m": 0.3, "tx": {"x": 0.1, "y": 0.1},
                               "ref_snr_db": 30, "ref_distance_m": 0},
    "tx_nan.json": '{"width_m": 0.5, "height_m": 0.3, "tx": {"x": NaN, "y": 0.1}, "ref_snr_db": 30}',
    "wall_nan.json": '{"width_m": 0.5, "height_m": 0.3, "tx": {"x": 0.1, "y": 0.1}, "ref_snr_db": 30, '
                     '"walls": [{"x1": NaN, "y1": 0.2, "x2": 0.5, "y2": 0.2, "loss_db": 10}]}',
    "taps_zero.json": {"width_m": 0.5, "height_m": 0.3, "tx": {"x": 0.1, "y": 0.1},
                       "ref_snr_db": 30, "fading": {"taps": 0}},
    "spacing_tiny.json": {"width_m": 0.5, "height_m": 0.3, "tx": {"x": 0.1, "y": 0.1},
                          "ref_snr_db": 30, "grid_spacing_m": 5e-324},
    "width_huge.json": {"width_m": 1e308, "height_m": 0.3, "tx": {"x": 0.1, "y": 0.1}, "ref_snr_db": 30},
    "array.json": [],
    "empty.json": "",
    "truncated.json": "{",
}
SIDECARS = {
    "cap.json": None,  # written by the fixture
    "carriers32.json": {"carriers": 32},
    "periods_text.json": {"periods": "many"},
    "rate_zero.json": {"sample_rate_hz": 0},
    "rate_null.json": {"sample_rate_hz": None},
    "array.json": [],
    "truncated.json": "{",
}


def _write(path, content):
    if isinstance(content, str):
        path.write_text(content)
    else:
        path.write_text(json.dumps(content))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The tiny two-location grid and every good or bad input file."""
    root = tmp_path_factory.mktemp("fuzz")
    for sub, table in (("grid", GRID_FILES), ("regions", REGIONS_FILES),
                       ("config", CONFIG_FILES), ("sidecar", SIDECARS)):
        (root / sub).mkdir()
        for name, content in table.items():
            if content is not None:
                _write(root / sub / name, content)
    grid = cells_grid([(0.0, 0.0, "office"), (1.0, 0.0, "lobby")], [np.full(64, 30.0), np.full(64, 22.0)])
    (root / "grid" / GOOD_GRID).write_text(grid_to_csv(grid))
    save_capture(synth_capture(25.0, seed=3), root / "cap.iq", root / "sidecar" / "cap.json")
    np.zeros(33, dtype="<f4").tofile(root / "odd.iq")
    return root


CODE_SPECS = st.sampled_from([
    "table1", "rm:1,3", "rm:2,4", "rm:0,2", "rm:1,5",
    "rm:9,3", "rm:1,40", "rm:1,0", "rm:-1,3", "rm:1,1",
    "rm:", "rm:a,b", "rm:1,2,3", "bogus", "",
])
TAU_TEXT = st.sampled_from(["nan", "inf", "-inf", "-nan", "abc", "", "1e400"]) | st.floats().map(repr)
TAUS_TEXT = TAU_TEXT | st.lists(TAU_TEXT, min_size=1, max_size=3).map(",".join)
MAX_M = st.sampled_from([-1, 0, 1, 2, 3, codes.RM_MAX_DEGREE + 1, 40])
TRIALS = st.sampled_from([-1, 0, 1, 5])


def _pick(sub, table):
    """The well-formed file about half the time, else any file or a missing one."""
    names = [f"{sub}/{name}" for name in table]
    return st.just(names[0]) | st.sampled_from([*names, f"{sub}/{MISSING}"])


@st.composite
def invocations(draw):
    """One command line over the fixture's files (paths relative to its root)."""
    grid = ["--grid", draw(_pick("grid", GRID_FILES))]
    regions = ["--regions", draw(_pick("regions", REGIONS_FILES))]
    orient = ["--orientation", draw(st.sampled_from(["C", "Cperp"]))]
    command = draw(st.sampled_from([
        "demo", "eqmatrix", "ghw", "synth", "heatmap", "capacity", "secrecy",
        "sweep", "simulate", "sound",
    ]))
    if command == "eqmatrix":
        return [command, "--code", draw(CODE_SPECS), *orient]
    if command == "ghw":
        return [command, "--code", draw(CODE_SPECS)]
    if command == "synth":
        return [command, "--config", draw(_pick("config", CONFIG_FILES))]
    if command == "heatmap":
        return [command, *grid, "--tau", draw(TAU_TEXT), *draw(st.sampled_from([[], ["--svg"]]))]
    if command == "capacity":
        return [command, *grid, "--svg"]
    if command == "secrecy":
        return [command, *grid, *regions, "--svg"]
    if command == "sweep":
        return [command, *grid, *regions, "--taus", draw(TAUS_TEXT),
                "--max-m", str(draw(MAX_M)), *draw(st.sampled_from([[], ["--interleave"]]))]
    if command == "simulate":
        return [command, *grid, *regions, "--code", draw(CODE_SPECS), *orient,
                "--tau", draw(TAU_TEXT), "--trials", str(draw(TRIALS))]
    if command == "sound":
        iq = draw(st.just("cap.iq") | st.sampled_from(["odd.iq", MISSING]))
        return [command, iq, "--sidecar", draw(_pick("sidecar", SIDECARS))]
    return [command]


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_REF_DISTANCE = st.sampled_from([0, -1]) | st.floats(max_value=0.0) | NON_FINITE
BAD_TAPS = (
    st.integers(max_value=0) | st.integers(min_value=channel.CARRIERS + 1)
    | st.floats(allow_nan=False, allow_infinity=False) | st.booleans() | st.sampled_from(["4", None])
)


@st.composite
def refused_configs(draw):
    """A small environment with one drawn value its config must refuse,
    and the name the error has to give."""
    env = {"width_m": 0.5, "height_m": 0.3, "tx": {"x": 0.1, "y": 0.1}, "ref_snr_db": 30,
           "walls": [{"x1": 0.0, "y1": 0.2, "x2": 0.5, "y2": 0.2, "loss_db": 10}],
           "fading": {"taps": 4}}
    which = draw(st.sampled_from(["ref_distance", "tx", "wall", "taps"]))
    if which == "ref_distance":
        env["ref_distance_m"] = draw(BAD_REF_DISTANCE)
        return env, "ref_distance"
    if which == "tx":
        axis = draw(st.sampled_from(["x", "y"]))
        env["tx"][axis] = draw(NON_FINITE)
        return env, f"tx.{axis}"
    if which == "wall":
        key = draw(st.sampled_from(["x1", "y1", "x2", "y2", "loss_db"]))
        env["walls"][0][key] = draw(NON_FINITE)
        return env, f"walls[0].{key}"
    env["fading"]["taps"] = draw(BAD_TAPS)
    return env, "taps"


@settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=refused_configs())
def test_config_refused_naming_field(files, monkeypatch, case):
    env, field = case
    monkeypatch.chdir(files)
    _write(files / "config" / "drawn.json", env)
    res = CliRunner().invoke(cli.main, ["synth", "--config", "config/drawn.json", "--out-dir", "out"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), (env, res.output, res.exception)
    assert res.output.startswith("Error: ") and res.output.count("\n") == 1, res.output
    assert field in res.output, (env, res.output)


@settings(max_examples=150, deadline=timedelta(seconds=10), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(args=invocations())
def test_no_traceback(files, monkeypatch, args):
    monkeypatch.chdir(files)
    res = CliRunner().invoke(cli.main, [*args, "--out-dir", "out"])
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        f"{args}: {res.exception!r}"
    )
    assert "Traceback" not in res.output
