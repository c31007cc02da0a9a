"""Command-line surface for the toolkit.

Every subcommand that emits files also writes a ``manifest.json`` next
to them recording the command, options, input digests, seed and package
version, so any output can be reproduced from the manifest alone.
Numeric output uses 6 significant digits.  The library raises
``ValueError`` for every input it rejects; the command group turns that,
and any ``OSError``, into a one-line ``Error:`` message.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import click
import numpy as np

from . import __version__, channel, codes, maps, sweep as sweepmod, wiretap

DEFAULT_TAUS = [25.0, 26.0, 27.0, 28.0, 29.0, 30.0, 31.0]


def _out_dir(path: str | None) -> Path:
    out = Path(path or os.environ.get("WIRETAPKIT_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out: Path, command: str, options: dict, inputs: dict[str, str]) -> None:
    manifest = {
        "command": command,
        "options": options,
        "inputs": {p: _sha256(p) for p in inputs.values() if p},
        "version": __version__,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read(path: str, parse, *more: str):
    """``parse(path, *more)``, with any error from the files' content naming them."""
    names = ", ".join((path, *more))
    try:
        return parse(path, *more)
    except KeyError as exc:
        raise click.ClickException(f"{names}: missing key {exc}") from None
    except (OSError, ValueError, TypeError) as exc:
        raise click.ClickException(f"{names}: {exc}") from None


def _load_grid(grid_path: str | None) -> channel.ChannelGrid:
    if grid_path is None:
        return channel.default_grid()
    return _read(grid_path, lambda p: channel.grid_from_csv(Path(p).read_text()))


def _load_regions(regions_path: str | None, grid_path: str | None) -> channel.RegionMap:
    if regions_path is not None:
        return _read(regions_path, lambda p: channel.RegionMap.from_dict(json.loads(Path(p).read_text())))
    if grid_path is None:
        rm = channel.default_environment().region_map
        assert rm is not None
        return rm
    raise click.ClickException("--regions is required when --grid names a custom file")


def _code(spec: str) -> codes.LinearCode:
    """Parse a code spec: 'table1' (the built-in n=4 base code) or 'rm:U,M'."""
    if spec == "table1":
        return wiretap.example_code().base_code
    if not spec.startswith("rm:"):
        raise click.ClickException(f"unknown code spec {spec!r}; use table1 or rm:U,M")
    try:
        u, m = (int(v) for v in spec[3:].split(","))
        return codes.reed_muller(u, m)
    except ValueError as exc:
        raise click.ClickException(f"{spec}: {exc}") from None


def _resolve_code(spec: str, orientation: str) -> wiretap.WiretapCode:
    """The wiretap code whose base is the spec's code (C) or its dual (Cperp).

    The dual of RM(u, m) is built as RM(m - u - 1, m), as the candidate
    family builds it, so no null space is taken to pick the base; other
    codes (table1, RM(m, m)) take ``codes.dual``.
    """
    c = _code(spec)
    base = c
    if orientation == "Cperp":
        perp = codes.rm_dual_params(c.rm_params)
        base = codes.reed_muller(*perp) if perp else codes.dual(c)
    return wiretap.build(base, label=f"{c.label}|{orientation}")


class _Main(click.Group):
    """Command group that reports library input errors as one-line errors."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Main)
def main():
    """Wiretap-code selection and secrecy mapping from channel soundings."""


@main.command()
@click.argument("iq_file", type=click.Path(exists=True))
@click.option("--sidecar", required=True, type=click.Path(exists=True), help="JSON metadata file.")
@click.option("--x", "x", type=float, default=0.0, show_default=True)
@click.option("--y", "y", type=float, default=0.0, show_default=True)
@click.option("--region", default="open", show_default=True)
@click.option("--out-dir", type=click.Path(), default=None)
def sound(iq_file, sidecar, x, y, region, out_dir):
    """Estimate per-subcarrier SNR from a raw I/Q capture; emit one grid row."""
    channel.check_region_label(region, "--region")
    out = _out_dir(out_dir)
    cap = _read(iq_file, channel.load_capture, sidecar)
    snrs = channel.snr_estimate(cap)
    grid = channel.ChannelGrid([x], [y], [0], (region,), snrs[None, :])
    with open(out / "snr_row.csv", "w") as fh:
        channel.write_grid_csv(grid, fh)
    _write_manifest(
        out,
        "sound",
        {"x": x, "y": y, "region": region},
        {"iq": iq_file, "sidecar": sidecar},
    )
    click.echo(f"wrote {out / 'snr_row.csv'}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Environment JSON; defaults to the bundled floor plan.")
@click.option("--seed", type=int, default=channel.DEFAULT_GRID_SEED, show_default=True)
@click.option("--out-dir", type=click.Path(), default=None)
def synth(config_path, seed, out_dir):
    """Generate a deterministic synthetic SNR grid."""
    out = _out_dir(out_dir)
    cfg = (
        _read(config_path, channel.EnvironmentConfig.from_json_file)
        if config_path
        else channel.default_environment()
    )
    grid = channel.synth_grid(cfg, seed=seed)
    with open(out / "grid.csv", "w") as fh:
        channel.write_grid_csv(grid, fh)
    _write_manifest(
        out,
        "synth",
        {"seed": seed, "config": config_path or "builtin"},
        {"config": config_path or ""},
    )
    click.echo(f"wrote {out / 'grid.csv'} ({grid.x.size} locations)")


def _map_command(name: str, grid_path, out_dir, svg, values, options, extra_inputs=None):
    out = _out_dir(out_dir)
    grid = _load_grid(grid_path)
    vals = values(grid)
    (out / f"{name}_map.csv").write_text(maps.heatmap_csv(grid, vals))
    if svg:
        (out / f"{name}_map.svg").write_text(maps.heatmap_svg(grid, vals))
    inputs = {"grid": grid_path or ""}
    inputs.update(extra_inputs or {})
    _write_manifest(out, name, options, inputs)
    click.echo(f"wrote {out / (name + '_map.csv')}")


@main.command()
@click.option("--grid", "grid_path", type=click.Path(exists=True), default=None)
@click.option("--tau", type=float, default=25.0, show_default=True)
@click.option("--svg", is_flag=True)
@click.option("--out-dir", type=click.Path(), default=None)
def heatmap(grid_path, tau, svg, out_dir):
    """Map the count of subcarriers with SNR at or above the threshold."""
    _map_command(
        "reliable",
        grid_path,
        out_dir,
        svg,
        lambda g: channel.erase_mask(g.snr_db, tau).sum(axis=1),
        {"tau": tau, "grid": grid_path or "builtin"},
    )


@main.command()
@click.option("--grid", "grid_path", type=click.Path(exists=True), default=None)
@click.option("--svg", is_flag=True)
@click.option("--out-dir", type=click.Path(), default=None)
def capacity(grid_path, svg, out_dir):
    """Map total channel capacity (bits/channel use) per location."""
    _map_command(
        "capacity",
        grid_path,
        out_dir,
        svg,
        lambda g: channel.capacity_sum(g.snr_db),
        {"grid": grid_path or "builtin"},
    )


@main.command()
@click.option("--grid", "grid_path", type=click.Path(exists=True), default=None)
@click.option("--regions", "regions_path", type=click.Path(exists=True), default=None)
@click.option("--svg", is_flag=True)
@click.option("--out-dir", type=click.Path(), default=None)
def secrecy(grid_path, regions_path, svg, out_dir):
    """Map secrecy capacity against Bob's best location per Eve placement."""
    regions = _load_regions(regions_path, grid_path)

    def values(g):
        bob = g.snr_db[sweepmod.bob_reference_index(g, regions)]
        return channel.secrecy_capacity(bob, g.snr_db)

    _map_command(
        "secrecy",
        grid_path,
        out_dir,
        svg,
        values,
        {"grid": grid_path or "builtin", "regions": regions.to_dict()},
        {"regions": regions_path or ""},
    )


@main.command()
@click.option("--code", "code_spec", default="table1", show_default=True,
              help="table1 or rm:U,M")
@click.option("--orientation", type=click.Choice(["C", "Cperp"]), default="C", show_default=True)
@click.option("--out-dir", type=click.Path(), default=None)
def eqmatrix(code_spec, orientation, out_dir):
    """Exact equivocation matrix of a wiretap code, as CSV."""
    out = _out_dir(out_dir)
    csv = wiretap.equivocation_matrix(_resolve_code(code_spec, orientation)).to_csv()
    path = out / "eqmatrix.csv"
    path.write_text(csv)
    _write_manifest(out, "eqmatrix", {"code": code_spec, "orientation": orientation}, {})
    click.echo(csv.rstrip("\n"))
    click.echo(f"wrote {path}")


@main.command()
@click.option("--code", "code_spec", required=True, help="rm:U,M")
@click.option("--out-dir", type=click.Path(), default=None)
def ghw(code_spec, out_dir):
    """Generalized Hamming weight profile of a code."""
    out = _out_dir(out_dir)
    c = _code(code_spec)
    profile = codes.ghw_of(c)
    payload = {"code": c.label, "weights": list(profile.weights), "source": profile.source}
    (out / "ghw.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "ghw", {"code": code_spec}, {})
    click.echo(json.dumps(payload))


@main.command(name="sweep")
@click.option("--grid", "grid_path", type=click.Path(exists=True), default=None)
@click.option("--regions", "regions_path", type=click.Path(exists=True), default=None)
@click.option("--taus", default=",".join(f"{t:g}" for t in DEFAULT_TAUS), show_default=True)
@click.option("--max-m", type=int, default=5, show_default=True,
              help="Largest Reed-Muller degree in the candidate family.")
@click.option("--interleave", is_flag=True,
              help="Score a concrete round-robin interleaver instead of the worst case.")
@click.option("--require-full-equivocation/--allow-partial", default=True, show_default=True)
@click.option("--svg", is_flag=True)
@click.option("--out-dir", type=click.Path(), default=None)
def sweep_cmd(grid_path, regions_path, taus, max_m, interleave, require_full_equivocation, svg, out_dir):
    """Evaluate the code family across thresholds; emit frontier and best point."""
    out = _out_dir(out_dir)
    grid = _load_grid(grid_path)
    regions = _load_regions(regions_path, grid_path)
    try:
        tau_list = [float(t) for t in taus.split(",") if t]
    except ValueError:
        raise click.ClickException(f"bad --taus {taus!r}; expected comma-separated dB values") from None
    family = sweepmod.default_code_family(max_m=max_m)
    points = sweepmod.sweep(family, grid, regions, tau_list, interleave=interleave)
    (out / "frontier.csv").write_text(sweepmod.frontier_csv(points))
    if svg:
        (out / "frontier.svg").write_text(sweepmod.frontier_svg(points))
    try:
        best = sweepmod.select_best(points, require_full_equivocation=require_full_equivocation)
        best_payload = {
            name: getattr(best, name) for name in sweepmod.FRONTIER_COLUMNS if name != "worst_eve_location"
        }
        click.echo(
            f"best: {best.code_label} at tau={best.tau_db:g} dB -> "
            f"{best.throughput:.6g} b/cu at {best.min_equivocation_pct:.6g}% equivocation"
        )
    except sweepmod.NoSecureOperatingPoint:
        best_payload = {"no_secure_operating_point": True}
        click.echo("no secure operating point")
    (out / "best.json").write_text(json.dumps(best_payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        out,
        "sweep",
        {
            "taus": tau_list,
            "max_m": max_m,
            "interleave": interleave,
            "require_full_equivocation": require_full_equivocation,
            "grid": grid_path or "builtin",
            "regions": regions.to_dict(),
        },
        {"grid": grid_path or "", "regions": regions_path or ""},
    )
    click.echo(f"wrote {out / 'frontier.csv'}")


@main.command()
@click.option("--grid", "grid_path", type=click.Path(exists=True), default=None)
@click.option("--regions", "regions_path", type=click.Path(exists=True), default=None)
@click.option("--code", "code_spec", default="table1", show_default=True)
@click.option("--orientation", type=click.Choice(["C", "Cperp"]), default="C", show_default=True)
@click.option("--tau", type=float, default=27.0, show_default=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--out-dir", type=click.Path(), default=None)
def simulate(grid_path, regions_path, code_spec, orientation, tau, trials, seed, out_dir):
    """Monte Carlo reliability/leakage check at the worst Eve location."""
    out = _out_dir(out_dir)
    grid = _load_grid(grid_path)
    regions = _load_regions(regions_path, grid_path)
    w = _resolve_code(code_spec, orientation)
    report = sweepmod.simulate_mc(w, grid, regions, tau, trials=trials, seed=seed)
    (out / "simulate.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        out,
        "simulate",
        {
            "code": code_spec,
            "orientation": orientation,
            "tau": tau,
            "trials": trials,
            "seed": seed,
            "grid": grid_path or "builtin",
        },
        {"grid": grid_path or "", "regions": regions_path or ""},
    )
    click.echo(json.dumps(report, sort_keys=True))


@main.command()
@click.option("--out-dir", type=click.Path(), default=None)
def demo(out_dir):
    """Walk through the built-in n=4 code: full message/codeword table."""
    out = _out_dir(out_dir)
    w = wiretap.example_code()
    lines = [f"built-in wiretap code: n={w.n}, k={w.k}, rate={w.k / w.n:g}"]
    lines.append("G  = " + " / ".join(w.base_code.generator.to_strings()))
    lines.append("G' = " + " / ".join(w.gprime.to_strings()))
    aux = [format(j, f"0{w.n - w.k}b") for j in range(2 ** (w.n - w.k))]
    lines.append("m \\ m'  " + "  ".join(aux))
    ok = True
    for mi in range(2**w.k):
        label = format(mi, f"0{w.k}b")
        m = [int(b) for b in label]
        row = [label + "    "]
        for mp in aux:
            x = wiretap.encode(w, m, [int(b) for b in mp])
            ok = ok and np.array_equal(wiretap.decode(w, x), m)
            row.append("".join(str(int(b)) for b in x))
        lines.append("  ".join(row))
    lines.append(f"decode round-trip: {'ok' if ok else 'FAILED'}")
    text = "\n".join(lines) + "\n"
    (out / "demo.txt").write_text(text)
    _write_manifest(out, "demo", {}, {})
    click.echo(text.rstrip("\n"))


if __name__ == "__main__":
    main()
