"""Compare runs of one commit against the bounds in BENCHMARK.json.

Run from the repository root; runs go one at a time, each in a fresh
process for ``run_seconds`` of BENCHMARK.json, so they never compete for
the cores.

    python3 perfbench/compare.py steady [--runs 10] [--first-seed 1] [--workloads frontier,analysis]

Runs each workload with tracing off as two sets, A and B, over the same
seeds, alternating A and B seed by seed (A1 B1 A2 B2 ...) so that a drift
in the host's speed reaches both sets alike.  For every end-to-end metric
it prints each set's median and spread (interquartile range over median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them) and the
change of B's median from A's.  It fails when a spread exceeds a third of
the metric's bound, when the medians differ by more than the bound in
either direction, or when a frontier digest differs between the two runs
of one seed.  The spread of ``setup_s`` is printed but not gated: set-up
cost depends on the seed's inputs (``wiretap.build`` takes its 2^k
syndrome-table path only for codes without an orthonormal dual basis),
so it spreads across seeds even on a quiet host; its change between the
sets is gated like every other metric's.

    python3 perfbench/compare.py overhead [--first-seed 1] [--workloads ...]

Runs each workload untraced and traced on one seed and prints, per op
kind, the traced ``<kind>_gm`` minus the untraced one (in probe units,
see ``run.py``): the tracing overhead.

Raw results go to ``.perfbench/<mode>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(meta, result) of one run.py process."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(args, spec) -> bool:
    ok = True
    record = {}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads:
        sets: tuple[list, list] = ([], [])
        for seed in seeds:
            for name, runs in zip("AB", sets):
                meta, result = bench_run(workload, seed, spec["run_seconds"], 0)
                print(f"{workload} set {name} seed {seed}: correct={result['correct']} "
                      f"ops={meta['ops']}", file=sys.stderr)
                ok &= result["correct"]
                runs.append((meta, result))
        record[workload] = [[{"meta": m, "result": r} for m, r in runs] for runs in sets]
        print(f"\n{workload}: {args.runs} seeds x 2 sets, {spec['run_seconds']} s each")
        print(f"{'metric':20s} {'unit':6s} {'median A':>11s} {'spread A':>9s} "
              f"{'median B':>11s} {'spread B':>9s} {'change':>8s} {'bound':>6s}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            verdict = "ok"
            for runs in sets:
                values = [r["metrics"][name]["value"] for _, r in runs]
                cols.append((statistics.median(values), spread(values)))
                if name != "setup_s" and cols[-1][1] > bound / 3:
                    verdict = "SPREAD"
            change = (cols[1][0] - cols[0][0]) / cols[0][0]
            if abs(change) > bound:
                verdict = "SHIFT"
            print(f"{name:20s} {m['unit']:6s} {cols[0][0]:11.5g} {cols[0][1]:9.3f} "
                  f"{cols[1][0]:11.5g} {cols[1][1]:9.3f} {change:8.3f} {bound:6.2f}  {verdict}")
            ok &= verdict == "ok"
        same = True
        for (meta_a, _), (meta_b, _) in zip(*sets):
            if meta_a["frontier_digests"] != meta_b["frontier_digests"]:
                same = False
                print(f"seed {meta_a['seed']}: frontier digests differ")
        print("frontier digests: " + ("identical" if same else "DIFFER"))
        ok &= same
    write_record("steady", record)
    return ok


def overhead(args, spec) -> bool:
    record = {}
    for workload in args.workloads:
        plain, _ = bench_run(workload, args.first_seed, spec["run_seconds"], 0)
        traced, result = bench_run(workload, args.first_seed, spec["run_seconds"], 1)
        record[workload] = {"untraced": plain, "traced": traced, "result": result}
        print(f"\n{workload} (seed {args.first_seed}): tracing overhead per op kind")
        for kind in plain["seconds"]:
            base = plain["seconds"][kind]["gm"] / plain["probe_mean_s"]
            with_spans = traced["seconds"][kind]["gm"] / traced["probe_mean_s"]
            diff = with_spans - base
            print(f"  {kind:11s} untraced {base:9.2f}  traced {with_spans:9.2f}  "
                  f"overhead {diff:+.2f} probe ({diff / base:+.1%})")
        print(f"  uncovered share of op time: {traced['layers']['trace.uncovered_share']:.2e}")
    write_record("overhead", record)
    return True


def write_record(mode: str, record: dict) -> None:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"{mode}.json").write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("steady", "overhead"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    args.workloads = args.workloads.split(",")
    ok = (steady if args.mode == "steady" else overhead)(args, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
