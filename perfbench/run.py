"""Closed-loop benchmark of wiretapkit's command paths.

Run from the repository root:

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 54 --trace 0

One client in one process issues ops back to back (a closed loop) with
BLAS pinned to one thread.  The run repeats the workload's fixed list of
ops, one op per input, until ``--seconds`` have passed and every op has
run once; workloads and ops are described in ``workloads.py`` and, one
line each, in ``BENCHMARK.json``.

The run times a fixed probe (``probe.py``) before every op and reports
op times in probe units: seconds divided by the run's mean probe time.
The host shares its cores, and a whole run can be 40 % slower than the
next; the probe slows with it, so the ratio moves far less than the
seconds.  Each input's time is the mean of its repeats.  ``<kind>_gm``
is the geometric mean of those times over the run's inputs of that kind,
and ``<kind>_tail`` the geometric mean over the slowest quarter of them
(at least one): a tail over inputs, not over repeats, since repeats of
one input differ mostly by how busy the host was.  The same figures in
seconds are in the meta line.

Output on stdout: a ``{"meta": ...}`` line (seed, backend, versions,
``nproc``, op counts, inputs behind each tail, frontier digests, failures and,
when traced, every per-layer figure), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones named in ``BENCHMARK.json``.  A readable table goes to stderr.
``setup_s`` is the time from the top of this script to the end of the
imports plus the median of three complete set-ups (input generation and
warm-up); ops start after the third.
A traced run writes its spans to ``.perfbench/spans-<workload>-<seed>.json``.

Exit status is 2 when the sources, the golden frontier or
``BENCHMARK.json`` are missing, and 1 when an op kind never succeeded.
"""

import os
import time

T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(ops, seconds: float, tracer, check_failed: type[Exception], probe) -> dict:
    """Repeat `ops` in order until `seconds` pass and every op has run once.

    ``samples`` maps each op to the times of its repeats that returned;
    ``probes`` holds the time `probe()` took before each op.
    """
    samples: dict = {op: [] for op in ops}
    probes: list[float] = []
    counts: dict[str, list[float]] = defaultdict(list)
    errors: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    cycle = 0
    while True:
        for op in ops:
            if cycle > 0 and time.perf_counter() - start >= seconds:
                break
            attempted += 1
            probes.append(probe())
            try:
                with tracer.op(attempted, op.kind, op.info):
                    t0 = time.perf_counter()
                    result = op.run(tracer)
                    dt = time.perf_counter() - t0
                samples[op].append(dt)
                op.check(result)
                if tracer.enabled:
                    if op.extras is not None:
                        with tracer.bind(attempted):
                            op.extras(tracer)
                    for key, value in (op.counts(result) if op.counts else {}).items():
                        counts[key].append(value)
            except Exception as exc:  # an op may fail; the run goes on and counts it
                failed += 1
                if len(errors) < 20:
                    errors.append(f"op {attempted} ({op.kind} {op.info}): {type(exc).__name__}: {exc}")
                    if not isinstance(exc, check_failed):
                        traceback.print_exc(file=sys.stderr)
        cycle += 1
        if time.perf_counter() - start >= seconds:
            return {"samples": samples, "probes": probes, "counts": counts, "errors": errors,
                    "attempted": attempted, "failed": failed, "cycles": cycle}


def layer_figures(tracer, counts: dict) -> dict[str, float]:
    """Per-layer figures from the spans: median self time per call, rates,
    and the median per op of each count."""
    selfs = tracer.self_times()
    times: dict[str, list[float]] = defaultdict(list)
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    op_total = op_uncovered = 0.0
    for (name, start, end, _, op), self_s in zip(tracer.spans, selfs):
        if name.startswith("op."):
            op_total += end - start
            op_uncovered += self_s
            continue
        times[name].append(self_s)
        if op is not None:
            per_op[op][name] += self_s
            n = tracer.ops[op].get("n")
            if n is not None and name in ("wiretap.equivocation_matrix", "codes.ghw_exact"):
                times[f"{name}.n{n}"].append(self_s)
    out = {f"{name}.s": statistics.median(v) for name, v in sorted(times.items())}
    for name in ("wiretap.equivocation_matrix", "codes.ghw_exact"):
        if times.get(name):
            out[f"{name}.subsets_per_s"] = sum(counts[f"{name}.subsets"]) / sum(times[name])
    parts = ("sweep.evaluate", "codes.enumerate_codewords", "wiretap.encode_decode")
    posterior = [
        spans["sweep.simulate_mc"] - sum(spans[p] for p in parts)
        for spans in per_op.values()
        if "sweep.simulate_mc" in spans
    ]
    if posterior:
        out["mc.posterior_match.s"] = statistics.median(posterior)
    if counts.get("sweep.default_code_family.candidates"):
        out["sweep.default_code_family.built_ratio"] = statistics.median(
            built / tried
            for built, tried in zip(counts["sweep.default_code_family.codes"],
                                    counts["sweep.default_code_family.candidates"])
        )
    for key, values in counts.items():
        if not key.endswith((".subsets", ".candidates")):
            out[key] = statistics.median(values)
    if op_total:
        out["trace.uncovered_share"] = op_uncovered / op_total
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wiretapkit").is_dir() or not spec_path.is_file():
        print(f"perfbench: {ROOT} lacks src/wiretapkit or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import wiretapkit

    import workloads
    from probe import probe
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = Tracer(args.trace == 1)
    import_s = time.perf_counter() - T0
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            plan = workloads.Plan(args.workload, args.seed, tracer, ROOT)
            setups.append(time.perf_counter() - t0)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = import_s + statistics.median(setups)

    run = measure(plan.ops, args.seconds, tracer, workloads.CheckFailed, probe)
    per_input: dict[str, list[float]] = {k: [] for k in workloads.KINDS}
    for op, times in run["samples"].items():
        if times:
            per_input[op.kind].append(statistics.fmean(times))
    empty = [k for k, v in per_input.items() if not v]
    if empty:
        print(f"perfbench: no {', '.join(empty)} op succeeded: {run['errors']}", file=sys.stderr)
        return 1

    figures = {
        "setup_s": setup_s,
        "ok_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    probe_s = statistics.fmean(run["probes"])
    seconds = {}
    for kind, values in per_input.items():
        slowest = sorted(values)[-max(1, len(values) // 4):]
        seconds[kind] = {"gm": statistics.geometric_mean(values), "tail": statistics.geometric_mean(slowest)}
        for stat, value in seconds[kind].items():
            figures[f"{kind}_{stat}"] = value / probe_s
    repeats = defaultdict(list)
    for op, times in run["samples"].items():
        repeats[op.kind].append(len(times))

    backend = getattr(getattr(wiretapkit, "kernels", None), "backend_name", None)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_backend": backend() if callable(backend) else "n/a",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "import_s": import_s,
        "setup_runs_s": setups,
        "cycles": run["cycles"],
        "ops": {k: sum(v) for k, v in repeats.items()},
        "inputs": {k: len(v) for k, v in per_input.items()},
        "fewest_repeats": {k: min(v) for k, v in repeats.items()},
        "tails": {f"{k}_tail": {"slowest_inputs": max(1, len(v) // 4), "inputs": len(v)}
                  for k, v in per_input.items()},
        "probe_mean_s": probe_s,
        "seconds": seconds,
        "frontier_digests": plan.digests,
        "errors": run["errors"],
    }
    wanted = spec["end_to_end"]
    if tracer.enabled:
        figures = meta["layers"] = layer_figures(tracer, run["counts"])
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"perfbench: the run produced no {missing}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"ops {meta['ops']}, failed {run['failed']}/{run['attempted']}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
