"""Smoke test of the benchmark's public calls into the package.

Builds each workload's plan with tracing on and runs every distinct op
once, with its check, its traced extras and its counts, the way
``perfbench/run.py --trace 1`` does in its first cycle.  A change to a
name, field or parameter that the benchmark calls fails here.  Nothing
is written under ``.perfbench/``.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    import workloads

    return workloads, tracing


def _listing(path: Path) -> list[str]:
    return sorted(p.name for p in path.iterdir()) if path.is_dir() else []


@pytest.mark.parametrize("workload", ["frontier", "analysis"])
def test_every_op_runs_and_checks(perfbench, workload):
    workloads, tracing = perfbench
    before = _listing(ROOT / ".perfbench")
    tracer = tracing.Tracer(True)
    plan = workloads.Plan(workload, 1, tracer, ROOT)
    ops = list(dict.fromkeys(plan.ops))  # side ops repeat in the list
    assert {op.kind for op in ops} == set(workloads.KINDS)
    for op_id, op in enumerate(ops, start=1):
        with tracer.op(op_id, op.kind, op.info):
            result = op.run(tracer)
        op.check(result)
        if op.extras is not None:
            with tracer.bind(op_id):
                op.extras(tracer)
        if op.counts is not None:
            assert op.counts(result)
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
    assert _listing(ROOT / ".perfbench") == before
