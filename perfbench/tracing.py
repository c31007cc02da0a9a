"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (or ``None``) and ``op`` the id of the operation the
span belongs to (``None`` during set-up).  Spans stay in memory until the
run ends; ``dump`` writes them out once.  With tracing disabled every
``span`` call returns one shared null context, so the untraced run pays a
method call per layer boundary and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.ops: dict[int, dict] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def span(self, name: str):
        return self._record(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _record(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str, info: dict):
        """Span ``op.<kind>`` around one operation; layer spans nest inside."""
        if not self.enabled:
            yield
            return
        self.ops[op_id] = dict(info, kind=kind)
        with self.bind(op_id), self._record("op." + kind):
            yield

    @contextlib.contextmanager
    def bind(self, op_id: int):
        """Attribute spans opened outside the op's own span to that op."""
        prev, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = prev

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        payload = {
            "ops": {str(k): v for k, v in self.ops.items()},
            "spans": [dict(zip(keys, rec)) for rec in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n")
