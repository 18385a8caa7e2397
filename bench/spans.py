"""In-memory span recording for the benchmark's traced run.

Spans are recorded by the benchmark around its own calls into the package's
public functions; the package itself is not instrumented. All spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter

ROOT = "op"


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; every span of one op shares that op's id and
    hangs below the op's root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = Span(self._op, len(self.spans), parent, name, 0.0, attrs=attrs)
        self.spans.append(rec)
        self._stack.append(rec.id)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def op(self, op_id: int):
        """Root span of one op."""
        self._op = op_id
        return self.span(ROOT)

    def dump(self, path, record: dict) -> None:
        with open(path, "w") as f:
            json.dump({"record": record, "spans": [asdict(s) for s in self.spans]}, f)


class NullTracer:
    """Tracer.span that records nothing: the untraced replay."""

    def span(self, name: str, **attrs):
        return nullcontext(Span(-1, -1, None, name, 0.0, attrs=attrs))


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children[s.id]]
        out[s.id] = s.duration - _covered([iv for iv in inside if iv[1] > iv[0]])
    return out


def layer_totals(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op means over n_ops of each span name's total and self time
    (`<name>.wall_s`, `<name>.self_s`), of simulate time by controller kind
    (`simulate.<kind>.wall_s`), of call counts (`<name>.calls`) and of the
    numeric span attributes (`<name>.<attr>`)."""
    selfs = self_times(spans)
    acc: dict[str, float] = defaultdict(float)
    for s in spans:
        acc[f"{s.name}.wall_s"] += s.duration
        acc[f"{s.name}.self_s"] += selfs[s.id]
        acc[f"{s.name}.calls"] += 1
        for key, value in s.attrs.items():
            if key == "kind":
                acc[f"{s.name}.{value}.wall_s"] += s.duration
            else:
                acc[f"{s.name}.{key}"] += value
    return {k: v / n_ops for k, v in acc.items()}
