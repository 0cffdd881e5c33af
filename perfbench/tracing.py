"""In-memory span recorder for the benchmark's traced runs.

A span is (id, parent id, operation id, name, start, end). Spans are kept
in a list while the run lasts and written out as JSON Lines at the end,
so recording costs one ``perf_counter`` pair and one append per span.
Spans are recorded only around calls the benchmark itself makes into the
package; nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Iterator


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op_id: str
    name: str
    start: float
    end: float


class NullTracer:
    """Tracer of an untraced run: every span is a shared no-op context."""

    enabled = False
    op_id = ""
    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Records nested spans; ``op_id`` tags every span opened after it is set."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id = ""
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.op_id, name, start, end))

    def self_times(self) -> dict[str, dict[str, float]]:
        """Self time summed per operation id and span name.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap because one thread records.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            out[span.op_id][span.name] += span.end - span.start - child_time[span.span_id]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
