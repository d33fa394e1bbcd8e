"""Op timing and in-memory spans around the benchmark's calls into semifourier.

Every public library call the benchmark makes goes through ``Runner.call``.
The call's name is ``<layer>.<function>``, e.g. ``harmonic.induced_irreps``;
its layer is the part before the first dot.  Spans live only in this
process's memory and are handed to the parent process when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Runner:
    """Times library calls per op and, when tracing, records one span per call.

    A span is ``[id, parent, name, start_s, end_s, attrs]``.  An op opens a
    root span ``op.<kind>``; the calls it makes are its children.  Op latency
    is the library time of the op's own calls: calls made only to check a
    result (``check=True``) are traced but not counted in the latency.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_ms = 0.0

    def _open(self, name: str, attrs: dict) -> list | None:
        if not self.trace:
            return None
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None, attrs]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list | None) -> None:
        if span is not None:
            span[4] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, check: bool = False, attrs: dict | None = None, **kwargs):
        span = self._open(name, attrs or {})
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            if not check:
                self.op_ms += (time.perf_counter() - t0) * 1e3
            self._close(span)

    @contextmanager
    def op(self, kind: str, attrs: dict):
        """Root span of one op; resets the op's library time."""
        self.op_ms = 0.0
        span = self._open(f"op.{kind}", attrs)
        try:
            yield
        finally:
            self._close(span)

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        """Add a finished top-level span measured outside ``call`` (e.g. an import)."""
        if self.trace:
            self.spans.append([len(self.spans), None, name, start, end, attrs or {}])
