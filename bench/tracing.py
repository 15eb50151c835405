"""Spans and counters recorded around the benchmark's calls into monobound.

Spans are kept in memory as (name, start, end, parent, op id, ok) and are
written out once, when the run ends.  A span's name is ``<layer>.<call>``;
its layer is the part before the first dot and takes the blame when the
call raises.  Evaluations of g are not spans (a quadrature fallback makes
tens of thousands of them per op); :meth:`Tracer.wrap` counts and times
them instead, by building a copy of the ``MonotoneFunction`` whose callable
is wrapped.  Nothing inside the package is edited or patched.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class NullTracer:
    """The untraced run: every hook does nothing and g is used as given."""

    enabled = False
    op_id = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, k: float = 1) -> None:
        pass

    def fail(self, layer: str) -> None:
        pass

    def wrap(self, g):
        return g


class Tracer:
    """Spans, per-name busy time, counts and per-layer failures of one run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.failed: Counter[str] = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        ok = True
        start = perf_counter()
        try:
            yield
        except BaseException:
            ok = False
            self.failed[name.split(".", 1)[0]] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id, ok)
            self.busy[name] += end - start

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def fail(self, layer: str) -> None:
        self.failed[layer] += 1

    def wrap(self, g):
        """Copy of g whose evaluations feed the ``functions.eval.*`` counters."""
        fn = g._fn

        def counted(x):
            start = perf_counter()
            try:
                return fn(x)
            except BaseException:
                self.failed["functions"] += 1
                raise
            finally:
                self.busy["functions.eval"] += perf_counter() - start
                self.counts["functions.eval.calls"] += 1
                self.counts["functions.eval.points"] += np.size(x)

        return dataclasses.replace(g, _fn=counted)

    def span_records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, s[:5]), ok=s[5]) for s in self.spans if s is not None]
