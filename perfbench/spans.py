"""In-memory spans around the public calls into each pdocong layer.

The tracer measures the library from outside: it swaps each traced function
for a wrapper in every ``pdocong`` module namespace that holds it (and
``Series.__mul__``/``__rmul__`` on the class), so calls one layer makes into
another are seen too.  A span is ``[name, start, end, parent]``; the spans of
one iteration stay in memory and are handed back when the iteration ends.
A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span, the
iteration's traced wall time.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# span name -> (module, attribute) of the traced callable
TRACED = {
    "etaq.pdo_series": ("pdocong.etaq", "pdo_series"),
    "etaq.expand": ("pdocong.etaq", "expand"),
    "etaq.kappa_series": ("pdocong.etaq", "kappa_series"),
    "xipoly.phi": ("pdocong.xipoly", "phi_poly"),
    "xipoly.phi_direct": ("pdocong.xipoly", "phi_poly_direct"),
    "xipoly.lambda": ("pdocong.xipoly", "lambda_poly"),
    "xipoly.zeta": ("pdocong.xipoly", "zeta"),
    "xipoly.poly_to_series": ("pdocong.xipoly", "poly_to_series"),
    "padic.check_f_profile": ("pdocong.padic", "check_f_profile"),
    "padic.check_z_profile": ("pdocong.padic", "check_z_profile"),
    "congruence.verify": ("pdocong.congruence", "verify"),
    "congruence.scan": ("pdocong.congruence", "scan"),
}
SERIES_MUL = "series.mul"
CLI_COMMANDS = ("pdo", "expand", "zeta", "lambda", "phi", "valuations", "verify", "scan")
ROOT = "bench.check"

#: every span name whose self time is reported, as ``<name>_s``
SPAN_NAMES = (*TRACED, SERIES_MUL, *(f"cli.{c}" for c in CLI_COMMANDS), ROOT)


class Tracer:
    """Records spans, and the arguments and result of each traced call."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        idx = len(spans)
        spans.append([name, clock(), 0.0, stack[-1]])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            spans[idx][2] = clock()

    def _wrap(self, name: str, fn):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            calls.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        """Swap every traced callable for its wrapper, wherever pdocong bound it."""
        from pdocong.series import Series

        modules = [m for n, m in sys.modules.items() if n == "pdocong" or n.startswith("pdocong.")]
        for name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        mul = Series.__mul__
        wrapper = self._wrap(SERIES_MUL, mul)
        for key in ("__mul__", "__rmul__"):
            self._undo.append((Series, key, vars(Series)[key]))
            setattr(Series, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def records(self) -> list[list]:
        """Spans as ``[name, start, end, parent]`` with times relative to the first."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]


class NoTracer:
    """Stand-in with the same ``span`` surface that records nothing."""

    @contextmanager
    def span(self, name: str):
        yield
