"""Per-layer tracing of optomech from outside the package.

Wrappers are installed on every module attribute that holds a traced
function, because optomech modules import names with ``from .x import y``
and each caller looks the name up in its own module.  ``restore`` puts the
original objects back.

Two kinds of wrapper:

* SPAN functions are coarse (a handful of calls per run) and record one
  span each: ``[id, parent id, name, start, end]`` with the parent being
  the innermost open span, or ``None`` for a call made directly by the
  traced entry point.
* AGGREGATE functions run once per RHS evaluation or per sweep cell
  (about 1.6M calls on fig7), so they only add to a call count and a
  total time; no per-call record is kept.

``numerics.integrate_adaptive`` additionally wraps the RHS callable it is
given, so the time inside the right-hand side (``numerics.rhs``) and the
exact number of RHS evaluations are counted separately from the stepper.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

SPAN = (
    "numerics.integrate_adaptive",
    "fluctuations.integrate_lyapunov",
    "fluctuations.stability_check",
    "moments.floquet_recurse",
    "moments.integrate_first_moments",
    "engineering.modulation_components",
    "experiment.measures_from_cm_series",
    "experiment.run_sweep",
    "measures.wigner",
    "tables.write_rows",
)
AGGREGATE = (
    "model.drive_value",
    "fluctuations.build_drift",
    "fluctuations.steady_state_lyapunov",
    "moments.steady_state_constant",
    "measures.log_negativity",
    "engineering.transient_first_moments",
    "experiment.evaluate_cell",
)
RHS = "numerics.rhs"

class Tracer:
    """Spans and counters of one traced run, kept in memory.

    ``clock`` gives the time stamps; the benchmark passes one that stops
    while its calibration samples run, so no span includes them.
    """

    def __init__(self, names=SPAN + AGGREGATE, clock=time.perf_counter):
        self.names = tuple(names)
        self.clock = clock
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.top_seconds = 0.0      # aggregate time outside any span
        self.rows = 0
        self.bytes = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every optomech attribute bound to a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = {q: importlib.import_module("optomech." + q.split(".")[0])
                 for q in self.names}
        mods = [m for name, m in sorted(sys.modules.items())
                if (name == "optomech" or name.startswith("optomech."))
                and m is not None]
        for qual in self.names:
            orig = getattr(homes[qual], qual.split(".")[1])
            wrapped = self._wrap(qual, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, orig))

    def restore(self) -> None:
        """Put back every original function object."""
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, qual: str, fn):
        if qual == "numerics.integrate_adaptive":
            inner = fn

            def fn(f, *args, **kwargs):
                return inner(self._aggregate(RHS, f), *args, **kwargs)
        if qual == "tables.write_rows":
            return self._span(qual, self._counting_writer(fn))
        if qual in AGGREGATE:
            return self._aggregate(qual, fn)
        return self._span(qual, fn)

    def _span(self, qual, fn):
        stack = self._stack
        spans = self.spans
        now = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            record = [sid, parent, qual, now(), None]
            spans.append(record)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = now()
                stack.pop()

        return wrapper

    def _aggregate(self, qual, fn):
        self.calls.setdefault(qual, 0)
        self.seconds.setdefault(qual, 0.0)
        calls = self.calls
        seconds = self.seconds
        stack = self._stack
        now = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                calls[qual] += 1
                seconds[qual] += dt
                if not stack:
                    self.top_seconds += dt

        return wrapper

    def _counting_writer(self, fn):
        def write_rows(path, header, rows):
            def counted():
                for row in rows:
                    self.rows += 1
                    yield row
            fn(path, header, counted())
            self.bytes += os.path.getsize(path)

        return write_rows

    # -- results ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"spans": self.spans,
                "counters": {q: {"calls": self.calls[q],
                                 "s": self.seconds[q]}
                             for q in sorted(self.calls)},
                "top_level_aggregate_s": self.top_seconds,
                "rows": self.rows, "bytes": self.bytes}


def span_seconds(trace: dict, qual: str) -> float:
    """Total duration of the spans named ``qual`` in a ``to_dict`` record."""
    return float(sum(s[4] - s[3] for s in trace["spans"] if s[2] == qual))


def covered_seconds(trace: dict) -> float:
    """Time covered by traced calls made directly by the traced entry point."""
    top = sum(s[4] - s[3] for s in trace["spans"] if s[1] is None)
    return top + trace["top_level_aggregate_s"]
