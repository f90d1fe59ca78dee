"""Span tracing: perf-record for the measurement stack itself.

A :class:`Tracer` collects lightweight nested spans covering every phase
of the pipeline — frontend, IR passes, register allocation, codegen,
wasm encode/validate, JIT translation, kernel boot, and execution — and
exports them as Chrome trace-event JSON (the ``chrome://tracing`` /
Perfetto format), mirroring how the paper uses ``perf record`` to see
*where* time goes rather than just how much.

Tracing is disabled by default and the disabled path is engineered to be
near-free: :func:`span` reads one module global and returns a shared
no-op context manager, so instrumentation points cost a dict-free
function call when no tracer is installed.  Instrumented code must never
behave differently because a tracer is attached — spans only observe
wall-clock time.
"""

from __future__ import annotations

import json
import time


class _NullSpan:
    """Shared no-op span used whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **args) -> None:
        pass


NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records a complete ("ph": "X") event on exit."""

    __slots__ = ("tracer", "name", "args", "start")

    def __init__(self, tracer: "Tracer", name: str, args):
        self.tracer = tracer
        self.name = name
        self.args = args
        self.start = 0.0

    def __enter__(self):
        self.start = self.tracer.clock()
        self.tracer.depth += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self.tracer
        tracer.depth -= 1
        end = tracer.clock()
        if exc_type is not None:
            args = dict(self.args or ())
            args["error"] = exc_type.__name__
            self.args = args
        tracer.events.append((self.name, self.start, end, tracer.depth,
                              self.args))
        return False

    def set(self, **args) -> None:
        """Attach key/value arguments to the span."""
        if self.args is None:
            self.args = {}
        self.args.update(args)


class Tracer:
    """Collects spans and serializes them as Chrome trace-event JSON."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.depth = 0
        #: (name, start, end, depth, args) tuples in completion order.
        self.events: list[tuple] = []

    # -- recording --------------------------------------------------------

    def span(self, name: str, args=None) -> _Span:
        return _Span(self, name, args)

    # -- introspection ----------------------------------------------------

    def phases(self) -> list:
        """Distinct span names in first-start order."""
        ordered = sorted(self.events, key=lambda e: e[1])
        seen = []
        for name, *_ in ordered:
            if name not in seen:
                seen.append(name)
        return seen

    def total_seconds(self) -> float:
        if not self.events:
            return 0.0
        start = min(e[1] for e in self.events)
        end = max(e[2] for e in self.events)
        return end - start

    # -- export -----------------------------------------------------------

    def to_chrome(self, process_name: str = "repro") -> dict:
        """The trace as a Chrome trace-event JSON object.

        Loadable in ``chrome://tracing`` or https://ui.perfetto.dev:
        every span becomes a complete ("ph": "X") event with
        microsecond timestamps relative to tracer creation.
        """
        trace_events = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": process_name},
        }]
        for name, start, end, depth, args in sorted(
                self.events, key=lambda e: (e[1], -e[2])):
            event = {
                "name": name,
                "cat": name.partition(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - self.t0) * 1e6,
                "dur": (end - start) * 1e6,
            }
            if args:
                event["args"] = {str(k): _arg(v) for k, v in args.items()}
            trace_events.append(event)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write(self, path: str, process_name: str = "repro") -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(process_name), fh, indent=1)

    def __repr__(self):
        return (f"<tracer {len(self.events)} spans, "
                f"{len(self.phases())} phases>")


def _arg(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# -- the process-global tracer ------------------------------------------------------

_TRACER: Tracer = None


def enable(tracer: Tracer = None) -> Tracer:
    """Install (and return) the process-global tracer."""
    global _TRACER
    _TRACER = tracer or Tracer()
    return _TRACER


def disable() -> None:
    global _TRACER
    _TRACER = None


def current() -> Tracer:
    """The installed tracer, or None when tracing is disabled."""
    return _TRACER


def span(name: str, **args):
    """Open a span on the global tracer (no-op when disabled).

    Usage::

        with obs.span("frontend.parse", source=name):
            ...
    """
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, args or None)
