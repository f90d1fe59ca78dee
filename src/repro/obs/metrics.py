"""Metrics: counters, gauges, and histograms for the whole stack.

The registry is the quantitative face of the observability layer: the
kernel reports syscall counts and per-call cycle costs, the compile
cache reports hits/misses/evictions, and the parallel runner reports
per-worker utilization and queue wait.  Everything is surfaced through
``--stats`` on the CLI and the ``metrics`` block of ``repro report
--json``.

A pool worker measures each cell into a registry of its own and sends
it back with the result; the parent folds it in with
:meth:`MetricsRegistry.merge`, so one registry holds every worker's
counts.  A pooled sweep's ``kernel.*`` counts equal a serial sweep's;
its ``cache.*``, ``opt.*`` and ``analysis.*`` counts are each worker's
own compiles, and ``runner.queue_wait_seconds`` and ``pool.*`` exist
only in a pooled sweep.

Like tracing, metrics default to a *null sink*: :func:`get_registry`
returns :data:`NULL_REGISTRY`, whose instruments share no-op singletons,
so an instrumentation point costs one method call and touches no state.
Enabling metrics swaps in a real :class:`MetricsRegistry`; measurements
themselves are never perturbed — metrics only observe.
"""

from __future__ import annotations


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self):
        return f"<counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self):
        return f"<gauge {self.name}={self.value}>"


class Histogram:
    """A distribution: count/sum/min/max plus a bounded sample.

    The sample keeps the first :data:`SAMPLE_CAP` observations (the
    simulated workloads are deterministic, so a prefix is an unbiased
    sample of the whole stream for percentile purposes); count and sum
    stay exact regardless.
    """

    SAMPLE_CAP = 65536

    __slots__ = ("name", "count", "total", "min", "max", "sample")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.sample: list[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.sample) < Histogram.SAMPLE_CAP:
            self.sample.append(value)

    def merge(self, other: "Histogram") -> None:
        """Pool ``other`` into this histogram: count, sum, min and max
        exactly, and ``other``'s sample up to the cap."""
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if self.min is None or other.min < self.min:
            self.min = other.min
        if self.max is None or other.max > self.max:
            self.max = other.max
        room = Histogram.SAMPLE_CAP - len(self.sample)
        self.sample.extend(other.sample[:room])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        from ..harness.stats import percentile
        return percentile(self.sample, p)

    def as_dict(self) -> dict:
        from ..harness.stats import p50, p95, p99
        return {
            "count": self.count, "sum": self.total, "mean": self.mean,
            "min": self.min, "max": self.max,
            "p50": p50(self.sample), "p95": p95(self.sample),
            "p99": p99(self.sample),
        }

    def __repr__(self):
        return f"<histogram {self.name} n={self.count} mean={self.mean:g}>"


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Name -> instrument registry; instruments are created on demand."""

    enabled = True

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` (a pool worker's registry for one cell) into
        this one: counters add and histograms pool; gauges are
        per-process readings and stay as they are."""
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, hist in other.histograms.items():
            self.histogram(name).merge(hist)

    def as_dict(self) -> dict:
        """All instruments as plain JSON-serializable data."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.as_dict()
                           for name, h in sorted(self.histograms.items())},
        }

    def summary_lines(self) -> list:
        """Human-readable one-line-per-instrument summary."""
        lines = []
        for name, counter in sorted(self.counters.items()):
            lines.append(f"{name}: {counter.value}")
        for name, gauge in sorted(self.gauges.items()):
            lines.append(f"{name}: {gauge.value:g}")
        for name, hist in sorted(self.histograms.items()):
            d = hist.as_dict()
            lines.append(
                f"{name}: n={d['count']} mean={d['mean']:g} "
                f"p50={d['p50']:g} p95={d['p95']:g} p99={d['p99']:g}")
        return lines

    def __repr__(self):
        return (f"<metrics {len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, "
                f"{len(self.histograms)} histograms>")


class _NullRegistry:
    """The disabled sink: every instrument is the shared no-op."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str):
        return NULL_INSTRUMENT

    def gauge(self, name: str):
        return NULL_INSTRUMENT

    def histogram(self, name: str):
        return NULL_INSTRUMENT

    def as_dict(self) -> dict:
        return {}

    def summary_lines(self) -> list:
        return []


NULL_REGISTRY = _NullRegistry()

_REGISTRY = NULL_REGISTRY


def enable(registry: MetricsRegistry = None) -> MetricsRegistry:
    """Install (and return) the process-global metrics registry."""
    global _REGISTRY
    _REGISTRY = registry or MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    global _REGISTRY
    _REGISTRY = NULL_REGISTRY


def get_registry():
    """The active registry (the null sink when metrics are disabled)."""
    return _REGISTRY


def metrics_enabled() -> bool:
    return _REGISTRY.enabled
