"""repro.obs: the observability layer for the whole measurement stack.

Four subsystems, all off by default and engineered so the disabled
path costs (near) nothing and never changes behaviour:

* :mod:`~repro.obs.trace` — nested span tracing across every pipeline
  phase, exported as Chrome trace-event JSON (``repro trace``);
* :mod:`~repro.obs.profile` — the x86 machine's one instrument
  (:class:`~repro.obs.profile.Attribution`: per-function and per-opcode
  retired-event attribution over the executor's enter/retire/exit
  hook), the entry point that ``repro profile`` and ``repro explain``
  share, and the simulated ``perf annotate`` comparing native vs wasm
  builds;
* :mod:`~repro.obs.metrics` — counters/gauges/histograms wired into the
  kernel, compile cache, and parallel runner (``--stats``,
  ``repro report --json``);
* :mod:`~repro.obs.hwc` — a deterministic microarchitectural event
  model (branch predictor, L1 d-cache, spill accounting, cycle
  decomposition) extending that instrument, behind ``repro stat`` and
  ``repro explain``.

The invariant the test suite enforces: with observability disabled,
every benchmark result, counter value, and program output is
bit-identical to a build without the instrumentation.
"""

from .metrics import (
    NULL_REGISTRY, Counter, Gauge, Histogram, MetricsRegistry,
    get_registry, metrics_enabled,
)
from .metrics import disable as disable_metrics
from .metrics import enable as enable_metrics
from .hwc import (
    BranchHwc, BranchPredictor, GapExplanation, HwcCounters, HwcModel,
    HwcReport, class_cycles, explain_benchmark, hwc_cycles,
)
from .profile import (
    PROFILE_FIELDS, Attribution, AttributionReport, FunctionCounters,
    ProfileComparison, attribute_benchmark, profile_benchmark,
)
from .trace import NULL_SPAN, Tracer, current, span
from .trace import disable as disable_tracing
from .trace import enable as enable_tracing

__all__ = [
    "span", "Tracer", "current", "enable_tracing", "disable_tracing",
    "NULL_SPAN",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "get_registry",
    "enable_metrics", "disable_metrics", "metrics_enabled",
    "NULL_REGISTRY",
    "Attribution", "AttributionReport", "FunctionCounters",
    "ProfileComparison", "attribute_benchmark",
    "profile_benchmark", "PROFILE_FIELDS",
    "HwcModel", "HwcCounters", "HwcReport", "BranchHwc",
    "BranchPredictor", "GapExplanation", "explain_benchmark",
    "hwc_cycles", "class_cycles",
]
