"""Service telemetry: metrics registry, exposition, bench gate.

The third observability layer, alongside :mod:`repro.perf` (per-run
kernel counters and run cost) and :mod:`repro.trace` (per-decision
provenance):

- :mod:`repro.telemetry.registry` -- process-wide counters / gauges /
  histograms with labels; **zero-cost when unarmed** via the same
  ``x is not None`` guard discipline as tracing.  Armed by the campaign
  service and anything else that wants live metrics.
- :mod:`repro.telemetry.expose` -- Prometheus text exposition (the
  service's ``GET /metrics``) plus a strict validator.
- :mod:`repro.telemetry.bench` -- ``BENCH_*.json`` trajectory tracking:
  ``repro-manet bench record`` appends to ``bench_history.jsonl``,
  ``bench check`` gates on regressions vs a rolling baseline.

Instrumentation lives in the orchestration layers (parallel runner,
result cache, campaign executor/checkpoint, HTTP service) -- never in
the simulation kernel, whose hot path stays telemetry-free by design.
"""

from repro.telemetry.bench import (
    BenchCheckReport,
    MetricVerdict,
    check_history,
    flatten_metrics,
    infer_bench_name,
    load_history,
    record_entry,
)
from repro.telemetry.expose import (
    CONTENT_TYPE,
    render_prometheus,
    validate_exposition,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    arm,
    counter_value,
    disarm,
    registry,
)

__all__ = [
    "BenchCheckReport",
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricVerdict",
    "MetricsRegistry",
    "arm",
    "check_history",
    "counter_value",
    "disarm",
    "flatten_metrics",
    "infer_bench_name",
    "load_history",
    "record_entry",
    "registry",
    "render_prometheus",
    "validate_exposition",
]
