"""Bench gate: ``BENCH_*.json`` trajectory tracking.

:mod:`repro.telemetry.bench` backs ``repro-manet bench record``, which
appends a bench document's metrics to ``bench_history.jsonl``, and
``bench check``, which gates on regressions against a rolling baseline.
Per-run observability lives elsewhere: :mod:`repro.perf` (kernel
counters and run cost) and :mod:`repro.trace` (per-decision provenance).
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

__all__ = [
    "BenchCheckReport",
    "MetricVerdict",
    "check_history",
    "flatten_metrics",
    "infer_bench_name",
    "load_history",
    "record_entry",
]
