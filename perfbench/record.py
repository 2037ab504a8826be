"""Regenerate the benchmark's recorded files from the tables in catalog.py.

Usage (from the root of a checkout)::

    python3 perfbench/record.py                 # BENCHMARK.json, meta.json
    python3 perfbench/record.py --fingerprints  # also fingerprints.json

``--fingerprints`` simulates every scenario of every workload at the
default seed, in this process, and pins the results.  Only do that when the
simulator's behaviour is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"


def benchmark_spec() -> Dict[str, Any]:
    from perfbench.catalog import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def layer_map() -> Dict[str, Any]:
    """layer -> wrapped entry points and the metrics that read them."""
    from perfbench import spans
    from perfbench.catalog import PER_LAYER

    inst = spans.install()
    try:
        wrapped = inst.wrapped()
    finally:
        inst.uninstall()
    layers: Dict[str, Any] = {}
    for bucket, names in wrapped.items():
        entry = layers.setdefault(bucket.split(".")[0], {"wrapped": []})
        entry["wrapped"].extend(names)
    layers["runner"] = {"wrapped": [
        "repro.experiments.runner.run_broadcast_simulation "
        "(each simulation's root span, opened by the benchmark)"]}
    layers["sim"]["dispatch"] = (
        "Scheduler.schedule_at wraps every scheduled callback in a span "
        "charged to the layer of the callback owner's module")
    for layer, entry in layers.items():
        entry["metrics"] = [m.name for m in PER_LAYER
                            if m.name.split(".")[0] == layer]
    return layers


def metric_table() -> Dict[str, Any]:
    from perfbench.catalog import END_TO_END, PER_LAYER

    table = {}
    for scope, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for m in metrics:
            table[m.name] = {
                "scope": scope, "unit": m.unit, "better": m.better,
                "kind": m.kind, "exact": m.kind in ("count", "ratio"),
                "moves": list(m.moves), "mostly_on": list(m.mostly_on),
                "nothing_on": list(m.nothing_on), "what": m.what,
            }
    return table


def platform_record() -> Dict[str, Any]:
    import numpy

    from repro.kernel import resolve_kernel

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_mode": resolve_kernel(),
        "kernel_note": "REPRO_KERNEL is removed from the environment, so "
                       "the simulator resolves its default 'auto' mode.",
        "result_cache": "figure-sweep uses a fresh temporary ResultCache "
                        "under .perfbench-tmp/ in the checkout, deleted "
                        "after each round; never .repro-cache/.",
    }


def meta() -> Dict[str, Any]:
    from perfbench.catalog import DEFAULT_SEED, WORKLOADS

    return {
        "default_seed": DEFAULT_SEED,
        "platform": platform_record(),
        "workloads": WORKLOADS,
        "layers": layer_map(),
        "metrics": metric_table(),
    }


def fingerprints() -> Dict[str, Any]:
    from repro.experiments.runner import run_broadcast_simulation

    from perfbench.catalog import DEFAULT_SEED, WORKLOADS
    from perfbench.gate import fingerprint
    from perfbench.workloads import build

    out = {}
    for name in WORKLOADS:
        out[name] = {
            s.key: fingerprint(run_broadcast_simulation(s.config))
            for s in build(name, DEFAULT_SEED).scenarios
        }
        print(f"{name}: {len(out[name])} fingerprints", file=sys.stderr)
    return out


def _write(path: Path, data: Any) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fingerprints", action="store_true")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ.pop("REPRO_KERNEL", None)
    _write(ROOT / "BENCHMARK.json", benchmark_spec())
    _write(HERE / "meta.json", meta())
    if args.fingerprints:
        _write(HERE / "fingerprints.json", fingerprints())
    return 0


if __name__ == "__main__":
    sys.exit(main())
