"""Paper-workload benchmark for the repro simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-hello --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one after another

``--trace 0`` measures the end-to-end metrics with tracing off over whole
rounds of the workload's scenarios: ``--seconds`` divided by the nominal
round length ``catalog.ROUND_SECONDS``, and at least one.  The number of
rounds is fixed by the arguments, never by the measured time, so that a
faster program or host does not do more rounds (and use more memory).  ``--trace 1`` runs every
second scenario of the workload once untraced and once traced, and reports
the per-layer metrics from spans wrapped around each layer's public entry
points (see ``spans.py``).

Every run is checked (see ``gate.py``).  At the default seed each result
must match its recorded fingerprint; at any other seed the first scenario
is run again and must repeat exactly.  A traced result must equal the
untraced one, and a warm-cache result the cold one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every run passed its check, 1 when one failed, and 2 when the program
cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

WORKLOADS = ("paper-hello", "flood-dense", "figure-sweep")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for result caches and worker files, inside the checkout.
SCRATCH = ROOT / ".perfbench-tmp"
#: Fresh interpreters per run for the set-up measurement.
SETUP_PROBES = 5


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> Optional[str]:
    """Put ``src/`` first on the path and import ``repro`` from it; returns
    an error message instead when that is not possible."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source under {SRC}"
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Measure the default (auto) kernel, here and in every child process.
    os.environ.pop("REPRO_KERNEL", None)
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro: {exc}"
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return f"repro imported from {repro.__file__}, not {SRC}"
    return None


def _setup_probes(workload: Any, seed: int, tiny: bool, gate: Any,
                  count: int) -> List[Dict[str, float]]:
    """Import + first world build in ``count`` fresh interpreters."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
           workload.name, str(seed), "1" if tiny else "0", *workload.imports]
    probes = []
    for _ in range(count):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=120, check=True, cwd=ROOT)
            probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            gate.fail("setup", f"probe failed: {exc!r}")
    return probes


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _warm_up(workload: Any) -> None:
    """One tiny run so lazy imports and first-call costs precede timing."""
    from repro.experiments.runner import run_broadcast_simulation

    config = workload.scenarios[0].config.with_overrides(
        num_hosts=10, num_broadcasts=1
    )
    run_broadcast_simulation(config)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _interquartile_mean(values: List[float]) -> float:
    """Mean of the middle half.  Like the median it ignores a few runs that
    a slow spell of the host stretched, but it averages many runs, while
    the median of runs on maps of very different sizes jumps between the
    clusters of sparse-map and dense-map runs from one seed to the next."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return statistics.fmean(middle) if middle else 0.0


def measure(workload: Any, gate: Any, seconds: float, scratch: Path) -> Dict[str, float]:
    """End-to-end metrics over whole untraced rounds."""
    from perfbench.catalog import ROUND_SECONDS
    from perfbench.workloads import run_round

    count = max(1, int(seconds // ROUND_SECONDS))
    rounds = [run_round(workload, gate, scratch=scratch) for _ in range(count)]
    wall = sum(r.wall_s for r in rounds)
    print(f"# measured {len(rounds)} round(s), {wall:.2f} s")
    return {
        "broadcasts_per_s": sum(r.broadcasts for r in rounds) / wall,
        "run_iqm_s": _interquartile_mean(
            [w for r in rounds for w in r.run_walls]),
        "peak_rss_mb": _peak_rss_mb(),
    }


def measure_layers(workload: Any, gate: Any, scratch: Path) -> Dict[str, float]:
    """Per-layer metrics: one untraced round, then one traced round, both
    over the workload's traced share of scenarios."""
    from repro.perf import KernelPerf

    from perfbench import spans
    from perfbench.catalog import PERF_COUNTERS
    from perfbench.workloads import pool_workers, run_round

    workload = workload.traced()
    untraced = run_round(workload, gate, scratch=scratch)
    inst = spans.install()
    try:
        traced = run_round(workload, gate, clock=inst.clock, scratch=scratch)
    finally:
        inst.uninstall()
    clock = inst.clock

    perf = KernelPerf()
    for result in traced.results:
        perf.merge(result.perf)

    def self_s(bucket: str) -> float:
        return clock.self_ns.get(bucket, 0) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    efficiency = 0.0
    if workload.pooled and untraced.cold_wall_s > 0:
        efficiency = sum(untraced.run_walls) / (
            pool_workers() * untraced.cold_wall_s)
    metrics: Dict[str, float] = {
        "sim.self_s": self_s("sim"),
        "sim.events": perf.events_processed,
        "sim.cancelled_frac": ratio(perf.events_cancelled, perf.events_scheduled),
        "phy.self_s": self_s("phy"),
        "phy.rx_per_tx": ratio(perf.vector_candidates, perf.transmissions),
        "phy.delivered_frac": ratio(
            perf.deliveries, perf.deliveries + perf.collisions),
        "mac.self_s": self_s("mac"),
        "mac.calls": clock.calls.get("mac", 0),
        "mac.backoffs": perf.backoffs_started,
        "neighbors.self_s": self_s("neighbors"),
        "neighbors.hello_updates": perf.hello_updates,
        "neighbors.expirations": perf.neighbor_expirations,
        "host.self_s": self_s("host"),
        "network.reachable_s": self_s("network"),
        "mobility.self_s": self_s("mobility"),
        "mobility.pos_hit_rate": perf.pos_hit_rate,
        "mobility.batch_evals": perf.pos_batch_evals,
        "schemes.self_s": self_s("schemes"),
        "metrics.self_s": self_s("metrics"),
        "runner.self_s": self_s("runner"),
        "parallel.cache_put_s": self_s("parallel.cache_put"),
        "parallel.cache_get_s": self_s("parallel.cache_get"),
        "parallel.wait_s": self_s("parallel.wait"),
        "parallel.efficiency": efficiency,
        "parallel.entry_bytes": untraced.entry_bytes,
        "trace.overhead_frac": ratio(traced.wall_s, untraced.wall_s) - 1.0,
        "trace.span_ns": spans.span_cost_ns(),
    }
    for slot in PERF_COUNTERS:
        metrics[f"perf.{slot}"] = getattr(perf, slot)
    covered = sum(clock.self_ns.values()) / 1e9
    print(f"# self times sum to {covered:.3f} s over all processes; traced "
          f"round {traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s")
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: int,
        tiny: bool = False, goldens: Optional[Dict[str, Any]] = None,
        probes: int = SETUP_PROBES) -> Dict[str, Any]:
    """Run one benchmark invocation; returns the result object.

    ``tiny``, ``goldens`` and ``probes`` serve the tests: a shrunken
    workload, fingerprints in place of the recorded ones (which otherwise
    apply at the default seed of a full-size workload), fewer set-up
    probes.
    """
    import numpy

    from repro.experiments.runner import run_broadcast_simulation
    from repro.kernel import resolve_kernel

    from perfbench.catalog import DEFAULT_SEED, END_TO_END, PER_LAYER
    from perfbench.gate import Gate, load_goldens
    from perfbench.workloads import build

    workload = build(workload_name, seed, tiny=tiny)
    if goldens is None and seed == DEFAULT_SEED and not tiny:
        goldens = load_goldens(workload_name)
    gate = Gate(goldens)
    print(f"# workload {workload_name} seed {seed} trace {trace}: "
          f"{len(workload.scenarios)} scenarios; nproc {os.cpu_count()}, "
          f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"kernel {resolve_kernel()}")

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        _warm_up(workload)
        if trace:
            metrics = measure_layers(workload, gate, scratch)
        else:
            metrics = measure(workload, gate, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    if goldens is None:
        first = workload.scenarios[0]
        try:
            gate.check(first.key, run_broadcast_simulation(first.config))
        except Exception as exc:
            gate.fail(first.key, f"repeat raised {exc!r}")

    probes_run = _setup_probes(workload, seed, tiny, gate, probes)
    imports = [p["import_s"] for p in probes_run]
    builds = [p["build_s"] for p in probes_run]
    if trace:
        metrics["setup.import_s"] = _median(imports)
        metrics["setup.build_s"] = _median(builds)
    else:
        metrics["setup_s"] = _median([i + b for i, b in zip(imports, builds)])

    catalog = PER_LAYER if trace else END_TO_END
    units = {m.name: m.unit for m in catalog}
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(f"runs = {gate.attempted}")
    print(f"failed_frac = {gate.failed_frac!r}")
    for failure in gate.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": gate.failed == 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.seed < 1:
        print("error: --seed must be >= 1", file=sys.stderr)
        return 2
    error = _import_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            one = run(name, args.seed, args.seconds, args.trace)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for metric, value in one["metrics"].items():
                result["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
