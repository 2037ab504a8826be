"""Runner cost: a single-worker ``ParallelRunner`` must stay within a
small factor of the bare kernel.

The runner's bookkeeping (cache lookup, perf counters, result ordering)
is paid once per *run*, never per event.  The run-cost snapshots (one
getrusage call and two ``gc.get_stats()`` walks per run) sit inside
``run_broadcast_simulation``, so both sides of the comparison pay them.
This benchmark runs interleaved CPU-time pairs of the microbench
scenario and asserts on the lower of two estimators -- the **median
per-pair ratio** and the **ratio of per-arm minima** -- the same noise
armour as ``benchmarks/test_trace_overhead.py``: a leaked hot-path cost
moves both estimators, shared-machine spikes flake neither.  Attempts
over the ceiling are remeasured (noise is transient; regressions are
not).

The guarded comparison: bare ``run_broadcast_simulation`` vs a
single-worker ``ParallelRunner`` (no cache).

Env knobs:

- ``REPRO_TELEMETRY_MAX_OVERHEAD`` -- allowed fractional slowdown
  (default 0.05).  Set to 0 to record without asserting.
- ``REPRO_TELEMETRY_REPS`` -- interleaved pairs per attempt (default 5).
- ``REPRO_TELEMETRY_ATTEMPTS`` -- measurement attempts before the
  ceiling verdict is final (default 3).
"""

import os
import time

from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import run_broadcast_simulation

MAX_OVERHEAD = float(os.environ.get("REPRO_TELEMETRY_MAX_OVERHEAD", "0.05"))
REPS = int(os.environ.get("REPRO_TELEMETRY_REPS", "5") or "5")
ATTEMPTS = int(os.environ.get("REPRO_TELEMETRY_ATTEMPTS", "3") or "3")


def config():
    # The microbench scenario (benchmarks/test_microbench.py's
    # end-to-end flooding run).
    return ScenarioConfig(
        scheme="flooding",
        map_units=3,
        num_hosts=50,
        num_broadcasts=10,
        seed=5,
    )


def timed(fn):
    start = time.process_time()
    out = fn()
    return time.process_time() - start, out


def measure(label, baseline_arm, candidate_arm):
    """One attempt: REPS interleaved pairs -> fractional overhead."""
    base_cpus, cand_cpus = [], []
    for _ in range(max(1, REPS)):
        base_cpu, _ = timed(baseline_arm)
        cand_cpu, _ = timed(candidate_arm)
        base_cpus.append(base_cpu)
        cand_cpus.append(cand_cpu)

    ratios = sorted(c / b for c, b in zip(cand_cpus, base_cpus))
    median = ratios[len(ratios) // 2]
    best_of = min(cand_cpus) / min(base_cpus)
    overhead = min(median, best_of) - 1.0
    print(
        f"\n{label} overhead: {overhead:+.1%} "
        f"(median pair ratio {median - 1:+.1%}, ratio of minima "
        f"{best_of - 1:+.1%}; {len(ratios)} interleaved CPU-time pairs: "
        + ", ".join(f"{r - 1:+.1%}" for r in ratios)
        + ")"
    )
    return overhead


def bounded(label, baseline_arm, candidate_arm, hint):
    overhead = float("inf")
    for attempt in range(max(1, ATTEMPTS)):
        overhead = min(overhead, measure(label, baseline_arm, candidate_arm))
        if MAX_OVERHEAD <= 0 or overhead <= MAX_OVERHEAD:
            break
        print(f"over ceiling on attempt {attempt + 1}; remeasuring")
    if MAX_OVERHEAD > 0:
        assert overhead <= MAX_OVERHEAD, (
            f"{label} costs {overhead:+.1%} "
            f"(ceiling {MAX_OVERHEAD:.0%}, best of {ATTEMPTS} attempts); "
            + hint
        )


def test_runner_overhead_is_bounded():
    cfg = config()
    runner = ParallelRunner(max_workers=1)

    run_broadcast_simulation(cfg)  # warm both paths before timing
    runner.run_many([cfg])

    bounded(
        "runner",
        lambda: run_broadcast_simulation(cfg),
        lambda: runner.run_many([cfg]),
        "the runner is probably doing per-event work that belongs in "
        "its once-per-run bookkeeping",
    )
