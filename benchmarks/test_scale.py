"""Scale sweep: events/sec by host count on the dense flooding scenario.

Runs the fig. 13-style dense scenario (everyone in one unit square,
blind flooding) at growing host counts and emits ``BENCH_scale.json``
with the measured throughput curve.  The broadcast count shrinks as the
host count grows so every point stays a few seconds of kernel work;
events/sec is the honest cross-size metric.

Two guards before any throughput claim:

- **bit-identity** -- at every recorded size the run must process exactly
  the scheduler events recorded in ``RECORDED`` (the same scenario
  replays the same simulation);
- **speedup floor** -- at ``ASSERT_AT`` hosts and above, throughput must
  beat the recorded events/sec of the retired per-host scalar kernel by
  ``REPRO_SCALE_MIN_SPEEDUP`` (default 3.0; set 0 to record without
  asserting).  The scalar figures are fixed numbers from one machine, so
  on other hardware the floor is approximate, as in
  ``test_kernel_speedup.py``.

The sweep also times the batch driver
(:func:`repro.experiments.runner.run_broadcast_batch`) at the largest
size: many seeds, one process, shared numpy allocations.

Env knobs (see ``conftest.py`` for the first two):

- ``REPRO_BENCH_HOSTS`` -- comma-separated host counts
  (default ``100,250,500,1000,2000``).
- ``REPRO_BENCH_REPS`` -- timing repetitions, best-of (default 2).
- ``REPRO_SCALE_MIN_SPEEDUP`` -- floor over the recorded scalar events/sec
  (default 3.0).
- ``REPRO_SCALE_OUT`` -- output path (default ``BENCH_scale.json``).
"""

import json
import os
import platform
import time

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import (
    run_broadcast_batch,
    run_broadcast_simulation,
)

MIN_SPEEDUP = float(os.environ.get("REPRO_SCALE_MIN_SPEEDUP", "3.0"))
OUT_PATH = os.environ.get("REPRO_SCALE_OUT", "BENCH_scale.json")

#: Host count at (and above) which the speedup floor is asserted; smaller
#: sizes are recorded for the curve but carry too little per-scan work
#: for the vectorization win to be stable across machines.
ASSERT_AT = 1000

#: Seeds for the batch-mode measurement at the largest size.
BATCH_SEEDS = (1, 2, 3)

#: Per host count: (scheduler events, scalar-kernel events/sec), as
#: recorded in the committed ``BENCH_scale.json`` (Python 3.11.7, x86_64,
#: one CPU) when both kernels still ran side by side.
RECORDED = {
    100: (19280, 41466.568518043605),
    250: (18529, 18667.154339930847),
    500: (18393, 9287.714298484567),
    1000: (17813, 3464.2149613742586),
    2000: (23492, 1149.288567551834),
}


def dense_config(num_hosts: int) -> ScenarioConfig:
    """Dense map-1 flooding, broadcasts scaled down with host count."""
    return ScenarioConfig(
        scheme="flooding",
        map_units=1,
        num_hosts=num_hosts,
        num_broadcasts=max(2, 3000 // num_hosts),
        seed=1,
    )


def _best_run(config: ScenarioConfig, reps: int):
    """Best-of-``reps`` wall time; returns (events_processed, wall)."""
    best_wall = float("inf")
    events = None
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        result = run_broadcast_simulation(config)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
            events = result.events_processed
    return events, best_wall


def test_scale_sweep_and_bench_json(scale_sweep):
    sizes, reps = scale_sweep
    rows = []
    for num_hosts in sizes:
        config = dense_config(num_hosts)
        events, wall = _best_run(config, reps)
        eps = events / wall
        row = {
            "num_hosts": num_hosts,
            "num_broadcasts": config.num_broadcasts,
            "events_processed": events,
            "vector_wall": wall,
            "vector_events_per_sec": eps,
        }
        if num_hosts in RECORDED:
            recorded_events, scalar_eps = RECORDED[num_hosts]
            # Bit-identity guard before any throughput claim.
            assert events == recorded_events, (
                f"{num_hosts} hosts: processed {events} events, recorded "
                f"{recorded_events}: the simulation changed"
            )
            row["scalar_events_per_sec"] = scalar_eps
            row["speedup"] = eps / scalar_eps
        rows.append(row)
        print(
            f"\n{num_hosts:>5} hosts: {eps:>10,.0f} eps"
            + (f" ({row['speedup']:.2f}x recorded scalar)"
               if "speedup" in row else "")
            + f", {events} events"
        )

    # Batch mode at the largest size: per-seed eps with shared buffers.
    largest = dense_config(sizes[-1])
    start = time.perf_counter()
    batch = run_broadcast_batch(largest, list(BATCH_SEEDS))
    batch_wall = time.perf_counter() - start
    batch_events = sum(r.events_processed for r in batch)
    batch_eps = batch_events / batch_wall
    print(
        f"batch x{len(BATCH_SEEDS)} @ {sizes[-1]} hosts: "
        f"{batch_events} events in {batch_wall:.3f}s = {batch_eps:,.0f} eps"
    )

    report = {
        "scenario": {
            "scheme": "flooding",
            "map_units": 1,
            "seed": 1,
            "broadcasts": "max(2, 3000 // num_hosts)",
        },
        "reps": reps,
        "sweep": rows,
        "batch": {
            "num_hosts": sizes[-1],
            "seeds": list(BATCH_SEEDS),
            "events_processed": batch_events,
            "wall": batch_wall,
            "events_per_sec": batch_eps,
        },
        "min_speedup_asserted": MIN_SPEEDUP if MIN_SPEEDUP > 0 else None,
        "assert_at_hosts": ASSERT_AT,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {OUT_PATH}")

    if MIN_SPEEDUP > 0:
        for row in rows:
            if row["num_hosts"] < ASSERT_AT or "speedup" not in row:
                continue
            assert row["speedup"] >= MIN_SPEEDUP, (
                f"{row['num_hosts']} hosts: only {row['speedup']:.2f}x the "
                f"recorded scalar events/sec (floor {MIN_SPEEDUP}x); rerun "
                f"on a quiet machine or lower REPRO_SCALE_MIN_SPEEDUP"
            )
