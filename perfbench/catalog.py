"""What the benchmark measures: workloads, metrics and the layer map.

``BENCHMARK.json`` and ``meta.json`` are written from these tables by
``record.py``; the tests check that the files and the tables agree.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "DEFAULT_SEED",
    "WORKLOADS",
    "Metric",
    "END_TO_END",
    "PER_LAYER",
    "PERF_COUNTERS",
    "RUN_SECONDS",
    "ROUND_SECONDS",
]

#: The seed whose per-scenario fingerprints are pinned in fingerprints.json.
DEFAULT_SEED = 1

#: Seconds of work one run measures (whole rounds; see run.py).
RUN_SECONDS = 30

#: Nominal length of one round of any workload: each workload's scenario
#: list takes roughly 11 to 35 s on a 2-vCPU Xeon host whose speed drifts
#: with its other load.  A run does ``seconds // ROUND_SECONDS`` rounds (at
#: least one), so how much work it does never depends on how fast the host
#: or the program is.
ROUND_SECONDS = 30

#: name -> one-sentence reason the workload is in the benchmark.
WORKLOADS: Dict[str, str] = {
    "paper-hello": (
        "The paper's own workload (AC, AL, NC-DHI on maps 1/5/7/9/11, 100 "
        "hosts, 34 broadcasts, HELLO on, 2 seeds each): the neighbor layer "
        "does most of its work here."
    ),
    "flood-dense": (
        "Flooding, 1000 hosts on map 1, 32 seeds, HELLO off: phy, mac and "
        "sim carry the load and neighbors does zero work."
    ),
    "figure-sweep": (
        "Fig. 13 lineup x 6 maps x 4 seeds through ParallelRunner, cold then "
        "warm cache: the user's wait to regenerate figures."
    ),
}

_ALL = tuple(WORKLOADS)
_IN_PROCESS = ("paper-hello", "flood-dense")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median a metric may worsen by (end-to-end only).
    bound: Optional[float]
    #: End-to-end metrics this one should move.
    moves: Tuple[str, ...]
    #: Workloads where it carries most weight / is expected to be ~nothing.
    mostly_on: Tuple[str, ...]
    nothing_on: Tuple[str, ...]
    #: "timing", "memory", "count" (repeats exactly for a given seed),
    #: "ratio" (of counts, so also exact) or "computed".
    kind: str
    what: str


def _m(name, unit, better, kind, what, moves=(), mostly=(), nothing=(),
       bound=None) -> Metric:
    return Metric(name, unit, better, bound, tuple(moves), tuple(mostly),
                  tuple(nothing), kind, what)


_BPS = ("broadcasts_per_s",)

END_TO_END: List[Metric] = [
    _m("broadcasts_per_s", "1/s", "higher", "timing",
       "Broadcast requests completed per wall-second over the measured "
       "rounds (figure-sweep counts cold and warm results).",
       mostly=_ALL, bound=0.25),
    _m("run_iqm_s", "s", "lower", "timing",
       "Interquartile mean (mean of the middle half) of the wall time per "
       "simulation: the benchmark's timer around "
       "run_broadcast_simulation, or each cold result's wall_time for "
       "figure-sweep.",
       mostly=_ALL, bound=0.25),
    _m("setup_s", "s", "lower", "timing",
       "Median over fresh interpreters of importing repro plus building "
       "the workload's first world (Network construction).",
       mostly=_ALL, bound=0.25),
    _m("peak_rss_mb", "MB", "lower", "memory",
       "Peak RSS of the benchmark process, plus the pool children's peak "
       "for figure-sweep.",
       mostly=_ALL, bound=0.10),
]

#: KernelPerf slots reported per workload as exact counts (perf.<slot>).
PERF_COUNTERS: Tuple[str, ...] = (
    "events_scheduled", "events_processed", "events_cancelled",
    "heap_compactions", "events_pending_final", "cancelled_pending_final",
    "transmissions", "deliveries", "collisions", "deaf_misses",
    "grid_rebuilds", "batch_scans", "vector_candidates",
    "frames_sent", "frames_received", "frames_corrupted",
    "backoffs_started", "pos_hits", "pos_misses", "pos_batch_evals",
    "hello_updates", "neighbor_expirations",
)

PER_LAYER: List[Metric] = [
    _m("sim.self_s", "s", "lower", "timing",
       "Self time of Scheduler.run/schedule_at and of callbacks owned by "
       "repro.sim.", _BPS, ("flood-dense",)),
    _m("sim.events", "count", "lower", "count",
       "Events executed (KernelPerf.events_processed).", _BPS,
       ("flood-dense",)),
    _m("sim.cancelled_frac", "ratio", "lower", "ratio",
       "events_cancelled / events_scheduled.", _BPS, ("flood-dense",)),
    _m("phy.self_s", "s", "lower", "timing",
       "Self time of the channel's entry points and phy-owned callbacks.",
       _BPS, ("flood-dense",), ("paper-hello",)),
    _m("phy.rx_per_tx", "ratio", "lower", "ratio",
       "vector_candidates / transmissions: receivers scanned per frame.",
       _BPS, ("flood-dense",), ("paper-hello",)),
    _m("phy.delivered_frac", "ratio", "higher", "ratio",
       "deliveries / (deliveries + collisions).", _BPS, ("flood-dense",),
       ("paper-hello",)),
    _m("mac.self_s", "s", "lower", "timing",
       "Self time of CsmaCaMac.send/on_* and mac-owned callbacks.", _BPS,
       ("flood-dense",)),
    _m("mac.calls", "count", "lower", "count",
       "Spans charged to mac (wrapped calls plus dispatched callbacks).",
       _BPS, ("flood-dense",)),
    _m("mac.backoffs", "count", "lower", "count",
       "Backoff procedures started (KernelPerf.backoffs_started).", _BPS,
       ("flood-dense",)),
    _m("neighbors.self_s", "s", "lower", "timing",
       "Self time of NeighborTable.update_from_hello/purge/neighbor_count/"
       "two_hop_neighbors.", _BPS + ("run_iqm_s",), ("paper-hello",),
       ("flood-dense",)),
    _m("neighbors.hello_updates", "count", "lower", "count",
       "HELLO-driven neighbor table writes.", _BPS + ("run_iqm_s",),
       ("paper-hello",), ("flood-dense",)),
    _m("neighbors.expirations", "count", "lower", "count",
       "Neighbor entries expired.", _BPS + ("run_iqm_s",),
       ("paper-hello",), ("flood-dense",)),
    _m("host.self_s", "s", "lower", "timing",
       "Self time of MobileHost.on_frame_* and host-owned callbacks "
       "(HELLO timers).", _BPS, ("paper-hello",), ("flood-dense",)),
    _m("network.reachable_s", "s", "lower", "timing",
       "Self time of Network.reachable_from (the connectivity snapshot "
       "behind RE), excluding its position reads.", _BPS,
       ("flood-dense",)),
    _m("mobility.self_s", "s", "lower", "timing",
       "Self time of PositionStore.arrays_at/position_of.", _BPS,
       ("paper-hello", "flood-dense")),
    _m("mobility.pos_hit_rate", "ratio", "higher", "ratio",
       "pos_hits / (pos_hits + pos_misses).", _BPS,
       ("paper-hello", "flood-dense")),
    _m("mobility.batch_evals", "count", "lower", "count",
       "Batched all-host position evaluations (pos_batch_evals).", _BPS,
       ("paper-hello", "flood-dense")),
    _m("schemes.self_s", "s", "lower", "timing",
       "Self time of the schemes' on_first_hear/on_hear_again and "
       "scheme-owned callbacks (RAD timers).", _BPS, ("paper-hello",),
       ("flood-dense",)),
    _m("metrics.self_s", "s", "lower", "timing",
       "Self time of MetricsCollector.on_*.", _BPS, ("paper-hello",),
       ("flood-dense",)),
    _m("runner.self_s", "s", "lower", "timing",
       "Self time of run_broadcast_simulation outside every other span: "
       "world build, traffic set-up and the summary.", _BPS, _ALL),
    _m("parallel.cache_put_s", "s", "lower", "timing",
       "Time in ResultCache.put.", _BPS + ("peak_rss_mb",),
       ("figure-sweep",), _IN_PROCESS),
    _m("parallel.cache_get_s", "s", "lower", "timing",
       "Time in ResultCache.get (cold misses and warm hits).",
       _BPS + ("peak_rss_mb",), ("figure-sweep",), _IN_PROCESS),
    _m("parallel.wait_s", "s", "lower", "timing",
       "Self time of ParallelRunner.run_many: waiting on the pool, "
       "digesting configs, pickling.", _BPS + ("peak_rss_mb",),
       ("figure-sweep",), _IN_PROCESS),
    _m("parallel.efficiency", "ratio", "higher", "computed",
       "Sum of cold run wall_time / (workers x cold pass wall), untraced.",
       _BPS + ("peak_rss_mb",), ("figure-sweep",), _IN_PROCESS),
    _m("parallel.entry_bytes", "bytes", "lower", "computed",
       "Mean size of one result-cache entry on disk.",
       _BPS + ("peak_rss_mb",), ("figure-sweep",), _IN_PROCESS),
    _m("setup.import_s", "s", "lower", "timing",
       "Median time to import repro in a fresh interpreter.",
       ("setup_s",), _ALL),
    _m("setup.build_s", "s", "lower", "timing",
       "Median time to build the first world in a fresh interpreter.",
       ("setup_s",), _ALL),
    _m("trace.overhead_frac", "ratio", "lower", "timing",
       "(traced round wall / untraced round wall) - 1.", (), _ALL),
    _m("trace.span_ns", "ns", "lower", "timing",
       "Added cost of one span (wrapped minus bare no-op call); self "
       "times include it once per span and per child span.", (), _ALL),
] + [
    _m(f"perf.{slot}", "count", "lower", "count",
       f"KernelPerf.{slot} summed over the traced round's simulations "
       "(repeats exactly for a given seed).", (), _ALL)
    for slot in PERF_COUNTERS
]
