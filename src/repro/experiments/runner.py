"""Run one scenario end to end (or a sweep of them)."""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.recorder import TraceRecorder

from repro.experiments.config import ScenarioConfig
from repro.faults.injector import FaultInjector
from repro.metrics.collector import (
    FaultEventRecord,
    MetricsCollector,
    SimulationSummary,
)
from repro.mobility.map import RectMap
from repro.mobility.store import PositionBuffers
from repro.net.network import Network
from repro.perf import KernelPerf, peak_rss_bytes
from repro.phy.channel import ChannelStats
from repro.schemes import make_scheme
from repro.sim.engine import Scheduler
from repro.sim.randomness import RandomStreams

__all__ = [
    "SimulationResult",
    "run_broadcast_simulation",
    "run_broadcast_batch",
    "run_sweep",
]


@dataclass
class SimulationResult:
    """Output of one simulation run."""

    config: ScenarioConfig
    metrics: MetricsCollector
    stats: SimulationSummary
    channel_stats: ChannelStats
    end_time: float
    events_processed: int
    #: Total MAC backoff procedures across all hosts (contention proxy).
    backoffs_started: int = 0
    #: Executed fault events, in order (empty without a fault plan).
    fault_trace: List[FaultEventRecord] = field(default_factory=list)
    #: Broadcast requests skipped because the drawn source was down.
    broadcasts_skipped: int = 0
    #: Host wall-clock seconds this run took (build + simulate + summarize).
    #: Perf metadata: excluded from value equality.
    wall_time: float = field(default=0.0, compare=False)
    #: Process-lifetime peak RSS at the end of the run (``ru_maxrss``
    #: never decreases, so a batch's later runs inherit earlier peaks).
    #: Host noise: excluded from value equality.
    peak_rss_bytes: int = field(default=0, compare=False)
    #: Garbage collections (all generations) that ran during the run.
    #: Host noise: excluded from value equality.
    gc_collections: int = field(default=0, compare=False)
    #: Whether this result was served from the on-disk result cache
    #: (see :mod:`repro.experiments.parallel`) instead of simulated.
    #: Provenance metadata: excluded from value equality.
    from_cache: bool = field(default=False, compare=False)
    #: Kernel counters collected at the end of the run (see
    #: :class:`repro.perf.KernelPerf`).  Perf metadata: excluded from
    #: value equality (the counters themselves are deterministic, but a
    #: result loaded from a dict may lack them).
    perf: Optional[KernelPerf] = field(default=None, compare=False)

    @property
    def events_per_sec(self) -> float:
        """Scheduler events executed per wall-clock second (perf counter)."""
        if self.wall_time <= 0.0:
            return math.nan
        return self.events_processed / self.wall_time

    @property
    def re(self) -> float:
        """Mean reachability (NaN if undefined for every broadcast)."""
        return self.stats.reachability.mean if self.stats.reachability else math.nan

    @property
    def srb(self) -> float:
        """Mean saved-rebroadcast fraction."""
        return (
            self.stats.saved_rebroadcast.mean
            if self.stats.saved_rebroadcast
            else math.nan
        )

    @property
    def latency(self) -> float:
        """Mean broadcast latency in seconds."""
        return self.stats.latency.mean if self.stats.latency else math.nan

    @property
    def hellos(self) -> int:
        return self.stats.hello_packets_sent

    def summary(self) -> str:
        """One-line human-readable result."""
        line = (
            f"{self.config.label()}: RE={self.re:.3f} SRB={self.srb:.3f} "
            f"latency={self.latency * 1000:.1f}ms "
            f"broadcasts={self.stats.broadcasts} hellos={self.hellos}"
        )
        if self.fault_trace or self.broadcasts_skipped:
            line += (
                f" faults={len(self.fault_trace)}"
                f" skipped={self.broadcasts_skipped}"
            )
        return line


def run_broadcast_simulation(
    config: ScenarioConfig,
    network_hook: Optional[Callable[[Network], None]] = None,
    trace: Optional["TraceRecorder"] = None,
    position_buffers: Optional[PositionBuffers] = None,
) -> SimulationResult:
    """Build the world from ``config``, drive traffic, and summarize.

    ``network_hook`` (if given) runs after network construction but before
    the simulation starts -- used by tests to inject faults or replace
    pieces.

    ``trace`` (an optional :class:`repro.trace.TraceRecorder`) arms the
    structured tracing instrumentation across every layer; with the
    recorder's ``sample_dt`` set, the time-series sampler runs too.  Tracing
    is not part of :class:`ScenarioConfig` on purpose: it never changes
    results, so cached-result digests stay comparable traced or not.

    ``position_buffers`` lets a batch driver share the position store's
    numpy allocations across runs; like tracing, it never changes results
    and is not part of :class:`ScenarioConfig`.

    Broadcast sources are picked uniformly at random per request and the
    interarrival time is uniform in [0, ``interarrival_max``], per the
    paper.  Traffic begins after a warm-up long enough for neighbor tables
    to populate.
    """
    wall_start = time.perf_counter()
    gc_start = _gc_collections()
    scheduler = Scheduler()
    streams = RandomStreams(config.seed)
    metrics = MetricsCollector(store_reachable_sets=config.store_reachable_sets)
    world = RectMap.square_units(config.map_units, config.unit_length)

    def scheme_factory():
        return make_scheme(config.scheme, **config.scheme_params)

    network = Network(
        scheduler=scheduler,
        params=config.phy,
        world=world,
        streams=streams,
        num_hosts=config.num_hosts,
        scheme_factory=scheme_factory,
        metrics=metrics,
        max_speed_kmh=config.resolved_max_speed_kmh,
        mobility=config.mobility,
        hello_config=config.hello,
        oracle_neighbors=config.oracle_neighbors,
        capture=config.capture,
        trace=trace,
        position_buffers=position_buffers,
    )
    if trace is not None:
        trace.meta.update(
            scheme=config.scheme,
            seed=config.seed,
            num_hosts=config.num_hosts,
            map_units=config.map_units,
        )
    if network_hook is not None:
        network_hook(network)
    network.start()

    hello_enabled = any(h.hello_enabled for h in network.hosts)
    warmup = config.resolved_warmup(hello_enabled)
    traffic_rng = streams.stream("traffic")

    def initiate(source_id: int) -> None:
        # With faults enabled the drawn source may be down; skip the request
        # (the draw itself already happened, so traffic timing is identical
        # across schemes and across fault plans).
        if not network.hosts[source_id].alive:
            metrics.on_broadcast_skipped(source_id, scheduler.now)
            return
        network.initiate_broadcast(source_id)

    t = warmup
    for _ in range(config.num_broadcasts):
        t += traffic_rng.uniform(0.0, config.interarrival_max)
        source = traffic_rng.randrange(config.num_hosts)
        scheduler.schedule_at(t, initiate, source)
    end_time = t + config.drain

    injector = None
    if config.faults is not None and not config.faults.is_empty():
        # Faults draw exclusively from a forked substream: mobility / MAC /
        # scheme streams see the same sequences with faults on or off.
        injector = FaultInjector(
            scheduler,
            network,
            config.faults,
            streams.fork("faults"),
            horizon=end_time,
            trace_recorder=trace,
        )
        injector.install()

    if trace is not None:
        trace.meta["end_time"] = end_time
        if trace.sample_dt is not None:
            from repro.trace.sampler import TimeSeriesSampler

            TimeSeriesSampler(scheduler, network, metrics, trace).start(
                end_time
            )

    scheduler.run(until=end_time)

    stats = metrics.summarize(end_time)
    perf = KernelPerf.collect(scheduler, network)
    wall_time = time.perf_counter() - wall_start
    return SimulationResult(
        config=config,
        metrics=metrics,
        stats=stats,
        channel_stats=network.channel.stats,
        end_time=end_time,
        events_processed=scheduler.events_processed,
        backoffs_started=sum(
            host.mac.stats.backoffs_started for host in network.hosts
        ),
        fault_trace=list(injector.trace) if injector is not None else [],
        broadcasts_skipped=metrics.broadcasts_skipped,
        wall_time=wall_time,
        peak_rss_bytes=peak_rss_bytes(),
        gc_collections=_gc_collections() - gc_start,
        perf=perf,
    )


def _gc_collections() -> int:
    """Garbage collections run so far, summed over all generations."""
    return sum(stat["collections"] for stat in gc.get_stats())


def run_sweep(
    configs: Iterable[ScenarioConfig],
    progress: Optional[Callable[[ScenarioConfig, SimulationResult], None]] = None,
) -> List[SimulationResult]:
    """Run several scenarios sequentially, optionally reporting progress."""
    results = []
    for config in configs:
        result = run_broadcast_simulation(config)
        if progress is not None:
            progress(config, result)
        results.append(result)
    return results


def run_broadcast_batch(
    config: ScenarioConfig,
    seeds: Iterable[int],
    progress: Optional[Callable[[ScenarioConfig, SimulationResult], None]] = None,
) -> List[SimulationResult]:
    """Run ``config`` once per seed in this process, sharing world setup.

    The multi-broadcast batch mode for replication sweeps: one process,
    many seeds, one set of position-store numpy allocations
    (:class:`repro.mobility.store.PositionBuffers`) reused across the
    world builds instead of reallocated per seed.  Each run is otherwise
    the full :func:`run_broadcast_simulation` pipeline with its own
    scheduler, RNG streams and network, so every result is bit-identical
    to running that seed solo.
    """
    from dataclasses import replace

    buffers = PositionBuffers(config.num_hosts)
    results = []
    for seed in seeds:
        seeded = config if seed == config.seed else replace(config, seed=seed)
        result = run_broadcast_simulation(seeded, position_buffers=buffers)
        if progress is not None:
            progress(seeded, result)
        results.append(result)
    return results
