"""Always-on kernel performance counters, run cost and opt-in profiling.

What each run says about itself, matching how the paper's experiments
are actually debugged:

- :class:`KernelPerf` -- near-zero-overhead per-subsystem counters that
  every simulation run collects for free.  All of them are *already
  maintained* by the hot paths (the scheduler's insertion sequence, the
  channel's :class:`~repro.phy.channel.ChannelStats`, each MAC's
  :class:`~repro.mac.csma.MacStats`, the position store's epoch-cache
  tallies, the network's :class:`~repro.net.neighbors.NeighborMatrix`
  update/expiry tallies); :meth:`KernelPerf.collect` merely reads them out
  once at the end of a run, so the simulation itself pays nothing beyond
  the integer bumps it was doing anyway.
- :func:`peak_rss_bytes` -- the process's peak resident set size, which
  every :class:`~repro.experiments.runner.SimulationResult` records next
  to its ``wall_time`` and ``gc_collections``.
- :func:`profiled` / :func:`format_profile` -- an opt-in ``cProfile``
  wrapper behind the CLI's ``--profile [N]`` flag, for when the counters
  say *what* is slow and you need to know *where*.  A per-layer wall-time
  split of the paper's workload is measured by ``perfbench/run.py
  --trace 1``.

Counter semantics
-----------------
``events_scheduled`` counts every event ever pushed on the heap;
``events_processed`` counts the callbacks that actually ran;
``events_cancelled`` the events withdrawn before firing (MAC backoff
freezes, scheme S5 inhibits); ``heap_compactions`` how many times the
scheduler reclaimed cancelled husks in bulk.
``events_pending_final``/``cancelled_pending_final`` are the heap residue
(entries left on the heap, and how many of those are cancelled husks) when
the run ended -- including runs that quiesce early under faults -- closing
the disposition invariant ``scheduled == processed + cancelled +
(pending_final - cancelled_pending_final)``.  ``pos_hits``/``pos_misses``
describe position reads through the
:class:`~repro.mobility.store.PositionStore` epoch cache: a hit is served
from the arrays of the current instant, a miss is a batched all-host
evaluation or a lazy single-host read.  ``pos_batch_evals`` counts those
batched evaluations, and ``batch_scans``/``vector_candidates`` the
vectorized receiver scans and the total in-range ids they produced.
``grid_rebuilds`` is always 0: the simulator has no spatial grid, and the
counter stays only because benchmark records list it.
``hello_updates``/``neighbor_expirations`` count HELLO-driven neighbor
table writes (one per receiving host per HELLO) and entries dropped by the
lazy query-time purge; both survive host crashes.  Channel and MAC
counters mirror the fields of the same name on ``ChannelStats`` /
``MacStats`` (MAC counters are summed across hosts).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator

__all__ = ["KernelPerf", "peak_rss_bytes", "profiled", "format_profile"]


class KernelPerf:
    """Per-subsystem kernel counters for one simulation run."""

    __slots__ = (
        # scheduler
        "events_scheduled", "events_processed", "events_cancelled",
        "heap_compactions", "events_pending_final", "cancelled_pending_final",
        # channel
        "transmissions", "deliveries", "collisions", "deaf_misses",
        "grid_rebuilds", "batch_scans", "vector_candidates",
        # MAC (summed across hosts)
        "frames_sent", "frames_received", "frames_corrupted",
        "backoffs_started",
        # position reads: the PositionStore epoch cache
        "pos_hits", "pos_misses", "pos_batch_evals",
        # HELLO / neighbor bookkeeping
        "hello_updates", "neighbor_expirations",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    # ------------------------------------------------------------ build

    @classmethod
    def collect(cls, scheduler: Any, network: Any) -> "KernelPerf":
        """Read the counters the kernel maintained during a run.

        ``scheduler`` is the run's :class:`~repro.sim.engine.Scheduler`;
        ``network`` the :class:`~repro.net.network.Network` (its channel,
        hosts, MACs and neighbor tables are walked once).
        """
        perf = cls()
        perf.events_scheduled = scheduler.events_scheduled
        perf.events_processed = scheduler.events_processed
        perf.events_cancelled = scheduler.events_cancelled
        perf.heap_compactions = scheduler.compactions
        # Heap residue at collection time.  A run that quiesces early (e.g.
        # every host crashed) still reports these: collect() runs after
        # Scheduler.run() returns regardless of why the heap drained, so
        # events_scheduled == events_processed + events_cancelled
        #                     + (events_pending_final - cancelled_pending_final)
        # holds as the disposition invariant for every run.
        perf.events_pending_final = scheduler.pending
        perf.cancelled_pending_final = scheduler.cancelled_pending

        # Reading the channel's stats folds its array-accumulated tallies
        # (per-host rx airtime, MAC corrupted/received counts) into their
        # homes, so it comes before the MAC counters below.
        ch = network.channel.stats
        perf.transmissions = ch.transmissions
        perf.deliveries = ch.deliveries
        perf.collisions = ch.collisions
        perf.deaf_misses = ch.deaf_misses
        perf.batch_scans = ch.batch_scans
        perf.vector_candidates = ch.vector_candidates

        frames_sent = frames_received = frames_corrupted = backoffs = 0
        for host in network.hosts:
            mac = host.mac.stats
            frames_sent += mac.frames_sent
            frames_received += mac.frames_received
            frames_corrupted += mac.frames_corrupted
            backoffs += mac.backoffs_started
        perf.frames_sent = frames_sent
        perf.frames_received = frames_received
        perf.frames_corrupted = frames_corrupted
        perf.backoffs_started = backoffs
        # A miss is any query that had to evaluate mobility: a batched
        # epoch or a lazy single-host read.
        store = network.position_store
        perf.pos_hits = store.epoch_hits
        perf.pos_misses = store.batch_evals + store.lazy_reads
        perf.pos_batch_evals = store.batch_evals
        matrix = network.neighbor_matrix
        perf.hello_updates = matrix.hello_updates
        perf.neighbor_expirations = matrix.expirations
        return perf

    # ------------------------------------------------------------- ops

    def merge(self, other: "KernelPerf") -> "KernelPerf":
        """Add ``other``'s counters into this one (aggregation across
        runs); returns ``self`` for chaining."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def pos_hit_rate(self) -> float:
        """Epoch-cache hits over all position queries (0.0 if none)."""
        queries = self.pos_hits + self.pos_misses
        return self.pos_hits / queries if queries else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelPerf):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None  # mutable counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name in self.__slots__
        )
        return f"KernelPerf({fields})"


def peak_rss_bytes() -> int:
    """The process's peak resident set size in bytes (0 if unknowable).

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalized
    here so callers never see the difference.  Platforms without the
    ``resource`` module (Windows) report 0.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(peak)
    return int(peak) * 1024


@contextmanager
def profiled() -> Iterator[cProfile.Profile]:
    """Profile the ``with`` body; yields the (enabled) profile object.

    The profile is disabled on exit and can be rendered with
    :func:`format_profile`::

        with profiled() as prof:
            run_broadcast_simulation(config)
        print(format_profile(prof, top_n=25))
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()


def format_profile(profile: cProfile.Profile, top_n: int = 25) -> str:
    """Render the ``top_n`` functions by cumulative then internal time."""
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top_n)
    stats.sort_stats("tottime").print_stats(top_n)
    return buffer.getvalue()
