"""Parallel, cached experiment execution.

The paper's figures aggregate thousands of *independent* simulation runs
(one per seed per sweep point), which the sequential :func:`replicate` /
:func:`run_sweep` pair executes one at a time on one core.  This module
fans those runs out across a process pool and memoizes finished runs on
disk, so regenerating a figure only simulates the seeds it has not seen.

Guarantees
----------
- **Determinism**: results come back in submission order regardless of
  which worker finished first, so confidence intervals are bit-identical
  to the sequential path (simulations themselves are seed-deterministic).
- **Caching**: a result is keyed by a stable SHA-256 digest of the full
  :class:`ScenarioConfig` plus a code-relevant version tag
  (:data:`RESULT_CACHE_VERSION` and the package version), so stale caches
  cannot survive a semantics change -- bump the tag when simulation
  behavior changes.
- **Graceful fallback**: configs that cannot be pickled or digested (e.g.
  a ``threshold_fn`` callable in ``scheme_params``) run inline in the
  parent process and skip the cache; everything else parallelizes.
- **Graceful interrupt**: a ``KeyboardInterrupt`` (Ctrl-C / SIGTERM
  translated by the CLI) no longer tears the pool down mid-write.
  Completed results are already in the cache; pending work is cancelled
  and :class:`ExecutionInterrupted` is raised carrying the partial,
  submission-order-aligned results so callers (the campaign executor)
  can flush a checkpoint and exit in a resumable state.

Example::

    runner = ParallelRunner(max_workers=4, cache_dir=".repro-cache")
    replicated = runner.replicate(config, seeds=[1, 2, 3, 4])
    print(runner.perf)   # runs, cache hit-rate, events/sec, wall time
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.experiments.config import ScenarioConfig
from repro.experiments.replication import (
    ReplicatedResult,
    aggregate,
    check_seeds,
)
from repro.experiments.runner import SimulationResult, run_broadcast_simulation
from repro.perf import KernelPerf
from repro.telemetry.registry import registry as telemetry_registry

__all__ = [
    "RESULT_CACHE_VERSION",
    "CacheKeyError",
    "CacheStats",
    "ExecutionInterrupted",
    "PruneReport",
    "ResultCache",
    "RunnerPerf",
    "ParallelRunner",
    "config_digest",
]

#: Bump when simulation semantics change in a way that invalidates cached
#: results (new RNG consumption order, metric definition changes, ...) or
#: when the pickled :class:`SimulationResult` layout changes.
RESULT_CACHE_VERSION = "2"


class CacheKeyError(ValueError):
    """The config contains values with no stable serial form (callables,
    exotic objects) and therefore cannot be cached."""


class ExecutionInterrupted(KeyboardInterrupt):
    """A batch was interrupted (Ctrl-C / SIGTERM) partway through.

    Subclasses :class:`KeyboardInterrupt` so existing ``except
    KeyboardInterrupt`` handlers keep working, but carries enough state to
    resume: ``results`` is aligned with the submitted configs (``None``
    where a run never finished) and every finished result has already
    been written to the cache, so a re-run only simulates the holes.
    """

    def __init__(self, results: Sequence[Optional[SimulationResult]]) -> None:
        self.results: List[Optional[SimulationResult]] = list(results)
        self.completed = sum(1 for r in self.results if r is not None)
        super().__init__(
            f"interrupted after {self.completed}/{len(self.results)} runs"
        )


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serializable canonical form.

    Dataclasses become ``[type-name, sorted field pairs]``, tuples become
    lists, frozensets sorted lists.  Anything without an obvious stable
    form (functions, arbitrary objects) raises :class:`CacheKeyError`.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__name__,
            [
                [f.name, _canonical(getattr(value, f.name))]
                for f in dataclasses.fields(value)
            ],
        ]
    if isinstance(value, dict):
        try:
            items = sorted(value.items())
        except TypeError as exc:
            raise CacheKeyError(f"unorderable dict keys in {value!r}") from exc
        return {"__dict__": [[str(k), _canonical(v)] for k, v in items]}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(_canonical(v) for v in value)}
    raise CacheKeyError(
        f"cannot build a stable cache key from {type(value).__name__}: "
        f"{value!r}"
    )


def config_digest(config: ScenarioConfig) -> str:
    """Stable hex digest identifying a scenario *and* the code version.

    Raises :class:`CacheKeyError` when the config holds uncacheable values
    (e.g. callables in ``scheme_params``).
    """
    try:
        from repro import __version__ as package_version
    except ImportError:  # pragma: no cover - package always has a version
        package_version = "unknown"
    payload = {
        "cache_version": RESULT_CACHE_VERSION,
        "package_version": package_version,
        "config": _canonical(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk store of pickled :class:`SimulationResult`\\ s by digest."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self._dir = Path(cache_dir)
        self._dir.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path:
        return self._dir

    def _path(self, digest: str) -> Path:
        return self._dir / f"{digest}.pkl"

    def get(self, digest: str) -> Optional[SimulationResult]:
        """The cached result, or ``None`` on miss.

        A corrupted or truncated entry (torn write, interrupted disk, a
        pickle from an incompatible class layout, or a file that does not
        hold a :class:`SimulationResult` at all) is treated as a miss:
        the entry is deleted best-effort so the recomputed result can
        take its slot, rather than erroring on every later lookup.
        """
        path = self._path(digest)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self._note_lookup("miss")
            return None
        except Exception:
            # Unpickling can fail in arbitrary ways on a torn entry
            # (UnpicklingError, EOFError, AttributeError, ImportError,
            # UnicodeDecodeError, ...): drop it and recompute.
            self._discard(path)
            self._note_lookup("miss")
            return None
        if not isinstance(result, SimulationResult):
            self._discard(path)
            self._note_lookup("miss")
            return None
        self._note_lookup("hit")
        # Mark the entry recently-used so prune(max_bytes=...) evicts cold
        # digests first (mtime is the LRU clock).
        try:
            os.utime(path)
        except OSError:
            pass
        result.from_cache = True
        return result

    @staticmethod
    def _note_lookup(outcome: str) -> None:
        """Telemetry: one cache lookup by outcome (no-op when disarmed)."""
        reg = telemetry_registry()
        if reg is not None:
            reg.counter(
                "repro_cache_lookups_total",
                "Result-cache lookups since process start, by outcome.",
                ("outcome",),
            ).labels(outcome).inc()

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, digest: str, result: SimulationResult) -> None:
        """Store atomically (tmp + rename) so concurrent runners never
        observe a torn entry."""
        fd, tmp = tempfile.mkstemp(dir=str(self._dir), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(digest))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        reg = telemetry_registry()
        if reg is not None:
            reg.counter(
                "repro_cache_writes_total",
                "Result-cache entries written since process start.",
            ).inc()

    def __len__(self) -> int:
        return sum(1 for _ in self._dir.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        for path in self._dir.glob("*.pkl"):
            path.unlink()
            n += 1
        return n

    def _entries(self) -> List["CacheEntry"]:
        """Live entries with size and mtime (vanished files skipped)."""
        entries = []
        for path in self._dir.glob("*.pkl"):
            try:
                st = path.stat()
            except OSError:
                continue  # deleted by a concurrent runner
            entries.append(
                CacheEntry(path=path, size=st.st_size, mtime=st.st_mtime)
            )
        return entries

    def stats(self) -> "CacheStats":
        """Aggregate entry count / bytes / age span of the cache."""
        entries = self._entries()
        now = time.time()
        mtimes = [e.mtime for e in entries]
        return CacheStats(
            directory=self._dir,
            entries=len(entries),
            total_bytes=sum(e.size for e in entries),
            oldest_age=(now - min(mtimes)) if mtimes else 0.0,
            newest_age=(now - max(mtimes)) if mtimes else 0.0,
        )

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
    ) -> "PruneReport":
        """Evict entries until the cache fits the given bounds.

        ``max_age`` (seconds) drops every entry whose last use is older;
        ``max_bytes`` then evicts least-recently-used entries until the
        total size fits.  ``get`` touches an entry's mtime on every hit,
        so "least recently used" means coldest digest, not oldest write.
        With neither bound this is a no-op (use :meth:`clear` to wipe).
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_age is not None and max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        entries = sorted(self._entries(), key=lambda e: e.mtime)
        now = time.time()
        removed = 0
        freed = 0
        kept: List[CacheEntry] = []
        for entry in entries:
            if max_age is not None and now - entry.mtime > max_age:
                self._discard(entry.path)
                removed += 1
                freed += entry.size
            else:
                kept.append(entry)
        if max_bytes is not None:
            total = sum(e.size for e in kept)
            survivors = []
            for entry in kept:  # still LRU-first
                if total > max_bytes:
                    self._discard(entry.path)
                    removed += 1
                    freed += entry.size
                    total -= entry.size
                else:
                    survivors.append(entry)
            kept = survivors
        reg = telemetry_registry()
        if reg is not None and removed:
            reg.counter(
                "repro_cache_evictions_total",
                "Result-cache entries evicted by prune since process start.",
            ).inc(removed)
        return PruneReport(
            removed=removed,
            freed_bytes=freed,
            kept=len(kept),
            kept_bytes=sum(e.size for e in kept),
        )


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache file (internal to stats/prune)."""

    path: Path
    size: int
    mtime: float


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a :class:`ResultCache`'s footprint."""

    directory: Path
    entries: int
    total_bytes: int
    oldest_age: float  # seconds since the least recently used entry
    newest_age: float  # seconds since the most recently used entry

    def as_dict(self) -> Dict[str, Any]:
        return {
            "directory": str(self.directory),
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "oldest_age": self.oldest_age,
            "newest_age": self.newest_age,
        }


@dataclass(frozen=True)
class PruneReport:
    """What :meth:`ResultCache.prune` evicted and what survived."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int


@dataclass
class RunnerPerf:
    """Perf counters accumulated across a :class:`ParallelRunner`'s life."""

    runs: int = 0  # results returned (simulated + cached)
    simulated: int = 0
    cache_hits: int = 0
    uncacheable: int = 0  # configs that could not be digested
    wall_time: float = 0.0  # parent-side wall time across run_many calls
    sim_wall_time: float = 0.0  # summed per-run wall time (worker side)
    events: int = 0  # scheduler events across simulated runs
    #: Kernel counters merged across simulated runs (None until the first
    #: simulated run reports them).
    kernel: Optional[KernelPerf] = None

    @property
    def cache_hit_rate(self) -> float:
        """Hits over lookups (simulated + hits); 0.0 before any run."""
        attempts = self.cache_hits + self.simulated
        return self.cache_hits / attempts if attempts else 0.0

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulated events per summed simulation wall-second."""
        if self.sim_wall_time <= 0.0:
            return 0.0
        return self.events / self.sim_wall_time

    def note_kernel(self, perf: Optional[KernelPerf]) -> None:
        """Fold one run's kernel counters into the aggregate."""
        if perf is None:
            return
        if self.kernel is None:
            self.kernel = KernelPerf()
        self.kernel.merge(perf)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "uncacheable": self.uncacheable,
            "wall_time": self.wall_time,
            "sim_wall_time": self.sim_wall_time,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "kernel": self.kernel.as_dict() if self.kernel else None,
        }


def _run_config(config: ScenarioConfig) -> SimulationResult:
    """Process-pool entry point (must be a module-level callable)."""
    return run_broadcast_simulation(config)


class ParallelRunner:
    """Fan simulation runs across worker processes, with an on-disk cache.

    ``max_workers=None`` uses ``os.cpu_count()``; ``max_workers=1`` (or a
    single-run batch) executes inline with no pool overhead.  Results are
    always returned in submission order, so anything computed from them is
    bit-identical to the sequential path.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: bool = True,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.cache = (
            ResultCache(cache_dir) if (cache_dir and use_cache) else None
        )
        self.perf = RunnerPerf()

    # ------------------------------------------------------------- core

    def run_many(self, configs: Sequence[ScenarioConfig]) -> List[SimulationResult]:
        """Run every config, preserving order; cache-hit where possible.

        Each finished result is cached the moment it is consumed, so a
        :class:`KeyboardInterrupt` mid-batch loses only in-flight work:
        pending futures are cancelled and :class:`ExecutionInterrupted`
        is raised with the partial, order-aligned results.
        """
        start = time.perf_counter()
        configs = list(configs)
        results: List[Optional[SimulationResult]] = [None] * len(configs)
        digests: List[Optional[str]] = [None] * len(configs)

        reg = telemetry_registry()
        if reg is not None and configs:
            reg.counter(
                "repro_runner_runs_started_total",
                "Runs submitted to the parallel runner since process start.",
            ).inc(len(configs))

        to_run: List[int] = []
        for i, config in enumerate(configs):
            digest = None
            if self.cache is not None:
                try:
                    digest = config_digest(config)
                except CacheKeyError:
                    self.perf.uncacheable += 1
            digests[i] = digest
            cached = self.cache.get(digest) if digest is not None else None
            if cached is not None:
                results[i] = cached
                self.perf.cache_hits += 1
                self._note_completed(reg, cached)
            else:
                to_run.append(i)

        executing = self._execute([configs[i] for i in to_run])
        try:
            for i, result in zip(to_run, executing):
                results[i] = result
                # Throughput counters deliberately exclude cache hits: a
                # cached result's wall_time is the *original* run's, so
                # folding it in would skew events/sec (see perf tests).
                self.perf.simulated += 1
                self.perf.events += result.events_processed
                self.perf.sim_wall_time += result.wall_time
                self.perf.note_kernel(result.perf)
                self._note_completed(reg, result)
                if self.cache is not None and digests[i] is not None:
                    self.cache.put(digests[i], result)
        except KeyboardInterrupt:
            # Account for what did finish, then surface a resumable state
            # (completed results are already in the cache).  Closing the
            # generator cancels any still-queued pool work.
            executing.close()
            self.perf.runs += sum(1 for r in results if r is not None)
            self.perf.wall_time += time.perf_counter() - start
            if reg is not None:
                reg.counter(
                    "repro_runner_interrupts_total",
                    "Batches interrupted (Ctrl-C / SIGTERM) mid-flight.",
                ).inc()
            raise ExecutionInterrupted(results) from None

        self.perf.runs += len(configs)
        self.perf.wall_time += time.perf_counter() - start
        return results  # type: ignore[return-value]

    @staticmethod
    def _note_completed(reg, result: SimulationResult) -> None:
        """Telemetry: one run finished, by source (no-op when disarmed)."""
        if reg is None:
            return
        source = "cache" if result.from_cache else "sim"
        reg.counter(
            "repro_runner_runs_completed_total",
            "Runs completed since process start, by result source.",
            ("source",),
        ).labels(source).inc()
        if not result.from_cache:
            reg.histogram(
                "repro_runner_run_wall_seconds",
                "Per-run simulation wall time (cache hits excluded).",
            ).observe(result.wall_time)

    def _execute(
        self, configs: List[ScenarioConfig]
    ) -> Iterable[SimulationResult]:
        """Simulate ``configs``, yielding results in submission order.

        Pools across processes when it pays; unpicklable configs run
        inline in the parent at their slot in the order.  On interrupt
        the pool's pending futures are cancelled (never mid-write: the
        caller caches each yielded result as it lands) before the
        ``KeyboardInterrupt`` propagates.
        """
        workers = self.max_workers or os.cpu_count() or 1
        workers = min(workers, len(configs))
        if workers <= 1:
            for config in configs:
                yield run_broadcast_simulation(config)
            return

        poolable = set()
        for i, config in enumerate(configs):
            try:
                pickle.dumps(config)
                poolable.add(i)
            except Exception:
                pass

        if len(poolable) <= 1:
            for config in configs:
                yield run_broadcast_simulation(config)
            return

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                i: pool.submit(_run_config, configs[i]) for i in poolable
            }
            for i, config in enumerate(configs):
                if i in futures:
                    yield futures[i].result()
                else:
                    yield run_broadcast_simulation(config)
        except BaseException:
            # cancel_futures drops queued work; in-flight tasks finish in
            # their workers but are never consumed.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)

    # ------------------------------------------------------ high level

    def replicate(
        self,
        config: ScenarioConfig,
        seeds: Sequence[int],
        confidence: float = 0.95,
    ) -> ReplicatedResult:
        """Parallel drop-in for :func:`repro.experiments.replication.replicate`.

        Same aggregation over the same per-seed results in the same order,
        so the estimates are bit-identical to the sequential path.
        """
        check_seeds(seeds)
        results = self.run_many(
            [config.with_overrides(seed=seed) for seed in seeds]
        )
        return aggregate(config, results, confidence)

    def run_sweep(
        self,
        configs: Iterable[ScenarioConfig],
        progress: Optional[
            Callable[[ScenarioConfig, SimulationResult], None]
        ] = None,
    ) -> List[SimulationResult]:
        """Parallel drop-in for :func:`repro.experiments.runner.run_sweep`.

        ``progress`` fires in submission order after all runs complete (a
        pool cannot stream strictly ordered completions without stalling).
        """
        configs = list(configs)
        results = self.run_many(configs)
        if progress is not None:
            for config, result in zip(configs, results):
                progress(config, result)
        return results
