"""Outside-in layer timing: spans around each layer's public entry points.

The simulator is not modified.  :func:`install` replaces the entry points
listed in :data:`ENTRY_POINTS` on their classes with wrappers that open a
span, and replaces ``Scheduler.schedule_at`` with a version that wraps every
scheduled callback in a span charged to the callback owner's module.  The
owner is ``fn.__self__``'s class for bound methods and ``fn.__module__``
otherwise, so the channel's private end-of-transmission callbacks count as
``phy`` and the MAC's backoff expiries as ``mac`` rather than as scheduler
time.

Install before any world is built: components capture bound methods of
each other while they are constructed, and only methods looked up after
installation go through the wrappers.

Spans are strictly nested (one simulation thread), so a span's self time is
its duration minus the durations of the spans it directly contains.  Only
per-bucket totals are kept; a run makes millions of spans.
"""

from __future__ import annotations

import importlib
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "ENTRY_POINTS",
    "LayerClock",
    "Installation",
    "active",
    "install",
    "layer_of_module",
    "span_cost_ns",
]

#: Marker attribute on every span wrapper (bound methods forward attribute
#: reads to their function, so wrapped methods carry it too).
_MARK = "perfbench_bucket"

#: (bucket, module, class, method names) wrapped by :func:`install`.  A
#: bucket is a layer name, or ``parallel.<part>`` for the three parts of the
#: parallel runner that are reported apart.  Scheme hooks are wrapped on
#: every subclass that defines them; ``Scheduler.schedule_at`` additionally
#: routes each dispatched callback to its owner's layer.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Scheduler", ("run", "schedule_at")),
    ("phy", "repro.phy.channel", "Channel",
     ("start_transmission", "carrier_busy")),
    ("mac", "repro.mac.csma", "CsmaCaMac",
     ("send", "on_medium_state", "on_frame_received", "on_frame_corrupted")),
    ("neighbors", "repro.net.neighbors", "NeighborTable",
     ("update_from_hello", "purge", "neighbor_count", "two_hop_neighbors")),
    ("host", "repro.net.host", "MobileHost",
     ("on_frame_received", "on_frame_corrupted")),
    ("network", "repro.net.network", "Network", ("reachable_from",)),
    ("mobility", "repro.mobility.store", "PositionStore",
     ("arrays_at", "position_of")),
    ("schemes", "repro.schemes.base", "RebroadcastScheme",
     ("on_first_hear", "on_hear_again")),
    ("metrics", "repro.metrics.collector", "MetricsCollector",
     ("on_originate", "on_source_tx_end", "on_receive",
      "on_rebroadcast_start", "on_rebroadcast_end", "on_inhibit",
      "on_hello_sent", "on_host_crash", "on_host_recover", "on_hello_mute",
      "on_broadcast_skipped")),
    ("parallel.cache_get", "repro.experiments.parallel", "ResultCache",
     ("get",)),
    ("parallel.cache_put", "repro.experiments.parallel", "ResultCache",
     ("put",)),
    ("parallel.wait", "repro.experiments.parallel", "ParallelRunner",
     ("run_many",)),
)


def layer_of_module(module: str) -> str:
    """Layer name of a ``repro`` module: its subpackage, except that the
    ``net`` and ``experiments`` subpackages split by module
    (``repro.net.neighbors`` -> ``neighbors``)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] in ("net", "experiments") and len(parts) > 2:
        return parts[2]
    return parts[1]


class LayerClock:
    """Per-bucket self time (ns) and span counts from nested spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        # bucket -> [self_ns, calls]; wrappers hold these lists.
        self._acc: Dict[str, List[int]] = {}
        # Child time (ns) of each open span, innermost last.
        self._stack: List[int] = []

    @property
    def self_ns(self) -> Dict[str, int]:
        return {bucket: acc[0] for bucket, acc in self._acc.items()}

    @property
    def calls(self) -> Dict[str, int]:
        return {bucket: acc[1] for bucket, acc in self._acc.items()}

    def _cell(self, bucket: str) -> List[int]:
        return self._acc.setdefault(bucket, [0, 0])

    def reset(self) -> None:
        """Zero every total, in place."""
        for acc in self._acc.values():
            acc[0] = acc[1] = 0
        del self._stack[:]

    def wrap(self, bucket: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` inside a span charged to ``bucket``."""
        clock = self._clock
        stack = self._stack
        acc = self._cell(bucket)

        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += elapsed - stack.pop()
                acc[1] += 1
                if stack:
                    stack[-1] += elapsed

        setattr(span, _MARK, bucket)
        span.__wrapped__ = fn  # type: ignore[attr-defined]
        span.__name__ = getattr(fn, "__name__", "span")
        return span

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {"self_ns": self.self_ns, "calls": self.calls}

    def merge(self, snapshot: Dict[str, Dict[str, int]]) -> None:
        """Add another clock's :meth:`snapshot` (e.g. from a pool worker)."""
        for bucket, ns in snapshot["self_ns"].items():
            self._cell(bucket)[0] += ns
        for bucket, n in snapshot["calls"].items():
            self._cell(bucket)[1] += n


def _dispatching_schedule_at(
    clock: LayerClock, original: Callable[..., Any]
) -> Callable[..., Any]:
    """``Scheduler.schedule_at`` that wraps each callback in a span charged
    to the callback owner's layer (already-wrapped callbacks pass as is)."""
    layers: Dict[str, str] = {}
    wrap = clock.wrap

    def schedule_at(sched, time, fn, *args, priority=0):
        if getattr(fn, _MARK, None) is None:
            owner = getattr(fn, "__self__", None)
            module = (
                type(owner).__module__ if owner is not None
                else getattr(fn, "__module__", None) or ""
            )
            layer = layers.get(module)
            if layer is None:
                layer = layers[module] = layer_of_module(module)
            fn = wrap(layer, fn)
        return original(sched, time, fn, *args, priority=priority)

    return schedule_at


def _classes_defining(root: type, name: str) -> List[type]:
    """``root`` and its subclasses that define a concrete ``name``."""
    found, todo, seen = [], [root], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        attr = cls.__dict__.get(name)
        if attr is not None and not getattr(attr, "__isabstractmethod__", False):
            found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


class Installation:
    """The wrappers installed by :func:`install`; :meth:`uninstall`
    restores every original attribute."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._saved: List[Tuple[type, str, Any, str]] = []

    def _replace(self, cls: type, name: str, bucket: str, value: Any) -> None:
        self._saved.append((cls, name, cls.__dict__[name], bucket))
        setattr(cls, name, value)

    def wrapped(self) -> Dict[str, List[str]]:
        """bucket -> ``module.Class.method`` of every replaced attribute."""
        out: Dict[str, List[str]] = {}
        for cls, name, _, bucket in self._saved:
            out.setdefault(bucket, []).append(
                f"{cls.__module__}.{cls.__qualname__}.{name}"
            )
        return out

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            cls, name, original, _ = self._saved.pop()
            setattr(cls, name, original)
        if _ACTIVE is self:
            _ACTIVE = None


_ACTIVE: Optional[Installation] = None


def active() -> Optional[Installation]:
    """The installation in force in this process (inherited by forked
    pool workers), or ``None``."""
    return _ACTIVE


def install() -> Installation:
    """Wrap every entry point in :data:`ENTRY_POINTS` around a fresh
    :class:`LayerClock` (``install().clock``)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("layer spans are already installed")
    clock = LayerClock()
    inst = Installation(clock)
    importlib.import_module("repro.schemes")  # register every scheme class
    for bucket, module_name, class_name, names in ENTRY_POINTS:
        root = getattr(importlib.import_module(module_name), class_name)
        for name in names:
            for cls in _classes_defining(root, name):
                original = cls.__dict__[name]
                if cls.__name__ == "Scheduler" and name == "schedule_at":
                    original = _dispatching_schedule_at(clock, original)
                inst._replace(cls, name, bucket, clock.wrap(bucket, original))
    _ACTIVE = inst
    return inst


def span_cost_ns(calls: int = 100_000, trials: int = 5) -> float:
    """Median added cost of one span (wrapped minus bare no-op call), ns."""
    def noop() -> None:
        return None

    wrapped = LayerClock().wrap("calibration", noop)
    costs = []
    for _ in range(trials):
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter_ns() - start - bare) / calls)
    return statistics.median(costs)
