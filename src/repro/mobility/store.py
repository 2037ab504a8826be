"""Batched host positions: numpy arrays over every host's mobility state.

:class:`PositionStore` mirrors every host's current motion segment
``(origin, velocity, segment start/end)`` into numpy arrays and evaluates
**all** positions for a timestamp in one batched call per *position epoch*
(the first query at each distinct simulation time).  Subsequent queries at
the same instant are served from the cached arrays.  It is the simulator's
only source of host positions: the channel's receiver scan is a distance
mask over these arrays.

Bit-identity contract
---------------------
The batched evaluation is float-for-float the same arithmetic as
:meth:`_SegmentedMobility.position`:

- per element, ``x = origin + velocity * dt`` is one IEEE-754 multiply and
  one add, in numpy exactly as in CPython;
- the reflective fold is only applied to out-of-bounds coordinates and is
  delegated to the *same* :func:`repro.mobility.map._fold` scalar code the
  models use.  Which rows can be out of bounds is known ahead: each synced
  row records when its straight line comes within ``EXIT_MARGIN`` of the
  map border, a margin nine orders of magnitude above the float error of
  ``origin + velocity * dt``, so rows before that time are certainly
  inside and only the rest get the exact bounds test;
- segment rolls are delegated to the models themselves (``_roll_to``), so
  every RNG draw happens on the same per-host stream in the same per-host
  order as querying each model lazily.  Batching *can* roll a host's
  segments earlier than a lazy query would (e.g. a crashed host keeps
  moving but is never scanned), but since each built-in model draws from a
  private stream the drawn values -- and therefore every position ever
  observed -- are identical.

Custom mobility models
----------------------
Any other :class:`~repro.mobility.models.MobilityModel` (e.g. one passed
through ``Network(mobility_factory=...)``) gets a row the store does not
vectorize: zero velocity, no segment end, no map exit, overwritten with
``model.position(time)`` in id order at each epoch and never folded.
Single-host reads go to the model as for every row.  The contract: a
custom model's position depends on the query time alone.  It may draw
randomness only from an RNG it owns and only as time advances, like the
built-in models, never per call -- the store asks at every epoch, which
is not when or how often a lazy caller would ask.

Buffer reuse
------------
``PositionBuffers`` lets a batch driver (many seeds, one process -- see
:func:`repro.experiments.runner.run_broadcast_batch`) reuse the numpy
allocations across world builds instead of reallocating nine arrays per
seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.map import RectMap, _fold
from repro.mobility.models import MobilityModel, StaticMobility, _SegmentedMobility

__all__ = ["PositionBuffers", "PositionStore"]


class PositionBuffers:
    """Reusable numpy allocations for :class:`PositionStore`.

    Grows monotonically to the largest host count seen; a store for
    ``n <= capacity`` hosts slices views out of the shared arrays.
    """

    __slots__ = ("capacity", "_arrays")

    #: Per-store array fields, in allocation order.
    FIELDS = ("ox", "oy", "vx", "vy", "t0", "t1", "exit", "x", "y")

    def __init__(self, capacity: int = 0) -> None:
        self.capacity = 0
        self._arrays: List[np.ndarray] = []
        if capacity:
            self.reserve(capacity)

    def reserve(self, capacity: int) -> None:
        if capacity > self.capacity:
            self._arrays = [
                np.empty(capacity, dtype=np.float64) for _ in self.FIELDS
            ]
            self.capacity = capacity

    def views(self, n: int) -> List[np.ndarray]:
        """Length-``n`` views over the shared buffers (grown as needed)."""
        self.reserve(n)
        return [arr[:n] for arr in self._arrays]


class PositionStore:
    """Vectorized per-instant positions for hosts ``0 .. n-1``.

    One instance per :class:`~repro.net.network.Network`.  Queries must be
    non-decreasing in time, which the event-driven scheduler guarantees.
    """

    __slots__ = (
        "size", "_models", "_custom", "_world_w", "_world_h",
        "_ox", "_oy", "_vx", "_vy", "_t0", "_t1", "_exit", "_x", "_y",
        "_next_roll", "_next_exit", "_time", "_lazy_time",
        "epoch_hits", "batch_evals", "lazy_reads", "segment_rolls",
    )

    #: Distance (m) from the border at which a row's recorded exit time
    #: falls (see the module docstring).
    EXIT_MARGIN = 1e-3

    def __init__(
        self,
        models: Sequence[MobilityModel],
        world: RectMap,
        buffers: Optional[PositionBuffers] = None,
    ) -> None:
        self.size = len(models)
        self._models = list(models)
        self._world_w = world.width
        self._world_h = world.height
        arrays = (buffers or PositionBuffers()).views(self.size)
        (self._ox, self._oy, self._vx, self._vy,
         self._t0, self._t1, self._exit, self._x, self._y) = arrays
        #: Rows of custom models, overwritten from the model each epoch.
        self._custom: List[int] = []
        for i, model in enumerate(self._models):
            if isinstance(model, _SegmentedMobility):
                # Segment state is synced on first evaluation (the model
                # has not started yet); -inf forces the initial roll.
                self._t1[i] = -np.inf
                self._exit[i] = -np.inf
                continue
            if isinstance(model, StaticMobility):
                x, y = model.position(0.0)
            else:
                x = y = 0.0
                self._custom.append(i)
            self._ox[i] = x
            self._oy[i] = y
            self._vx[i] = 0.0
            self._vy[i] = 0.0
            self._t0[i] = 0.0
            self._t1[i] = np.inf
            # Never folded: velocity 0 keeps a static row at its (possibly
            # off-map, in tests) fixed point, like StaticMobility; custom
            # rows hold whatever their model returns.
            self._exit[i] = np.inf
        #: Earliest segment end and earliest map exit over all rows.
        self._next_roll = float(self._t1.min()) if self.size else np.inf
        self._next_exit = float(self._exit.min()) if self.size else np.inf
        self._time = -1.0
        self._lazy_time = -1.0
        #: Queries served from the cached current-epoch arrays.
        self.epoch_hits = 0
        #: Batched all-host evaluations (one per position epoch).
        self.batch_evals = 0
        #: Single-host reads at a not-yet-batched timestamp (delegated to
        #: the model's own scalar fast path).
        self.lazy_reads = 0
        #: Motion segments rolled forward during batched evaluations.
        self.segment_rolls = 0

    # -------------------------------------------------------------- sync

    def _sync_row(self, i: int, model: "_SegmentedMobility") -> None:
        ox, oy = self._ox[i], self._oy[i] = model._seg_origin
        vx, vy = self._vx[i], self._vy[i] = model._velocity
        t0 = self._t0[i] = model._seg_start_time
        self._t1[i] = model._seg_end_time
        self._exit[i] = t0 + min(
            self._time_to_border(ox, vx, self._world_w),
            self._time_to_border(oy, vy, self._world_h),
        )

    @classmethod
    def _time_to_border(cls, origin: float, velocity: float, size: float) -> float:
        """Seconds until ``origin + velocity * dt`` comes within
        ``EXIT_MARGIN`` of ``[0, size]``'s border (negative if it already is)."""
        if velocity > 0.0:
            return (size - cls.EXIT_MARGIN - origin) / velocity
        if velocity < 0.0:
            return (origin - cls.EXIT_MARGIN) / -velocity
        return np.inf

    # ----------------------------------------------------------- queries

    def arrays_at(self, time: float) -> Tuple[np.ndarray, np.ndarray]:
        """All host positions at ``time`` as ``(x, y)`` float64 arrays.

        The returned arrays are the store's epoch cache: treat them as
        read-only and do not hold them across epochs.
        """
        if time == self._time:
            self.epoch_hits += 1
            return self._x, self._y
        if time < self._time:
            raise ValueError(
                f"non-monotonic batched position query: t={time} after "
                f"t={self._time}"
            )
        self.batch_evals += 1
        if time > self._next_roll:
            # Roll hosts whose current segment ended (or never started).
            # The model does the rolling -- same RNG stream, same draw
            # order as a lazy query -- and the row is re-synced from
            # its state.  A row can also be stale because the model was
            # queried directly (lazy read); _roll_to is then a no-op and
            # the sync still repairs it.
            models = self._models
            stale = np.nonzero(self._t1 < time)[0]
            self.segment_rolls += int(stale.size)
            for i in stale.tolist():
                model = models[i]
                model._roll_to(time)
                self._sync_row(i, model)
            self._next_roll = float(self._t1.min())
            self._next_exit = float(self._exit.min())
        # One multiply + one add per coordinate: exactly the models'
        # ``origin + velocity * dt`` (IEEE addition commutes
        # bitwise, so ``vx * dt + ox`` == ``ox + vx * dt``).
        x = self._x
        y = self._y
        dt = time - self._t0
        np.multiply(self._vx, dt, out=x)
        x += self._ox
        np.multiply(self._vy, dt, out=y)
        y += self._oy
        # Reflective fold for segments that left the map between rolls,
        # tested only on rows past their exit time; in-bounds coordinates
        # are untouched (the scalar fast path's identity).
        if time > self._next_exit:
            w = self._world_w
            h = self._world_h
            for i in np.nonzero(self._exit < time)[0].tolist():
                xi = float(x[i])
                yi = float(y[i])
                if not (0.0 <= xi <= w and 0.0 <= yi <= h):
                    x[i] = _fold(xi, w)
                    y[i] = _fold(yi, h)
        if self._custom:
            models = self._models
            for i in self._custom:
                x[i], y[i] = models[i].position(time)
        self._time = time
        return x, y

    def position_of(self, host_id: int, time: float) -> Tuple[float, float]:
        """One host's position at ``time``.

        Served from the epoch cache when the batched arrays are already at
        ``time``.  The first straggler at a new instant (a scheme asking
        for its own position between scans) is delegated to the model's
        own (bit-identical) scalar fast path rather than paying an O(n)
        epoch; a *second* single-host read at the same instant promotes it
        to a batched epoch -- same-instant bursts (every receiver of one
        frame delivering at its end time) then hit the cache.
        """
        if time == self._time:
            self.epoch_hits += 1
            return (float(self._x[host_id]), float(self._y[host_id]))
        if time == self._lazy_time:
            x, y = self.arrays_at(time)
            self.epoch_hits += 1
            return (float(x[host_id]), float(y[host_id]))
        self._lazy_time = time
        self.lazy_reads += 1
        return self._models[host_id].position(time)

    @classmethod
    def static(cls, points: Sequence[Tuple[float, float]]) -> "PositionStore":
        """A store of hosts that never move, host ``i`` at ``points[i]``.

        The map is a placeholder: static rows are never folded.
        """
        return cls([StaticMobility(p) for p in points], RectMap(1.0, 1.0))

    # ------------------------------------------------------------- debug

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PositionStore(n={self.size}, t={self._time}, "
            f"epochs={self.batch_evals}, hits={self.epoch_hits}, "
            f"lazy={self.lazy_reads})"
        )
