"""The shared radio medium.

Propagation model
-----------------
Unit disk: a frame transmitted from position *p* is heard by every attached
host within ``radio_radius`` of *p*.  The receiver set is frozen at
transmission start; at the paper's parameters a frame lasts 2.432 ms, during
which even an 80 km/h host moves under 6 cm, so mid-frame topology change is
negligible.

Collision model
---------------
Receiver-side overlap, no capture effect, which is what makes the broadcast
storm bite:

- If two or more frames overlap in time at a receiver, **all** of them are
  corrupted at that receiver (the paper: without collision detection a host
  keeps transmitting even if foregoing bits were garbled).
- A host is half-duplex: frames arriving while it transmits are corrupted
  for it, though they still occupy its carrier sense afterwards.

Carrier sensing
---------------
Edge-triggered ``on_medium_state(busy)`` notifications track *incoming*
energy only (transitions of the host's in-flight reception set between empty
and non-empty); a host's own transmission state is something its MAC already
knows, so it is deliberately excluded from the notifications.  The
:meth:`Channel.carrier_busy` poll, used by tests, reports the physical truth
(incoming energy or own transmission).

Busy notifications are delivered through a zero-delay event rather than
synchronously.  This models the fact that clear-channel assessment cannot
sense a carrier instantaneously (the paper: "carriers cannot be sensed
immediately due to things such as RF delays"): stations whose backoff
countdowns expire at the same instant all transmit and collide, instead of
the second one impossibly sensing the first with zero delay.  Idle
notifications are synchronous -- at frame end there is no equivalent race.

Failure injection
-----------------
``drop_predicate(sender_id, receiver_id)`` lets tests corrupt arbitrary
links deterministically; it is a writable property so the fault subsystem
(:mod:`repro.faults`) can compose bursty link-loss processes onto it at
runtime.  :meth:`Channel.abort_transmission` truncates an in-flight frame
(a crashing radio): the frame is removed from every receiver's air without
ever being delivered, and :meth:`Channel.detach` aborts the host's own
transmission first so a dead radio can neither KeyError the end-of-frame
event nor deliver from beyond the grave.

Neighbor indexing
-----------------
With a ``max_speed_ms`` bound the channel maintains a uniform spatial grid
(cell side = ``radio_radius``) over host positions, so finding a frame's
receivers scans a few cells instead of every attached host.  The grid is a
*pruning* structure only -- every candidate still gets the exact distance
check against its live position -- so results are bit-identical to the full
scan.  Correctness of the pruning: a snapshot taken at time ``t0`` can be
off by at most ``max_speed_ms * (now - t0)`` per host, so queries inflate
the search radius by that slop and the grid is rebuilt before the slop
exceeds half a cell.  Static networks (speed bound 0) never rebuild.
Candidates are iterated in attach order -- the same order the full scan
uses -- so stateful drop predicates (fault-injected loss processes) draw
their RNG in an identical sequence either way.

Vector kernel
-------------
With a :class:`repro.mobility.store.PositionStore` attached (see
:mod:`repro.kernel`), the per-transmission receiver scan is a single numpy
distance mask over the store's batched position arrays instead of a Python
loop over grid candidates.  The mask yields hosts in id order; when attach
order and id order have diverged (a host crashed and recovered), the
matched set is re-sorted by attach order so receiver iteration -- and with
it RNG draw order of stateful drop predicates, medium-busy edge order and
delivery callback order -- is identical to the scalar scan.

The vector path also replaces the per-host inbox dicts with flat arrays,
justified by the *all-corrupted invariant* of the no-capture collision
rule: any arrival into a non-empty inbox garbles everything in it, and
receptions only leave an inbox by ending, so at every instant a receiver
has **at most one clean reception** (the first frame into an idle inbox).
An in-flight count plus a single clean-sender slot per receiver therefore
carry the full reception state, and per-transmission bookkeeping becomes
a handful of numpy fancy-index operations; corruption-flip counts (and so
``collisions`` / ``deaf_misses``) are reproduced exactly.  Consequences:

- the vector kernel refuses a capture model (capture lets a strong frame
  survive an overlap, breaking the single-clean-slot invariant) -- the
  builder falls back to the scalar kernel instead;
- per-host rx airtime and MAC ``frames_corrupted`` tallies accumulate in
  arrays and are folded into their scalar-form dicts/stats by
  :meth:`Channel.finalize_vector_stats` (idempotent; called by
  :meth:`repro.perf.KernelPerf.collect` at end of run);
- a :attr:`Channel.bulk_receiver` may claim a clean frame for all of its
  receivers at once (the network claims decoded broadcast HELLOs): no
  per-receiver upcall runs, and the receivers' MAC ``frames_received``
  tallies are array-accumulated and folded like ``frames_corrupted``;
- a ``drop_predicate`` (stateful fault-injected loss) switches the scan
  from whole-array operations to a per-receiver loop over the same
  arrays, preserving the predicate's per-pair RNG call order;
- tracing or a corrupted-frame-notify listener forces the per-reception
  dispatch loop at frame end, keeping callback/record order identical.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

try:  # The vector kernel needs numpy; the scalar kernel must not.
    import numpy as _np
except ImportError:  # pragma: no cover - image always ships numpy
    _np = None

from repro.phy.capture import CaptureModel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler
from repro.sim.trace import NullTracer, Tracer
from repro.trace.recorder import frame_ident

__all__ = ["Channel", "ChannelStats", "RadioListener"]

PositionFn = Callable[[int], Tuple[float, float]]


class RadioListener:
    """What the channel needs from an attached host (implemented by the MAC)."""

    def on_medium_state(self, busy: bool) -> None:
        """Edge-triggered carrier-sense change."""
        raise NotImplementedError

    def on_frame_received(self, frame: Any, sender_id: int) -> None:
        """A frame completed without collision."""
        raise NotImplementedError

    def on_frame_corrupted(self, frame: Any, sender_id: int) -> None:
        """A frame completed but was garbled at this receiver."""


class ChannelStats:
    """Medium-wide counters, cumulative over a simulation.

    A plain ``__slots__`` class (not a dataclass): the counters sit on the
    per-frame hot path and the slot layout keeps the increments cheap.
    """

    __slots__ = (
        "transmissions", "deliveries", "collisions", "deaf_misses",
        "injected_drops", "aborted_frames", "truncated_receptions",
        "grid_rebuilds", "batch_scans", "vector_candidates",
        "tx_airtime", "rx_airtime",
    )

    def __init__(self) -> None:
        self.transmissions = 0
        self.deliveries = 0
        self.collisions = 0
        #: Frames that arrived while the receiver was itself transmitting.
        self.deaf_misses = 0
        self.injected_drops = 0
        #: Transmissions truncated mid-frame (crash).
        self.aborted_frames = 0
        #: Receptions scrubbed by a sender abort.
        self.truncated_receptions = 0
        #: Spatial-grid neighbor index rebuilds (0 when the index is off).
        self.grid_rebuilds = 0
        #: Vectorized receiver scans (0 on the scalar kernel).
        self.batch_scans = 0
        #: Total size of the vector distance masks (in-range hosts summed
        #: over all batch scans) -- mean mask size = vector_candidates /
        #: batch_scans.
        self.vector_candidates = 0
        #: Per-host seconds spent transmitting / receiving energy.  A
        #: standard first-order energy proxy:
        #: radio energy ~ a*tx_airtime + b*rx_airtime.
        self.tx_airtime: Dict[int, float] = {}
        self.rx_airtime: Dict[int, float] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelStats):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None  # mutable counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__slots__ if "airtime" not in name
        )
        return f"ChannelStats({fields})"

    def add_tx_airtime(self, host_id: int, duration: float) -> None:
        self.tx_airtime[host_id] = self.tx_airtime.get(host_id, 0.0) + duration

    def add_rx_airtime(self, host_id: int, duration: float) -> None:
        self.rx_airtime[host_id] = self.rx_airtime.get(host_id, 0.0) + duration

    @property
    def total_tx_airtime(self) -> float:
        return sum(self.tx_airtime.values())

    @property
    def total_rx_airtime(self) -> float:
        return sum(self.rx_airtime.values())


# One in-flight reception at one receiver.  A bare 4-slot list rather than
# a class: hundreds of thousands are created per run and list display is
# the cheapest allocation CPython offers.  Layout (indices _RX_*):
# [frame, sender_id, corrupted, power]
_RX_FRAME = 0
_RX_SENDER = 1
_RX_CORRUPTED = 2
_RX_POWER = 3
_Reception = list


class _Transmission:
    __slots__ = (
        "sender_id", "frame", "end_time", "receiver_ids", "position",
        "end_event", "gens",
    )

    def __init__(
        self,
        sender_id: int,
        frame: Any,
        end_time: float,
        receiver_ids: Any,  # List[int] (scalar) or int ndarray (vector)
        position: Tuple[float, float],
    ) -> None:
        self.sender_id = sender_id
        self.frame = frame
        self.end_time = end_time
        self.receiver_ids = receiver_ids
        self.position = position
        self.end_event: Any = None
        #: Vector kernel: each receiver's detach generation at TX start
        #: (ndarray parallel to receiver_ids); None on the scalar kernel.
        self.gens: Any = None


class Channel:
    """Unit-disk broadcast medium with receiver-side collisions."""

    #: Grid staleness bound, as a fraction of the radio radius: rebuild
    #: before any host can have drifted further than this from its snapshot
    #: cell.  Smaller = more rebuilds, larger = wider query rings.
    GRID_MAX_DRIFT_FRACTION = 0.5

    # No __slots__ here on purpose: there is exactly one Channel per
    # simulation (nothing to save), and tests spy on its methods by
    # instance assignment.

    def __init__(
        self,
        scheduler: Scheduler,
        params: PhyParams,
        position_of: PositionFn,
        drop_predicate: Optional[Callable[[int, int], bool]] = None,
        tracer: Optional[Tracer] = None,
        capture: Optional["CaptureModel"] = None,
        max_speed_ms: Optional[float] = None,
        trace: Optional[Any] = None,
        position_store: Optional[Any] = None,
    ) -> None:
        self._scheduler = scheduler
        self._params = params
        self._position_of = position_of
        self._drop_predicate = drop_predicate
        self._tracer = tracer or NullTracer()
        # Per-reception tracer dispatch is pure overhead with the default
        # NullTracer; the hot paths check this flag instead of calling it.
        self._tracing = not isinstance(self._tracer, NullTracer)
        #: Structured :class:`repro.trace.TraceRecorder` sink (orthogonal to
        #: the legacy per-test ``tracer`` above); ``None`` keeps the guarded
        #: emission sites inert.
        self._trace = trace
        self._capture = capture
        self._radio_radius_sq = params.radio_radius * params.radio_radius
        self._listeners: Dict[int, RadioListener] = {}
        self._active: Dict[int, _Transmission] = {}
        self._incoming: Dict[int, Dict[int, _Reception]] = {}
        # Per-instant position memo.  Positions are a pure function of
        # simulation time (mobility models; see module docstring), so within
        # one timestamp every query for the same host returns the same
        # point -- and dense scenarios ask repeatedly (multiple same-slot
        # transmissions each scanning ~all hosts).
        self._pos_cache: Dict[int, Tuple[float, float]] = {}
        self._pos_cache_time = -1.0
        self.stats = ChannelStats()
        # Spatial-grid neighbor index (enabled by a finite speed bound).
        self._attach_order: Dict[int, int] = {}
        self._attach_counter = itertools.count()
        self._grid: Optional[Dict[Tuple[int, int], List[int]]] = None
        self._grid_cell_of: Dict[int, Tuple[int, int]] = {}
        self._grid_time = 0.0
        self.set_speed_bound(max_speed_ms)
        # Vector kernel (see module docstring): a PositionStore switches
        # the receiver scan to a numpy distance mask over host ids
        # 0 .. store.size-1, and reception state to flat arrays.
        # _vector_sorted tracks whether attach order still equals id
        # order; any detach (crash) clears it and matched sets are
        # re-sorted per scan from then on.
        self._store = position_store
        if position_store is not None:
            if _np is None:  # pragma: no cover - store implies numpy
                raise RuntimeError("position_store requires numpy")
            if capture is not None:
                raise ValueError(
                    "the vector kernel does not support a capture model "
                    "(see module docstring); build without position_store"
                )
            n = position_store.size
            self._attached_mask = _np.zeros(n, dtype=bool)
            # Array reception state: in-flight count + the id of the at
            # most one clean reception's sender (-1 none) per receiver.
            self._vec_inflight = _np.zeros(n, dtype=_np.int32)
            self._vec_clean_sender = _np.full(n, -1, dtype=_np.int32)
            self._vec_transmitting = _np.zeros(n, dtype=bool)
            # Detach generation: receptions in flight across a receiver's
            # detach (and possible re-attach) must vanish, exactly like
            # the scalar kernel dropping its inbox.
            self._vec_gen = _np.zeros(n, dtype=_np.int32)
            self._vec_order = _np.zeros(n, dtype=_np.int64)
            # Array-accumulated per-host tallies, folded into the scalar
            # dict/stats form by finalize_vector_stats().
            self._vec_corrupted = _np.zeros(n, dtype=_np.int64)
            self._vec_corrupted_flushed = _np.zeros(n, dtype=_np.int64)
            self._vec_received = _np.zeros(n, dtype=_np.int64)
            self._vec_received_flushed = _np.zeros(n, dtype=_np.int64)
            self._vec_rx_air = _np.zeros(n, dtype=_np.float64)
            self._vec_rx_seen = _np.zeros(n, dtype=bool)
            self._vec_rx_order: List[int] = []
            self._vec_mac_stats: Dict[int, Any] = {}
            # Any attached listener that wants per-frame corruption
            # upcalls forces the ordered dispatch loop at frame end.
            self._vec_any_notify = False
        else:
            self._attached_mask = None
        self._vector_sorted = True
        #: Vector kernel: optional ``(frame, sender_id, receiver_ids) ->
        #: bool`` offered each clean frame once, with the whole delivered id
        #: array, on the fast frame-end branch (no tracing, no corruption
        #: listeners).  Returning ``True`` claims the frame for every
        #: receiver: no per-receiver ``on_frame_received`` upcall is made,
        #: and each receiver's MAC ``frames_received`` is bumped in bulk.
        #: Only for frames whose MAC reception is that bump alone
        #: (broadcast data frames).
        self.bulk_receiver: Optional[
            Callable[[Any, int, Any], bool]
        ] = None

    @property
    def params(self) -> PhyParams:
        return self._params

    @property
    def drop_predicate(self) -> Optional[Callable[[int, int], bool]]:
        return self._drop_predicate

    @drop_predicate.setter
    def drop_predicate(
        self, predicate: Optional[Callable[[int, int], bool]]
    ) -> None:
        self._drop_predicate = predicate

    # ------------------------------------------- spatial neighbor index

    @property
    def speed_bound_ms(self) -> Optional[float]:
        """Upper bound on host speed (m/s) backing the grid index, or
        ``None`` when the index is disabled (full scans)."""
        return self._max_speed_ms

    def set_speed_bound(self, max_speed_ms: Optional[float]) -> None:
        """Enable the grid index with a speed bound, or disable it (None).

        The bound must dominate every host's actual speed; a violated bound
        can silently miss receivers.  Callers that cannot bound speed (e.g.
        externally supplied mobility models) must pass ``None``.
        """
        if max_speed_ms is not None and max_speed_ms < 0:
            raise ValueError(f"negative speed bound {max_speed_ms}")
        self._max_speed_ms = max_speed_ms
        self._grid = None
        self._grid_cell_of = {}

    def _cell_key(self, position: Tuple[float, float]) -> Tuple[int, int]:
        cell = self._params.radio_radius
        return (int(position[0] // cell), int(position[1] // cell))

    def _positions_now(self) -> Dict[int, Tuple[float, float]]:
        """The per-instant position memo, cleared on time advance."""
        now = self._scheduler._now
        if self._pos_cache_time != now:
            self._pos_cache.clear()
            self._pos_cache_time = now
        return self._pos_cache

    def _rebuild_grid(self) -> None:
        grid: Dict[Tuple[int, int], List[int]] = {}
        cell_of: Dict[int, Tuple[int, int]] = {}
        pos_cache = self._positions_now()
        pos_cache_get = pos_cache.get
        position_of = self._position_of
        for host_id in self._listeners:
            pos = pos_cache_get(host_id)
            if pos is None:
                pos = pos_cache[host_id] = position_of(host_id)
            key = self._cell_key(pos)
            grid.setdefault(key, []).append(host_id)
            cell_of[host_id] = key
        self._grid = grid
        self._grid_cell_of = cell_of
        self._grid_time = self._scheduler._now
        self.stats.grid_rebuilds += 1

    def _candidate_ids(self, center: Tuple[float, float]) -> Iterable[int]:
        """Hosts possibly within radio range of ``center`` right now.

        A superset of the true in-range set, in attach order (the caller
        does the exact distance check).  Falls back to all listeners when
        the grid is disabled.
        """
        if self._max_speed_ms is None:
            return self._listeners
        now = self._scheduler._now
        radius = self._params.radio_radius
        max_drift = self.GRID_MAX_DRIFT_FRACTION * radius
        if (
            self._grid is None
            or self._max_speed_ms * (now - self._grid_time) > max_drift
        ):
            self._rebuild_grid()
        slop = self._max_speed_ms * (now - self._grid_time)
        reach = radius + slop
        cell = radius
        cx, cy = int(center[0] // cell), int(center[1] // cell)
        ring = int(reach // cell) + 1
        grid = self._grid
        ids: List[int] = []
        buckets_hit = 0
        for ix in range(cx - ring, cx + ring + 1):
            for iy in range(cy - ring, cy + ring + 1):
                bucket = grid.get((ix, iy))
                if bucket:
                    buckets_hit += 1
                    ids.extend(bucket)
        if buckets_hit > 1:
            # Each bucket is already in attach order (built by iterating the
            # listener dict); a single-bucket result needs no sort.
            ids.sort(key=self._attach_order.__getitem__)
        return ids

    # ----------------------------------------------------- attach/detach

    def attach(self, host_id: int, listener: RadioListener) -> None:
        """Register a host's radio.  Host ids must be unique."""
        if host_id in self._listeners:
            raise ValueError(f"host {host_id} already attached")
        mask = self._attached_mask
        if mask is not None and not 0 <= host_id < len(mask):
            raise ValueError(
                f"host {host_id} outside the position store's id range "
                f"0..{len(mask) - 1}"
            )
        self._listeners[host_id] = listener
        self._incoming[host_id] = {}
        order = next(self._attach_counter)
        self._attach_order[host_id] = order
        if mask is not None:
            mask[host_id] = True
            self._vec_order[host_id] = order
            self._vec_inflight[host_id] = 0
            self._vec_clean_sender[host_id] = -1
            self._vec_transmitting[host_id] = False
            stats_obj = getattr(listener, "stats", None)
            if (
                stats_obj is not None
                and getattr(listener, "_notify_corrupt", True) is False
            ):
                # MAC that swallows corruption upcalls: its counter can be
                # bumped in bulk from the corruption array at flush time.
                self._vec_mac_stats[host_id] = stats_obj
            else:
                self._vec_any_notify = True
            if host_id != order:
                self._vector_sorted = False
        # The new host's position may not be queryable yet (hosts attach
        # during construction), so invalidate instead of inserting.
        self._grid = None

    def detach(self, host_id: int) -> None:
        """Remove a host (e.g. crash / going offline).

        If the host is mid-transmission its frame is aborted first, so the
        scheduled end-of-frame event neither KeyErrors nor delivers a frame
        from a radio that no longer exists.  Receptions in progress at the
        host simply vanish with its inbox.
        """
        if host_id in self._active:
            self.abort_transmission(host_id)
        self._listeners.pop(host_id, None)
        self._incoming.pop(host_id, None)
        self._attach_order.pop(host_id, None)
        mask = self._attached_mask
        if mask is not None and 0 <= host_id < len(mask):
            mask[host_id] = False
            # Receptions in flight at this host vanish with it (the scalar
            # kernel drops the inbox): bump the generation so their
            # ending transmissions skip this receiver.
            self._vec_gen[host_id] += 1
            self._vec_inflight[host_id] = 0
            self._vec_clean_sender[host_id] = -1
            # A later re-attach gets a fresh (higher) order index, so
            # attach order and id order have permanently diverged.
            self._vector_sorted = False
        if self._grid is not None:
            key = self._grid_cell_of.pop(host_id, None)
            if key is not None:
                self._grid[key].remove(host_id)

    def abort_transmission(self, sender_id: int) -> bool:
        """Truncate ``sender_id``'s in-flight frame (radio crash / power-off).

        The frame disappears from the air immediately: every receiver's
        reception of it is scrubbed without any delivery or corruption
        callback (a truncated frame fails its CRC and carries no decodable
        information; the energy stops now, so receivers whose inbox empties
        get a medium-idle edge).  TX/RX airtime counters are credited back
        for the unsent remainder.  Returns ``True`` if a frame was actually
        aborted, ``False`` if the host was not transmitting.
        """
        tx = self._active.pop(sender_id, None)
        if tx is None:
            return False
        if tx.end_event is not None:
            tx.end_event.cancel()
        now = self._scheduler.now
        remainder = max(0.0, tx.end_time - now)
        self.stats.aborted_frames += 1
        self.stats.add_tx_airtime(sender_id, -remainder)
        if self._tracing:
            self._tracer.emit(now, "tx-abort", sender=sender_id)
        if self._trace is not None:
            kind, src, seq, _hops = frame_ident(tx.frame)
            self._trace.records.append(
                (now, "tx-abort", sender_id, kind, src, seq)
            )
        if self._store is not None:
            self._vec_transmitting[sender_id] = False
            ids = tx.receiver_ids
            if ids.size:
                valid = self._attached_mask[ids]
                valid &= self._vec_gen[ids] == tx.gens
                vids = ids if valid.all() else ids[valid]
                inflight = self._vec_inflight
                inflight[vids] -= 1
                self.stats.truncated_receptions += int(vids.size)
                self._vec_rx_air[vids] -= remainder
                clean_sender = self._vec_clean_sender
                mine = vids[clean_sender[vids] == sender_id]
                if mine.size:
                    clean_sender[mine] = -1
                idle = vids[inflight[vids] == 0]
                for host_id in idle.tolist():
                    listener = self._listeners.get(host_id)
                    if listener is not None:
                        listener.on_medium_state(False)
            return True
        newly_idle: List[int] = []
        for host_id in tx.receiver_ids:
            inbox = self._incoming.get(host_id)
            if inbox is None:  # receiver itself detached mid-frame
                continue
            reception = inbox.pop(sender_id, None)
            if reception is None:
                continue
            self.stats.truncated_receptions += 1
            self.stats.add_rx_airtime(host_id, -remainder)
            if not inbox:
                newly_idle.append(host_id)
        for host_id in newly_idle:
            listener = self._listeners.get(host_id)
            if listener is not None:
                listener.on_medium_state(False)
        return True

    @property
    def attached_ids(self) -> List[int]:
        return list(self._listeners)

    def is_transmitting(self, host_id: int) -> bool:
        return host_id in self._active

    def carrier_busy(self, host_id: int) -> bool:
        """Whether ``host_id`` senses energy (incoming or its own TX)."""
        if self._store is not None:
            return (
                bool(self._vec_inflight[host_id]) or host_id in self._active
            )
        return bool(self._incoming.get(host_id)) or host_id in self._active

    def _vector_scan(self, cx: float, cy: float, xs, ys, exclude: int):
        """Attached host ids within radio range of ``(cx, cy)`` (minus
        ``exclude``) as one vectorized distance mask over the store arrays.

        The mask yields id order; re-sorted by attach order when the two
        have diverged (``_vector_sorted`` False) so receiver iteration
        matches the scalar scan.
        """
        dx = xs - cx
        dy = ys - cy
        dsq = dx * dx
        dsq += dy * dy
        mask = dsq <= self._radio_radius_sq
        mask &= self._attached_mask
        if 0 <= exclude < mask.shape[0]:
            mask[exclude] = False
        ids = _np.nonzero(mask)[0]
        if not self._vector_sorted and ids.size > 1:
            ids = ids[_np.argsort(self._vec_order[ids], kind="stable")]
        self.stats.batch_scans += 1
        self.stats.vector_candidates += int(ids.size)
        return ids

    def neighbors_in_range(self, host_id: int) -> List[int]:
        """Geometric oracle: attached hosts within radio range right now."""
        store = self._store
        if store is not None:
            xs, ys = store.arrays_at(self._scheduler._now)
            return self._vector_scan(
                float(xs[host_id]), float(ys[host_id]), xs, ys, host_id
            ).tolist()
        position_of = self._position_of
        pos_cache = self._positions_now()
        pos_cache_get = pos_cache.get
        center = pos_cache_get(host_id)
        if center is None:
            center = pos_cache[host_id] = position_of(host_id)
        cx, cy = center
        rr = self._radio_radius_sq
        out = []
        for other_id in self._candidate_ids((cx, cy)):
            if other_id == host_id:
                continue
            pos = pos_cache_get(other_id)
            if pos is None:
                pos = pos_cache[other_id] = position_of(other_id)
            ox, oy = pos
            dx = cx - ox
            dy = cy - oy
            if dx * dx + dy * dy <= rr:
                out.append(other_id)
        return out

    def start_transmission(self, sender_id: int, frame: Any, duration: float) -> None:
        """Put ``frame`` on the air from ``sender_id`` for ``duration`` seconds.

        Called by the MAC exactly when transmission begins (after DIFS /
        backoff).  Raises if the sender is already transmitting.
        """
        if sender_id not in self._listeners:
            raise ValueError(f"host {sender_id} not attached")
        if sender_id in self._active:
            raise RuntimeError(f"host {sender_id} is already transmitting")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")

        scheduler = self._scheduler
        now = scheduler._now
        store = self._store
        if store is not None:
            xs, ys = store.arrays_at(now)
            sx = float(xs[sender_id])
            sy = float(ys[sender_id])
            sender_pos = (sx, sy)
        else:
            position_of = self._position_of
            pos_cache = self._positions_now()
            pos_cache_get = pos_cache.get
            sender_pos = pos_cache_get(sender_id)
            if sender_pos is None:
                sender_pos = pos_cache[sender_id] = position_of(sender_id)
            sx, sy = sender_pos
        rr = self._radio_radius_sq
        stats = self.stats
        stats.transmissions += 1
        stats.add_tx_airtime(sender_id, duration)
        if self._tracing:
            self._tracer.emit(
                now, "tx-start", sender=sender_id, duration=duration,
                position=sender_pos,
            )

        # (deaf_misses / injected_drops / collisions accumulate in locals
        # through the receiver scan; slot stores are hoisted out.)
        deaf_misses = 0
        collisions = 0
        injected_drops = 0
        active = self._active
        drop_predicate = self._drop_predicate
        newly_busy: List[int] = []

        if store is not None:
            inflight = self._vec_inflight
            clean_sender = self._vec_clean_sender
            transmitting = self._vec_transmitting
            # Half-duplex: anything the sender was receiving is now
            # garbled.  At most one clean reception can exist (module
            # docstring), so the whole inbox sweep is one slot check.
            if clean_sender[sender_id] >= 0:
                clean_sender[sender_id] = -1
                deaf_misses += 1
            ids = self._vector_scan(sx, sy, xs, ys, sender_id)
            receiver_ids = ids
            tx = _Transmission(
                sender_id, frame, now + duration, ids, sender_pos
            )
            tx.gens = self._vec_gen[ids]
            active[sender_id] = tx
            transmitting[sender_id] = True
            if ids.size:
                rx_seen = self._vec_rx_seen
                new_first = ids[~rx_seen[ids]]
                if new_first.size:
                    # Track first-touch order so the flushed rx_airtime
                    # dict sums in the scalar kernel's insertion order.
                    rx_seen[new_first] = True
                    self._vec_rx_order.extend(new_first.tolist())
                self._vec_rx_air[ids] += duration
                if drop_predicate is None:
                    prev = inflight[ids]
                    inflight[ids] = prev + 1
                    deaf = transmitting[ids]
                    deaf_misses += int(deaf.sum())
                    fresh = prev == 0
                    overlap_ids = ids[~fresh]
                    if overlap_ids.size:
                        # Overlap rule, batched: the (at most one) clean
                        # reception already at each overlapped receiver
                        # flips, and the new arrival lands corrupted --
                        # one collision each, unless it was already deaf.
                        old_clean = overlap_ids[
                            clean_sender[overlap_ids] >= 0
                        ]
                        if old_clean.size:
                            collisions += int(old_clean.size)
                            clean_sender[old_clean] = -1
                        collisions += int((~transmitting[overlap_ids]).sum())
                    new_clean = ids[fresh & ~deaf]
                    if new_clean.size:
                        clean_sender[new_clean] = sender_id
                    if fresh.any():
                        newly_busy = ids[fresh].tolist()
                else:
                    # Stateful drop predicates draw RNG per (sender,
                    # receiver) pair: iterate receivers in attach order
                    # over the same arrays the batched path updates.
                    newly_busy_append = newly_busy.append
                    for host_id in ids.tolist():
                        corrupted = False
                        if transmitting[host_id]:
                            corrupted = True
                            deaf_misses += 1
                        elif drop_predicate(sender_id, host_id):
                            corrupted = True
                            injected_drops += 1
                        count = inflight[host_id]
                        inflight[host_id] = count + 1
                        if count:
                            if clean_sender[host_id] >= 0:
                                clean_sender[host_id] = -1
                                collisions += 1
                            if not corrupted:
                                collisions += 1
                        else:
                            newly_busy_append(host_id)
                            if not corrupted:
                                clean_sender[host_id] = sender_id
        else:
            # Half-duplex: anything the sender was receiving is now garbled.
            incoming = self._incoming
            for reception in incoming[sender_id].values():
                if not reception[_RX_CORRUPTED]:
                    reception[_RX_CORRUPTED] = True
                    deaf_misses += 1

            receiver_ids = []
            tx = _Transmission(
                sender_id, frame, now + duration, receiver_ids, sender_pos
            )
            active[sender_id] = tx
            capture = self._capture
            rx_air = stats.rx_airtime
            append_receiver = receiver_ids.append
            for host_id in self._candidate_ids(sender_pos):
                if host_id == sender_id:
                    continue
                pos = pos_cache_get(host_id)
                if pos is None:
                    pos = pos_cache[host_id] = position_of(host_id)
                hx, hy = pos
                dx = sx - hx
                dy = sy - hy
                dist_sq = dx * dx + dy * dy
                if dist_sq > rr:
                    continue
                append_receiver(host_id)
                try:
                    rx_air[host_id] += duration
                except KeyError:
                    rx_air[host_id] = duration
                corrupted = False
                if host_id in active:
                    # Receiver is itself on the air: deaf to this frame.
                    corrupted = True
                    deaf_misses += 1
                elif drop_predicate is not None and drop_predicate(
                    sender_id, host_id
                ):
                    corrupted = True
                    injected_drops += 1
                power = (
                    capture.power(dist_sq ** 0.5) if capture is not None
                    else 1.0
                )
                inbox = incoming[host_id]
                if inbox:
                    inbox[sender_id] = [frame, sender_id, corrupted, power]
                    if capture is None:
                        # Inlined no-capture overlap rule: everything in
                        # the overlap is garbled (no capture effect).
                        for reception in inbox.values():
                            if not reception[_RX_CORRUPTED]:
                                reception[_RX_CORRUPTED] = True
                                collisions += 1
                    else:
                        self._resolve_overlap(inbox)
                else:
                    inbox[sender_id] = [frame, sender_id, corrupted, power]
                    newly_busy.append(host_id)

        if deaf_misses:
            stats.deaf_misses += deaf_misses
        if collisions:
            stats.collisions += collisions
        if injected_drops:
            stats.injected_drops += injected_drops
        if self._trace is not None:
            kind, src, seq, hops = frame_ident(frame)
            self._trace.records.append((
                now, "tx-start", sender_id, kind, src, seq, hops, duration,
                len(receiver_ids),
            ))
        if newly_busy:
            scheduler.schedule_at(now, self._notify_busy, newly_busy)
        tx.end_event = scheduler.schedule_at(
            now + duration, self._end_transmission, sender_id
        )

    def _resolve_overlap(self, inbox: Dict[int, "_Reception"]) -> None:
        """Corrupt overlapping receptions, honoring the capture model.

        Without capture every frame in the overlap is garbled.  With
        capture each still-live frame survives only if its power beats the
        summed interference of the others by the configured SIR threshold;
        once corrupted, a frame stays corrupted (receivers cannot resync
        mid-frame).
        """
        stats = self.stats
        if self._capture is None:
            for reception in inbox.values():
                if not reception[_RX_CORRUPTED]:
                    reception[_RX_CORRUPTED] = True
                    stats.collisions += 1
            return
        total = sum(r[_RX_POWER] for r in inbox.values())
        for reception in inbox.values():
            if reception[_RX_CORRUPTED]:
                continue
            power = reception[_RX_POWER]
            if not self._capture.survives(power, total - power):
                reception[_RX_CORRUPTED] = True
                stats.collisions += 1

    def _notify_busy(self, host_ids: List[int]) -> None:
        for host_id in host_ids:
            listener = self._listeners.get(host_id)
            if listener is not None:
                listener.on_medium_state(True)

    def _end_transmission(self, sender_id: int) -> None:
        tx = self._active.pop(sender_id, None)
        if tx is None:  # aborted mid-frame (the end event should have been
            return      # cancelled; this guard makes the race harmless)
        if self._store is not None:
            self._end_transmission_vector(sender_id, tx)
            return
        completed: List[list] = []
        newly_idle: List[int] = []
        incoming = self._incoming
        incoming_get = incoming.get
        append_completed = completed.append
        for host_id in tx.receiver_ids:
            inbox = incoming_get(host_id)
            if inbox is None:  # receiver detached mid-frame
                continue
            reception = inbox.pop(sender_id, None)
            if reception is None:
                continue
            # Tack the receiver id onto the reception record itself instead
            # of allocating a (host_id, reception) pair per delivery.
            reception.append(host_id)
            append_completed(reception)
            if not inbox:
                newly_idle.append(host_id)

        listeners_get = self._listeners.get
        for host_id in newly_idle:
            listener = listeners_get(host_id)
            if listener is not None:
                listener.on_medium_state(False)
        tracing = self._tracing
        trace = self._trace
        if trace is not None:
            # One ident per transmission covers every reception below.
            kind, src, seq, _hops = frame_ident(tx.frame)
            trace_records = trace.records
            now = self._scheduler._now
        deliveries = 0
        for reception in completed:
            host_id = reception[4]
            listener = listeners_get(host_id)
            if listener is None:
                continue
            if reception[_RX_CORRUPTED]:
                if tracing:
                    self._tracer.emit(
                        self._scheduler.now, "rx-corrupted",
                        sender=sender_id, receiver=host_id,
                    )
                if trace is not None:
                    trace_records.append(
                        (now, "rx-corrupt", sender_id, host_id, kind, src, seq)
                    )
                listener.on_frame_corrupted(reception[_RX_FRAME], sender_id)
            else:
                deliveries += 1
                if tracing:
                    self._tracer.emit(
                        self._scheduler.now, "rx",
                        sender=sender_id, receiver=host_id,
                    )
                if trace is not None:
                    trace_records.append(
                        (now, "rx", sender_id, host_id, kind, src, seq)
                    )
                listener.on_frame_received(reception[_RX_FRAME], sender_id)
        if deliveries:
            self.stats.deliveries += deliveries

    def _end_transmission_vector(self, sender_id: int, tx: _Transmission) -> None:
        """Array-state frame end (see module docstring).

        Mirrors the scalar :meth:`_end_transmission` exactly: idle edges
        fire first in receiver order, then reception outcomes dispatch in
        receiver order.  Receivers that detached (or detached and
        re-attached) mid-frame are skipped via the generation snapshot,
        like the scalar kernel's vanished-inbox pop.
        """
        self._vec_transmitting[sender_id] = False
        ids = tx.receiver_ids
        listeners_get = self._listeners.get
        clean_sender = self._vec_clean_sender
        if ids.size:
            valid = self._attached_mask[ids]
            valid &= self._vec_gen[ids] == tx.gens
            vids = ids if valid.all() else ids[valid]
            inflight = self._vec_inflight
            inflight[vids] -= 1
            idle = vids[inflight[vids] == 0]
            for host_id in idle.tolist():
                listener = listeners_get(host_id)
                if listener is not None:
                    listener.on_medium_state(False)
        else:
            vids = ids
        clean = clean_sender[vids] == sender_id
        delivered = vids[clean]
        if delivered.size:
            clean_sender[delivered] = -1
        frame = tx.frame
        tracing = self._tracing
        trace = self._trace
        deliveries = 0
        if tracing or trace is not None or self._vec_any_notify:
            # Ordered per-reception dispatch: corruption upcalls and trace
            # records interleave with deliveries in receiver order, byte
            # for byte like the scalar loop.
            if trace is not None:
                kind, src, seq, _hops = frame_ident(frame)
                trace_records = trace.records
                now = self._scheduler._now
            clean_list = clean.tolist()
            for index, host_id in enumerate(vids.tolist()):
                listener = listeners_get(host_id)
                if listener is None:
                    continue
                if clean_list[index]:
                    deliveries += 1
                    if tracing:
                        self._tracer.emit(
                            self._scheduler.now, "rx",
                            sender=sender_id, receiver=host_id,
                        )
                    if trace is not None:
                        trace_records.append(
                            (now, "rx", sender_id, host_id, kind, src, seq)
                        )
                    listener.on_frame_received(frame, sender_id)
                else:
                    if tracing:
                        self._tracer.emit(
                            self._scheduler.now, "rx-corrupted",
                            sender=sender_id, receiver=host_id,
                        )
                    if trace is not None:
                        trace_records.append(
                            (now, "rx-corrupt", sender_id, host_id, kind,
                             src, seq)
                        )
                    listener.on_frame_corrupted(frame, sender_id)
        else:
            corrupted_ids = vids[~clean]
            if corrupted_ids.size:
                # Every attached listener swallows corruption upcalls
                # (MAC stat bump only) -- accumulate the bumps in the
                # array; finalize_vector_stats() folds them into MacStats.
                self._vec_corrupted[corrupted_ids] += 1
            deliveries = int(delivered.size)
            claim = self.bulk_receiver
            if deliveries and claim is not None and claim(
                frame, sender_id, delivered
            ):
                self._vec_received[delivered] += 1
            else:
                for host_id in delivered.tolist():
                    listener = listeners_get(host_id)
                    if listener is not None:
                        listener.on_frame_received(frame, sender_id)
        if deliveries:
            self.stats.deliveries += deliveries

    def finalize_vector_stats(self) -> None:
        """Fold the vector kernel's array-accumulated per-host tallies
        into the dict/stats form the scalar kernel maintains inline.

        Idempotent and safe to call mid-run: the arrays stay the source
        of truth -- the rx-airtime dict is rebuilt (in first-touch order,
        matching the scalar kernel's insertion order and therefore its
        float summation order), and MAC ``frames_corrupted`` and bulk
        ``frames_received`` bumps are delta-flushed.  No-op on the scalar
        kernel.  Called by :meth:`repro.perf.KernelPerf.collect` at end of
        run.
        """
        if self._store is None:
            return
        rx_vec = self._vec_rx_air
        rx_air = self.stats.rx_airtime
        rx_air.clear()
        for host_id in self._vec_rx_order:
            rx_air[host_id] = float(rx_vec[host_id])
        mac_stats = self._vec_mac_stats
        for field, tally, flushed in (
            ("frames_corrupted", self._vec_corrupted,
             self._vec_corrupted_flushed),
            ("frames_received", self._vec_received,
             self._vec_received_flushed),
        ):
            pending = tally - flushed
            if not pending.any():
                continue
            for host_id in _np.nonzero(pending)[0].tolist():
                stats_obj = mac_stats.get(host_id)
                if stats_obj is not None:
                    setattr(stats_obj, field,
                            getattr(stats_obj, field) + int(pending[host_id]))
            flushed[:] = tally
