"""The shared radio medium.

Propagation model
-----------------
Unit disk: a frame transmitted from position *p* is heard by every attached
host within ``radio_radius`` of *p*.  The receiver set is frozen at
transmission start; at the paper's parameters a frame lasts 2.432 ms, during
which even an 80 km/h host moves under 6 cm, so mid-frame topology change is
negligible.

Host positions come from a :class:`repro.mobility.store.PositionStore`
(host ids ``0 .. store.size - 1``).  A transmission's receiver scan is one
numpy distance mask over the store's position arrays at the current
instant.  The mask yields hosts in id order; when attach order and id order
have diverged (a host crashed and recovered), the matched set is re-sorted
by attach order, so receiver iteration -- and with it the RNG draw order of
stateful drop predicates, medium-busy edge order and delivery callback
order -- always follows attach order.

Collision model
---------------
Receiver-side overlap, no capture effect, which is what makes the broadcast
storm bite:

- If two or more frames overlap in time at a receiver, **all** of them are
  corrupted at that receiver (the paper: without collision detection a host
  keeps transmitting even if foregoing bits were garbled).
- A host is half-duplex: frames arriving while it transmits are corrupted
  for it, though they still occupy its carrier sense afterwards.

An optional :class:`~repro.phy.capture.CaptureModel` relaxes the first rule
for ablations: when a frame arrives at a busy receiver, each still-clean
frame there survives iff its power over the summed power of every other
in-flight frame at that receiver meets the SIR threshold; once corrupted, a
frame stays corrupted.

Reception state
---------------
Reception state is a handful of flat per-host arrays, not per-host inboxes.
This rests on the *single-clean-reception invariant*: at every instant a
receiver holds **at most one clean reception**.  Without capture, any
arrival into a busy receiver garbles everything there, so only the first
frame into an idle receiver can be clean.  With capture the threshold ``t``
is above 0 dB, so two frames A and B cannot both survive: A needs
``p_A >= t * (p_B + rest) > p_B`` and B the reverse.  An in-flight count
plus one clean-sender slot per receiver therefore carry the full reception
state, and corruption-flip counts (``collisions`` / ``deaf_misses``) follow
exactly.  Consequences:

- per-host rx airtime and MAC ``frames_corrupted`` tallies accumulate in
  arrays and are folded into their dict/stats form by
  :meth:`Channel.finalize_stats`, which reading :attr:`Channel.stats` does;
- a :attr:`Channel.bulk_receiver` may claim a clean frame for all of its
  receivers at once (the network claims decoded broadcast HELLOs): no
  per-receiver upcall runs, and the receivers' MAC ``frames_received``
  tallies are array-accumulated and folded like ``frames_corrupted``;
- a ``drop_predicate`` (stateful fault-injected loss) or a capture model
  switches the scan from whole-array operations to a per-receiver loop over
  the same arrays, preserving the predicate's per-pair RNG call order.
  Under capture each transmission keeps its receivers' powers, and a busy
  receiver's interference is the sum over the live transmissions reaching
  it, in start (= arrival) order;
- a trace recorder or a corrupted-frame-notify listener forces the
  per-reception dispatch loop at frame end, keeping callback/record order
  identical.

Carrier sensing
---------------
Edge-triggered ``on_medium_state(busy)`` notifications track *incoming*
energy only (transitions of the host's in-flight reception count between
zero and non-zero); a host's own transmission state is something its MAC
already knows, so it is deliberately excluded from the notifications.  The
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
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.mobility.store import PositionStore
from repro.phy.capture import CaptureModel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler
from repro.trace.recorder import frame_ident

__all__ = ["Channel", "ChannelStats", "RadioListener"]


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
        "batch_scans", "vector_candidates",
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
        #: Vectorized receiver scans (one per transmission or oracle query).
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

    @property
    def total_tx_airtime(self) -> float:
        return sum(self.tx_airtime.values())

    @property
    def total_rx_airtime(self) -> float:
        return sum(self.rx_airtime.values())


class _Transmission:
    __slots__ = (
        "sender_id", "frame", "end_time", "receiver_ids", "gens", "powers",
        "end_event",
    )

    def __init__(
        self,
        sender_id: int,
        frame: Any,
        end_time: float,
        receiver_ids: Any,
        gens: Any,
    ) -> None:
        self.sender_id = sender_id
        self.frame = frame
        self.end_time = end_time
        #: Receiver ids (int ndarray, attach order) frozen at TX start.
        self.receiver_ids = receiver_ids
        #: Each receiver's detach generation at TX start (parallel array).
        self.gens = gens
        #: Capture only: receiver id -> received power, for the receptions
        #: still live (a receiver's detach removes its entry).
        self.powers: Optional[Dict[int, float]] = None
        self.end_event: Any = None


class Channel:
    """Unit-disk broadcast medium with receiver-side collisions."""

    # No __slots__ here on purpose: there is exactly one Channel per
    # simulation (nothing to save), and tests spy on its methods by
    # instance assignment.

    def __init__(
        self,
        scheduler: Scheduler,
        params: PhyParams,
        position_store: PositionStore,
        drop_predicate: Optional[Callable[[int, int], bool]] = None,
        capture: Optional[CaptureModel] = None,
        trace: Optional[Any] = None,
    ) -> None:
        self._scheduler = scheduler
        self._params = params
        self._store = position_store
        self._drop_predicate = drop_predicate
        #: :class:`repro.trace.TraceRecorder` sink; ``None`` keeps the
        #: guarded emission sites inert.
        self._trace = trace
        self._capture = capture
        self._radio_radius_sq = params.radio_radius * params.radio_radius
        self._listeners: Dict[int, RadioListener] = {}
        self._active: Dict[int, _Transmission] = {}
        self._stats = ChannelStats()
        self._attach_counter = itertools.count()
        n = position_store.size
        self._attached = np.zeros(n, dtype=bool)
        # Reception state (module docstring): in-flight count + the id of
        # the at most one clean reception's sender (-1 none) per receiver.
        self._inflight = np.zeros(n, dtype=np.int32)
        self._clean_sender = np.full(n, -1, dtype=np.int32)
        self._transmitting = np.zeros(n, dtype=bool)
        # Detach generation: receptions in flight across a receiver's
        # detach (and possible re-attach) must vanish with the radio.
        self._gen = np.zeros(n, dtype=np.int32)
        self._order = np.zeros(n, dtype=np.int64)
        # Whether attach order still equals id order; a re-attach (crash
        # and recover) clears it, and matched sets are re-sorted per scan
        # from then on.
        self._id_ordered = True
        # Array-accumulated per-host tallies, folded into the dict/stats
        # form by finalize_stats().
        self._corrupted = np.zeros(n, dtype=np.int64)
        self._corrupted_flushed = np.zeros(n, dtype=np.int64)
        self._received = np.zeros(n, dtype=np.int64)
        self._received_flushed = np.zeros(n, dtype=np.int64)
        self._rx_air = np.zeros(n, dtype=np.float64)
        self._rx_seen = np.zeros(n, dtype=bool)
        self._rx_order: List[int] = []
        self._mac_stats: Dict[int, Any] = {}
        # Any attached listener that wants per-frame corruption upcalls
        # forces the ordered dispatch loop at frame end.
        self._any_notify = False
        #: Optional ``(frame, sender_id, receiver_ids) -> bool`` offered
        #: each clean frame once, with the whole delivered id array, on the
        #: fast frame-end branch (no tracing, no corruption listeners).
        #: Returning ``True`` claims the frame for every receiver: no
        #: per-receiver ``on_frame_received`` upcall is made, and each
        #: receiver's MAC ``frames_received`` is bumped in bulk.  Only for
        #: frames whose MAC reception is that bump alone (broadcast data
        #: frames).
        self.bulk_receiver: Optional[
            Callable[[Any, int, Any], bool]
        ] = None

    @property
    def params(self) -> PhyParams:
        return self._params

    @property
    def stats(self) -> ChannelStats:
        """Medium-wide counters, with the array tallies folded in (see
        :meth:`finalize_stats`)."""
        self.finalize_stats()
        return self._stats

    @property
    def drop_predicate(self) -> Optional[Callable[[int, int], bool]]:
        return self._drop_predicate

    @drop_predicate.setter
    def drop_predicate(
        self, predicate: Optional[Callable[[int, int], bool]]
    ) -> None:
        self._drop_predicate = predicate

    # ----------------------------------------------------- attach/detach

    def attach(self, host_id: int, listener: RadioListener) -> None:
        """Register a host's radio.  Host ids must be unique."""
        if host_id in self._listeners:
            raise ValueError(f"host {host_id} already attached")
        attached = self._attached
        if not 0 <= host_id < len(attached):
            raise ValueError(
                f"host {host_id} outside the position store's id range "
                f"0..{len(attached) - 1}"
            )
        self._listeners[host_id] = listener
        order = next(self._attach_counter)
        attached[host_id] = True
        self._order[host_id] = order
        self._inflight[host_id] = 0
        self._clean_sender[host_id] = -1
        self._transmitting[host_id] = False
        stats_obj = getattr(listener, "stats", None)
        if (
            stats_obj is not None
            and getattr(listener, "_notify_corrupt", True) is False
        ):
            # MAC that swallows corruption upcalls: its counter can be
            # bumped in bulk from the corruption array at flush time.
            self._mac_stats[host_id] = stats_obj
        else:
            self._any_notify = True
        if host_id != order:
            self._id_ordered = False

    def detach(self, host_id: int) -> None:
        """Remove a host (e.g. crash / going offline).

        If the host is mid-transmission its frame is aborted first, so the
        scheduled end-of-frame event neither KeyErrors nor delivers a frame
        from a radio that no longer exists.  Receptions in progress at the
        host simply vanish with its radio.
        """
        if host_id in self._active:
            self.abort_transmission(host_id)
        self._listeners.pop(host_id, None)
        attached = self._attached
        if 0 <= host_id < len(attached):
            attached[host_id] = False
            # Bump the generation so the transmissions in flight skip this
            # receiver when they end.
            self._gen[host_id] += 1
            self._inflight[host_id] = 0
            self._clean_sender[host_id] = -1
            if self._capture is not None:
                for tx in self._active.values():
                    tx.powers.pop(host_id, None)

    def abort_transmission(self, sender_id: int) -> bool:
        """Truncate ``sender_id``'s in-flight frame (radio crash / power-off).

        The frame disappears from the air immediately: every receiver's
        reception of it is scrubbed without any delivery or corruption
        callback (a truncated frame fails its CRC and carries no decodable
        information; the energy stops now, so receivers left with nothing
        in flight get a medium-idle edge).  TX/RX airtime counters are
        credited back for the unsent remainder.  Returns ``True`` if a frame
        was actually aborted, ``False`` if the host was not transmitting.
        """
        tx = self._active.pop(sender_id, None)
        if tx is None:
            return False
        if tx.end_event is not None:
            tx.end_event.cancel()
        now = self._scheduler.now
        remainder = max(0.0, tx.end_time - now)
        stats = self._stats
        stats.aborted_frames += 1
        stats.add_tx_airtime(sender_id, -remainder)
        if self._trace is not None:
            kind, src, seq, _hops = frame_ident(tx.frame)
            self._trace.records.append(
                (now, "tx-abort", sender_id, kind, src, seq)
            )
        self._transmitting[sender_id] = False
        vids = self._live_receivers(tx)
        if vids.size:
            inflight = self._inflight
            inflight[vids] -= 1
            stats.truncated_receptions += int(vids.size)
            self._rx_air[vids] -= remainder
            clean_sender = self._clean_sender
            mine = vids[clean_sender[vids] == sender_id]
            if mine.size:
                clean_sender[mine] = -1
            for host_id in vids[inflight[vids] == 0].tolist():
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
        return bool(self._inflight[host_id]) or host_id in self._active

    def _live_receivers(self, tx: _Transmission) -> Any:
        """``tx``'s receivers still holding its reception: attached, and
        not detached since ``tx`` started."""
        ids = tx.receiver_ids
        if not ids.size:
            return ids
        valid = self._attached[ids]
        valid &= self._gen[ids] == tx.gens
        return ids if valid.all() else ids[valid]

    def _scan(self, cx: float, cy: float, xs: Any, ys: Any, exclude: int):
        """Attached host ids within radio range of ``(cx, cy)`` (minus
        ``exclude``) in attach order, plus the squared distances of all
        hosts, as one vectorized distance mask over the store arrays."""
        dx = xs - cx
        dy = ys - cy
        dsq = dx * dx
        dsq += dy * dy
        mask = dsq <= self._radio_radius_sq
        mask &= self._attached
        if 0 <= exclude < mask.shape[0]:
            mask[exclude] = False
        ids = np.nonzero(mask)[0]
        if not self._id_ordered and ids.size > 1:
            ids = ids[np.argsort(self._order[ids], kind="stable")]
        self._stats.batch_scans += 1
        self._stats.vector_candidates += int(ids.size)
        return ids, dsq

    def neighbors_in_range(self, host_id: int) -> List[int]:
        """Geometric oracle: attached hosts within radio range right now."""
        xs, ys = self._store.arrays_at(self._scheduler._now)
        ids, _dsq = self._scan(
            float(xs[host_id]), float(ys[host_id]), xs, ys, host_id
        )
        return ids.tolist()

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
        xs, ys = self._store.arrays_at(now)
        sx = float(xs[sender_id])
        sy = float(ys[sender_id])
        stats = self._stats
        stats.transmissions += 1
        stats.add_tx_airtime(sender_id, duration)

        # (deaf_misses / injected_drops / collisions accumulate in locals
        # through the receiver scan; slot stores are hoisted out.)
        deaf_misses = 0
        collisions = 0
        injected_drops = 0
        newly_busy: List[int] = []
        inflight = self._inflight
        clean_sender = self._clean_sender
        transmitting = self._transmitting
        # Half-duplex: anything the sender was receiving is now garbled.
        # At most one clean reception can exist (module docstring), so the
        # whole sweep is one slot check.
        if clean_sender[sender_id] >= 0:
            clean_sender[sender_id] = -1
            deaf_misses += 1
        ids, dsq = self._scan(sx, sy, xs, ys, sender_id)
        tx = _Transmission(
            sender_id, frame, now + duration, ids, self._gen[ids]
        )
        self._active[sender_id] = tx
        transmitting[sender_id] = True
        capture = self._capture
        if capture is not None:
            # Received power from the scan's squared distances: per pair
            # the same float as a scalar ``dx * dx + dy * dy``.
            tx.powers = {
                host_id: capture.power(dist_sq ** 0.5)
                for host_id, dist_sq in zip(ids.tolist(), dsq[ids].tolist())
            }
        if ids.size:
            rx_seen = self._rx_seen
            new_first = ids[~rx_seen[ids]]
            if new_first.size:
                # Track first-touch order: the folded rx_airtime dict
                # (and so its float sum) follows it.
                rx_seen[new_first] = True
                self._rx_order.extend(new_first.tolist())
            self._rx_air[ids] += duration
            drop_predicate = self._drop_predicate
            if drop_predicate is None and capture is None:
                prev = inflight[ids]
                inflight[ids] = prev + 1
                deaf = transmitting[ids]
                deaf_misses += int(deaf.sum())
                fresh = prev == 0
                overlap_ids = ids[~fresh]
                if overlap_ids.size:
                    # Overlap rule, batched: the (at most one) clean
                    # reception already at each overlapped receiver flips,
                    # and the new arrival lands corrupted -- one collision
                    # each, unless it was already deaf.
                    old_clean = overlap_ids[clean_sender[overlap_ids] >= 0]
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
                # Stateful drop predicates draw RNG per (sender, receiver)
                # pair, and capture decides per receiver: iterate receivers
                # in attach order over the same arrays.
                newly_busy_append = newly_busy.append
                for host_id in ids.tolist():
                    corrupted = False
                    if transmitting[host_id]:
                        corrupted = True
                        deaf_misses += 1
                    elif drop_predicate is not None and drop_predicate(
                        sender_id, host_id
                    ):
                        corrupted = True
                        injected_drops += 1
                    count = inflight[host_id]
                    inflight[host_id] = count + 1
                    if not count:
                        newly_busy_append(host_id)
                        if not corrupted:
                            clean_sender[host_id] = sender_id
                    elif capture is not None:
                        collisions += self._capture_overlap(
                            host_id, tx, corrupted
                        )
                    else:
                        if clean_sender[host_id] >= 0:
                            clean_sender[host_id] = -1
                            collisions += 1
                        if not corrupted:
                            collisions += 1

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
                len(ids),
            ))
        if newly_busy:
            scheduler.schedule_at(now, self._notify_busy, newly_busy)
        tx.end_event = scheduler.schedule_at(
            now + duration, self._end_transmission, sender_id
        )

    def _capture_overlap(
        self, host_id: int, tx: _Transmission, corrupted: bool
    ) -> int:
        """Capture rule for ``tx`` arriving at busy receiver ``host_id``;
        returns the number of frames it corrupts there.

        A still-clean frame survives iff its power beats the summed power
        of every other frame in flight at the receiver by the threshold.
        The total sums the live transmissions reaching ``host_id`` in start
        order, which is their arrival order there.  A receiver decodes at
        most one frame: a new arrival cannot displace a surviving one.
        """
        capture = self._capture
        active = self._active
        total = sum(
            power
            for power in (other.powers.get(host_id) for other in active.values())
            if power is not None
        )
        clean_sender = self._clean_sender
        collisions = 0
        old = int(clean_sender[host_id])
        if old >= 0:
            power = active[old].powers[host_id]
            if not capture.survives(power, total - power):
                clean_sender[host_id] = -1
                old = -1
                collisions += 1
        if not corrupted:
            power = tx.powers[host_id]
            if old < 0 and capture.survives(power, total - power):
                clean_sender[host_id] = tx.sender_id
            else:
                collisions += 1
        return collisions

    def _notify_busy(self, host_ids: List[int]) -> None:
        for host_id in host_ids:
            listener = self._listeners.get(host_id)
            if listener is not None:
                listener.on_medium_state(True)

    def _end_transmission(self, sender_id: int) -> None:
        """Frame end: idle edges fire first in receiver order, then
        reception outcomes dispatch in receiver order.  Receivers that
        detached (or detached and re-attached) mid-frame are skipped."""
        tx = self._active.pop(sender_id, None)
        if tx is None:  # aborted mid-frame (the end event should have been
            return      # cancelled; this guard makes the race harmless)
        self._transmitting[sender_id] = False
        vids = self._live_receivers(tx)
        listeners_get = self._listeners.get
        if vids.size:
            inflight = self._inflight
            inflight[vids] -= 1
            for host_id in vids[inflight[vids] == 0].tolist():
                listener = listeners_get(host_id)
                if listener is not None:
                    listener.on_medium_state(False)
        clean_sender = self._clean_sender
        clean = clean_sender[vids] == sender_id
        delivered = vids[clean]
        if delivered.size:
            clean_sender[delivered] = -1
        frame = tx.frame
        trace = self._trace
        deliveries = 0
        if trace is not None or self._any_notify:
            # Ordered per-reception dispatch: corruption upcalls and trace
            # records interleave with deliveries in receiver order.
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
                    if trace is not None:
                        trace_records.append(
                            (now, "rx", sender_id, host_id, kind, src, seq)
                        )
                    listener.on_frame_received(frame, sender_id)
                else:
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
                # array; finalize_stats() folds them into MacStats.
                self._corrupted[corrupted_ids] += 1
            deliveries = int(delivered.size)
            claim = self.bulk_receiver
            if deliveries and claim is not None and claim(
                frame, sender_id, delivered
            ):
                self._received[delivered] += 1
            else:
                for host_id in delivered.tolist():
                    listener = listeners_get(host_id)
                    if listener is not None:
                        listener.on_frame_received(frame, sender_id)
        if deliveries:
            self._stats.deliveries += deliveries

    def finalize_stats(self) -> None:
        """Fold the array-accumulated per-host tallies into their
        dict/stats form.

        Idempotent and safe to call mid-run: the arrays stay the source
        of truth -- the rx-airtime dict is rebuilt in first-touch order
        (so its float sum is reproducible), and MAC ``frames_corrupted``
        and bulk ``frames_received`` bumps are delta-flushed.  Reading
        :attr:`stats` calls it.
        """
        rx_vec = self._rx_air
        rx_air = self._stats.rx_airtime
        rx_air.clear()
        for host_id in self._rx_order:
            rx_air[host_id] = float(rx_vec[host_id])
        mac_stats = self._mac_stats
        for field, tally, flushed in (
            ("frames_corrupted", self._corrupted, self._corrupted_flushed),
            ("frames_received", self._received, self._received_flushed),
        ):
            pending = tally - flushed
            if not pending.any():
                continue
            for host_id in np.nonzero(pending)[0].tolist():
                stats_obj = mac_stats.get(host_id)
                if stats_obj is not None:
                    setattr(stats_obj, field,
                            getattr(stats_obj, field) + int(pending[host_id]))
            flushed[:] = tally
