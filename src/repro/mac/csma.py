"""Per-host CSMA/CA distributed coordination function.

Broadcast DCF (IEEE Std 802.11-1997, the paper's regime):

- A frame arriving at an idle MAC whose medium has been idle for at least
  DIFS is transmitted immediately; if the idle period is shorter, the MAC
  must go through the random backoff procedure.
- A frame arriving while the medium is busy (or while a backoff is pending)
  is queued; access then always uses random backoff.
- The backoff counter is drawn uniformly from ``[0, CW]`` and counts down
  one slot at a time while the medium is idle after a DIFS; it freezes when
  the medium goes busy and resumes (not redraws) on the next idle DIFS.
- After **every** transmission the MAC performs a post-transmission backoff,
  even with an empty queue.
- Broadcast frames are never acknowledged or retransmitted, so the
  contention window stays at ``cw_min``.

The scheme layer interacts through :meth:`CsmaCaMac.send`, which returns a
:class:`MacFrameHandle`; the paper's scheme step S5 ("cancel the
transmission of P") maps to :meth:`MacFrameHandle.cancel`, legal any time
before the frame is on the air, and scheme step S3 ("packet P is on the
air") maps to the handle's ``on_transmit_start`` callback.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

from repro.mac.frames import DataFrame
from repro.phy.channel import Channel, RadioListener
from repro.phy.params import PhyParams
from repro.sim.engine import Event, Scheduler
from repro.trace.recorder import frame_ident

__all__ = ["CsmaCaMac", "MacFrameHandle", "MacReceiver", "MacStats"]


class MacReceiver:
    """Upper-layer interface a host implements to receive from its MAC."""

    def on_frame_received(self, frame: Any, sender_id: int) -> None:
        raise NotImplementedError

    def on_frame_corrupted(self, frame: Any, sender_id: int) -> None:
        """Optional: a frame was heard but garbled."""

    #: Set to ``False`` on receivers whose ``on_frame_corrupted`` is a
    #: no-op: the MAC then skips the upcall entirely (it fires once per
    #: garbled frame per receiver -- the hottest callback in a storm).
    #: MAC-level corruption counters are maintained either way.
    handles_corrupted_frames: bool = True


class MacStats:
    """Per-host MAC counters (a ``__slots__`` class; these are bumped on
    every frame event)."""

    __slots__ = (
        "frames_sent", "frames_cancelled", "frames_flushed",
        "frames_received", "frames_corrupted", "backoffs_started",
    )

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_cancelled = 0
        self.frames_flushed = 0  # queued frames discarded by a crash/shutdown
        self.frames_received = 0
        self.frames_corrupted = 0
        self.backoffs_started = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MacStats):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None  # mutable counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"MacStats({fields})"


class MacFrameHandle:
    """A queued frame; lets the sender cancel it before it is on the air."""

    __slots__ = (
        "frame", "size_bytes", "on_transmit_start", "cancelled",
        "transmitted",
    )

    def __init__(
        self,
        frame: Any,
        size_bytes: int,
        on_transmit_start: Optional[Callable[[], None]],
    ) -> None:
        self.frame = frame
        self.size_bytes = size_bytes
        self.on_transmit_start = on_transmit_start
        self.cancelled = False
        self.transmitted = False

    def cancel(self) -> bool:
        """Withdraw the frame.  Returns ``True`` if it had not yet started
        transmitting (i.e. the cancellation took effect)."""
        if self.transmitted:
            return False
        self.cancelled = True
        return True


class CsmaCaMac(RadioListener):
    """One host's MAC entity."""

    __slots__ = (
        "host_id", "_scheduler", "_channel", "_params", "_rng", "_receiver",
        "stats", "_queue", "_transmitting", "_others_busy",
        "_others_idle_since", "_last_tx_end", "_cw", "_backoff_remaining",
        "_countdown_base", "_access_event", "_tx_done_event", "_dead",
        "_difs", "_slot_time", "_airtime_cache", "_notify_corrupt",
        "_trace",
    )

    def __init__(
        self,
        host_id: int,
        scheduler: Scheduler,
        channel: Channel,
        params: PhyParams,
        rng: random.Random,
        receiver: MacReceiver,
        trace: Optional[Any] = None,
    ) -> None:
        self.host_id = host_id
        self._scheduler = scheduler
        self._channel = channel
        self._params = params
        self._rng = rng
        self._receiver = receiver
        self._trace = trace
        self.stats = MacStats()

        # PhyParams is frozen: hoist the per-event timing constants and
        # precompute frame airtimes (the same few sizes recur all run).
        self._difs = params.difs
        self._slot_time = params.slot_time
        self._airtime_cache: Dict[int, float] = {}
        self._notify_corrupt = getattr(
            receiver, "handles_corrupted_frames", True
        )

        self._queue: Deque[MacFrameHandle] = deque()
        self._transmitting = False
        self._others_busy = False
        self._others_idle_since = 0.0
        self._last_tx_end = 0.0
        self._cw = params.cw_min  # broadcasts never grow the window
        self._backoff_remaining: Optional[int] = None
        self._countdown_base: Optional[float] = None
        self._access_event: Optional[Event] = None
        self._tx_done_event: Optional[Event] = None
        self._dead = False

        channel.attach(host_id, self)

    # ------------------------------------------------------------------ API

    def send(
        self,
        frame: Any,
        size_bytes: int,
        on_transmit_start: Optional[Callable[[], None]] = None,
    ) -> MacFrameHandle:
        """Queue ``frame`` for broadcast transmission.

        ``on_transmit_start`` fires at the instant the frame goes on the air
        (the scheme's "transmission actually starts").  The returned handle
        supports :meth:`MacFrameHandle.cancel`.
        """
        if self._dead:
            raise RuntimeError(f"host {self.host_id}: MAC is shut down")
        handle = MacFrameHandle(frame, size_bytes, on_transmit_start)
        if self._trace is not None:
            kind, src, seq, _hops = frame_ident(frame)
            self._trace.records.append((
                self._scheduler._now, "mac-enqueue", self.host_id, kind,
                src, seq,
            ))
        self._queue.append(handle)
        if self._transmitting or self._access_event is not None:
            return handle
        if self._others_busy:
            # Deferred arrival: access must use the backoff procedure.
            if self._backoff_remaining is None:
                self._backoff_remaining = self._draw_backoff()
            return handle
        if self._backoff_remaining is None:
            idle_since = self._others_idle_since
            last_end = self._last_tx_end
            idle_base = idle_since if idle_since >= last_end else last_end
            if self._scheduler._now - idle_base >= self._difs:
                # Medium already idle >= DIFS: immediate access.
                self._start_transmission()
                return handle
            # Idle but not yet for a full DIFS: per DCF the station must
            # go through the random backoff procedure.
            self._backoff_remaining = self._draw_backoff()
        self._maybe_resume()
        return handle

    @property
    def queue_length(self) -> int:
        """Frames waiting (cancelled husks excluded)."""
        return sum(1 for h in self._queue if not h.cancelled)

    @property
    def is_transmitting(self) -> bool:
        return self._transmitting

    @property
    def is_shut_down(self) -> bool:
        return self._dead

    # ------------------------------------------------- crash / recover

    def shutdown(self) -> None:
        """Power the radio off (host crash).

        Aborts any in-flight transmission at the channel, cancels the
        pending MAC events (access, tx-done), flushes the queue and
        detaches from the channel.  Idempotent.
        """
        if self._dead:
            return
        self._dead = True
        if self._transmitting:
            self._channel.abort_transmission(self.host_id)
            self._transmitting = False
        for event in (self._access_event, self._tx_done_event):
            if event is not None:
                event.cancel()
        self._access_event = None
        self._tx_done_event = None
        self.stats.frames_flushed += sum(
            1 for handle in self._queue if not handle.cancelled
        )
        self._queue.clear()
        self._backoff_remaining = None
        self._countdown_base = None
        self._others_busy = False
        self._channel.detach(self.host_id)

    def restart(self) -> None:
        """Power the radio back on after :meth:`shutdown` (host recovery).

        Re-attaches to the channel with a clean slate: empty queue, fresh
        contention state, and the medium assumed idle as of now (frames
        already in flight froze their receiver sets at tx-start, so the
        re-attached radio hears nothing until the next frame begins --
        exactly like a station that just powered on mid-frame).
        """
        if not self._dead:
            raise RuntimeError(f"host {self.host_id}: MAC is not shut down")
        self._dead = False
        self._channel.attach(self.host_id, self)
        now = self._scheduler.now
        self._others_busy = False
        self._others_idle_since = now
        self._last_tx_end = now

    # --------------------------------------------------- channel callbacks

    def on_medium_state(self, busy: bool) -> None:
        # Fires on every carrier edge at every in-range host; the common
        # cases (no pending access / nothing queued) return without a call.
        if busy:
            self._others_busy = True
            if self._access_event is not None:
                # _freeze(), inlined minus its redundant None re-check.
                self._access_event.cancel()
                self._access_event = None
                remaining = self._backoff_remaining
                if remaining is not None and self._countdown_base is not None:
                    elapsed = self._scheduler._now - self._countdown_base
                    consumed = math.floor(elapsed / self._slot_time)
                    if consumed > 0:
                        remaining -= consumed
                        self._backoff_remaining = (
                            remaining if remaining > 0 else 0
                        )
                self._countdown_base = None
                if self._trace is not None:
                    self._trace.records.append((
                        self._scheduler._now, "mac-freeze", self.host_id,
                        self._backoff_remaining,
                    ))
        else:
            self._others_busy = False
            now = self._scheduler._now
            self._others_idle_since = now
            if self._transmitting or self._access_event is not None:
                return
            # Specialized _maybe_resume: on an idle edge the idle base is
            # exactly ``now`` (``_others_idle_since == now`` and
            # ``_last_tx_end <= now``), so the DIFS deadline needs no
            # max() clamps.
            remaining = self._backoff_remaining
            if remaining is None:
                for handle in self._queue:
                    if not handle.cancelled:
                        break
                else:
                    return
                self._access_event = self._scheduler.schedule_at(
                    now + self._difs, self._access_fire
                )
                return
            base = now + self._difs
            self._countdown_base = base
            self._access_event = self._scheduler.schedule_at(
                base + remaining * self._slot_time, self._access_fire
            )

    def on_frame_received(self, frame: Any, sender_id: int) -> None:
        self.stats.frames_received += 1
        if isinstance(frame, DataFrame):
            self._receiver.on_frame_received(frame.payload, frame.src)
            return
        # Raw (non-enveloped) frame, e.g. injected directly in tests.
        self._receiver.on_frame_received(frame, sender_id)

    def on_frame_corrupted(self, frame: Any, sender_id: int) -> None:
        self.stats.frames_corrupted += 1
        if not self._notify_corrupt:
            return
        payload = frame.payload if isinstance(frame, DataFrame) else frame
        self._receiver.on_frame_corrupted(payload, sender_id)

    # ------------------------------------------------------------ internals

    def _airtime(self, size_bytes: int) -> float:
        """Frame airtime, memoized per size (the same few sizes recur)."""
        cache = self._airtime_cache
        duration = cache.get(size_bytes)
        if duration is None:
            duration = cache[size_bytes] = self._params.airtime(size_bytes)
        return duration

    def _draw_backoff(self) -> int:
        self.stats.backoffs_started += 1
        slots = self._rng.randint(0, self._cw)
        if self._trace is not None:
            self._trace.records.append((
                self._scheduler._now, "mac-backoff", self.host_id, slots,
                self._cw,
            ))
        return slots

    def _maybe_resume(self) -> None:
        """Schedule the next access completion if the medium allows it."""
        if (
            self._transmitting
            or self._access_event is not None
            or self._others_busy
        ):
            return
        idle_since = self._others_idle_since
        last_end = self._last_tx_end
        idle_base = idle_since if idle_since >= last_end else last_end
        now = self._scheduler._now
        if self._backoff_remaining is None:
            # No pending backoff: only initial DIFS access for a queued
            # frame.  (Loop instead of the queue_length property: this is
            # hot and the queue is usually empty or tiny.)
            for handle in self._queue:
                if not handle.cancelled:
                    break
            else:
                return
            fire_at = idle_base + self._difs
            if fire_at < now:
                fire_at = now
            self._access_event = self._scheduler.schedule_at(
                fire_at, self._access_fire
            )
            return
        base = idle_base + self._difs
        self._countdown_base = base
        fire_at = base + self._backoff_remaining * self._slot_time
        if fire_at < now:
            fire_at = now
        self._access_event = self._scheduler.schedule_at(fire_at, self._access_fire)

    def _access_fire(self) -> None:
        self._access_event = None
        self._backoff_remaining = None
        self._countdown_base = None
        self._start_transmission()

    def _start_transmission(self) -> None:
        while self._queue and self._queue[0].cancelled:
            self._queue.popleft()
            self.stats.frames_cancelled += 1
        if not self._queue:
            return
        handle = self._queue.popleft()
        handle.transmitted = True
        self._transmitting = True
        self.stats.frames_sent += 1
        duration = self._airtime(handle.size_bytes)
        if handle.on_transmit_start is not None:
            handle.on_transmit_start()
        envelope = DataFrame(
            src=self.host_id,
            payload=handle.frame,
            size_bytes=handle.size_bytes,
        )
        self._channel.start_transmission(self.host_id, envelope, duration)
        self._tx_done_event = self._scheduler.schedule(
            duration, self._tx_done
        )

    def _tx_done(self) -> None:
        self._tx_done_event = None
        self._transmitting = False
        self._last_tx_end = self._scheduler._now
        self._backoff_remaining = self._draw_backoff()
        self._maybe_resume()
