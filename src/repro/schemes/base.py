"""Scheme interface and the shared S1-S5 rebroadcast state machine.

Every scheme in the paper follows one skeleton (Section 3):

- **S1** -- on hearing packet P for the first time, initialize an
  assessment (counter ``c``, additional coverage ``ac``, or pending set
  ``T``); some schemes can inhibit immediately.
- **S2** -- wait a random number (0..31) of slots, then submit P to the MAC
  and wait until the transmission actually starts.
- **S3** -- P is on the air; done.
- **S4** -- if P is heard again during the waiting, update the assessment;
  if it crosses the threshold go to S5, otherwise resume waiting.
- **S5** -- cancel the (scheduled or queued) transmission; the host is
  inhibited from rebroadcasting P in the future.

:class:`DeferredRebroadcastScheme` implements S2/S3/S5 once; concrete
schemes supply the assessment in S1/S4 via three hooks
(:meth:`~DeferredRebroadcastScheme.init_assessment`,
:meth:`~DeferredRebroadcastScheme.update_assessment`,
:meth:`~DeferredRebroadcastScheme.should_inhibit`).

Schemes talk to their host through the small service interface documented on
:class:`SchemeHost` (implemented by :class:`repro.net.host.MobileHost`).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Dict, Optional, Tuple

from repro.mac.csma import MacFrameHandle
from repro.net.packets import BroadcastPacket, PacketKey
from repro.sim.engine import Event, Scheduler

__all__ = [
    "SchemeHost",
    "RebroadcastScheme",
    "DeferredRebroadcastScheme",
    "PendingBroadcast",
    "ASSESSMENT_JITTER_SLOTS",
]

# The paper's S2: "wait for a random number (0 ~ 31) of slots".
ASSESSMENT_JITTER_SLOTS = 31


class SchemeHost:
    """Services a host provides to its scheme (duck-typed interface).

    Attributes:
        scheduler: the shared :class:`~repro.sim.engine.Scheduler`.
        scheme_rng: this host's scheme-jitter random stream.
        slot_time: the PHY slot time in seconds.
        neighbor_table: this host's :class:`~repro.net.neighbors.NeighborTable`
            (valid when the scheme sets ``needs_hello``).
    """

    scheduler: Scheduler
    scheme_rng: random.Random
    slot_time: float

    def position(self) -> Tuple[float, float]:
        """Current true position (the GPS assumption)."""
        raise NotImplementedError

    def radio_radius(self) -> float:
        raise NotImplementedError

    def neighbor_count(self, purge: bool = True) -> int:
        """``n``: current number of known one-hop neighbors.

        ``purge=False`` reads the same number without dropping stale
        entries, for trace provenance: an extra purge would move the
        neighbor table's join/leave times and expiry count.
        """
        raise NotImplementedError

    def submit_rebroadcast(
        self, packet: BroadcastPacket, on_transmit_start
    ) -> MacFrameHandle:
        """Queue a relayed copy of ``packet`` at the MAC."""
        raise NotImplementedError

    def record_inhibit(self, key: PacketKey) -> None:
        """Tell the metrics layer this host decided not to rebroadcast."""
        raise NotImplementedError


class RebroadcastScheme(ABC):
    """A host's rebroadcast decision policy.

    Class attributes declare the scheme's requirements so the host can turn
    on the matching machinery:

    - ``needs_hello`` -- periodic HELLO packets / a neighbor table.
    - ``needs_two_hop_hello`` -- HELLOs must piggyback neighbor lists.
    - ``needs_position`` -- relayed packets must carry GPS coordinates.
    """

    name: str = "abstract"
    needs_hello: bool = False
    needs_two_hop_hello: bool = False
    needs_position: bool = False

    def __init__(self) -> None:
        self.host: Optional[SchemeHost] = None

    def attach(self, host: SchemeHost) -> None:
        """Bind the scheme to its host.  Called once by the host."""
        self.host = host

    def on_originate(self, packet: BroadcastPacket) -> None:
        """The host is the broadcast source: transmit unconditionally."""
        self.host.submit_rebroadcast(packet, on_transmit_start=None)

    def reset(self) -> None:
        """Discard all per-packet state (host crash).

        No inhibit decisions are recorded for abandoned packets -- a crashed
        host never decided anything; the metrics layer charges it the
        simulation-end fallback.  The default implementation is a no-op for
        stateless schemes.
        """

    @abstractmethod
    def on_first_hear(
        self,
        packet: BroadcastPacket,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> None:
        """S1: first successful reception of this broadcast."""

    @abstractmethod
    def on_hear_again(
        self,
        packet: BroadcastPacket,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> None:
        """S4: another successful reception of an already-seen broadcast."""

    def describe(self) -> str:
        """Human-readable configuration string (used in result tables)."""
        return self.name


class PendingBroadcast:
    """Per-packet S1-S5 state at one host."""

    __slots__ = ("packet", "assessment", "jitter_event", "mac_handle")

    def __init__(self, packet: BroadcastPacket, assessment: Any) -> None:
        self.packet = packet
        self.assessment = assessment
        self.jitter_event: Optional[Event] = None
        self.mac_handle: Optional[MacFrameHandle] = None


class DeferredRebroadcastScheme(RebroadcastScheme):
    """Shared implementation of the S1-S5 skeleton.

    Subclasses override :meth:`init_assessment`, :meth:`update_assessment`
    and :meth:`should_inhibit`.  The assessment object is scheme-defined
    (an ``[int]`` counter cell, a list of heard positions, a pending set...).
    """

    #: Slots of scheme-level jitter (0 disables S2's random wait).
    jitter_slots: int = ASSESSMENT_JITTER_SLOTS

    def __init__(self) -> None:
        super().__init__()
        self._pending: Dict[PacketKey, PendingBroadcast] = {}

    # ---------------------------------------------------------- hooks

    @abstractmethod
    def init_assessment(
        self,
        packet: BroadcastPacket,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> Any:
        """S1: build the initial assessment after the first reception."""

    @abstractmethod
    def update_assessment(
        self,
        state: PendingBroadcast,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> None:
        """S4: fold one more reception into the assessment."""

    @abstractmethod
    def should_inhibit(self, state: PendingBroadcast) -> bool:
        """Threshold test, applied after S1 and after every S4 update."""

    def trace_provenance(
        self, state: PendingBroadcast
    ) -> Tuple[Optional[int], Optional[float], Optional[float]]:
        """``(n, threshold, observed)`` for suppression-decision records.

        ``n`` is the neighbor count the threshold was derived from (``None``
        for fixed-threshold schemes), ``threshold`` the scheme's current
        ``C(n)``/``A(n)``/``D`` value and ``observed`` the assessment it is
        compared against.  Only consulted on traced runs; the default (used
        by flooding) reports nothing.
        """
        return (None, None, None)

    # ------------------------------------------------------- skeleton

    def _trace_decision(
        self, trace: Any, state: PendingBroadcast, verdict: str
    ) -> None:
        n, threshold, observed = self.trace_provenance(state)
        key = state.packet.key
        trace.records.append((
            self.host.scheduler._now, "decision", key[0], key[1],
            self._host_id(), self.name, verdict, n, threshold, observed,
        ))

    def pending_count(self) -> int:
        """Packets currently in the S2/S4 waiting stage (for tests)."""
        return len(self._pending)

    def reset(self) -> None:
        """Drop every pending assessment: cancel jitter waits and withdraw
        queued-but-unsent MAC frames.  (The MAC flushes its queue separately
        on a crash; cancelling here keeps the handles consistent if the
        scheme is reset without a full MAC shutdown.)"""
        for state in list(self._pending.values()):
            if state.jitter_event is not None:
                state.jitter_event.cancel()
                state.jitter_event = None
            if state.mac_handle is not None:
                state.mac_handle.cancel()
        self._pending.clear()

    def on_first_hear(
        self,
        packet: BroadcastPacket,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> None:
        state = PendingBroadcast(
            packet, self.init_assessment(packet, sender_id, sender_position)
        )
        trace = getattr(self.host, "trace", None)
        if self.should_inhibit(state):
            if trace is not None:
                self._trace_decision(trace, state, "inhibit-immediate")
            self.host.record_inhibit(packet.key)
            return
        self._pending[packet.key] = state
        jitter = (
            self.host.scheme_rng.randint(0, self.jitter_slots)
            * self.host.slot_time
            if self.jitter_slots > 0
            else 0.0
        )
        if trace is not None:
            self._trace_decision(trace, state, "defer")
            key = packet.key
            trace.records.append((
                self.host.scheduler._now, "rad-wait", key[0], key[1],
                self._host_id(), jitter,
            ))
        state.jitter_event = self.host.scheduler.schedule(
            jitter, self._submit, state
        )

    def on_hear_again(
        self,
        packet: BroadcastPacket,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> None:
        state = self._pending.get(packet.key)
        if state is None:
            # Already decided (transmitted or inhibited): S5's "inhibited
            # from rebroadcasting P in the future".
            return
        self.update_assessment(state, sender_id, sender_position)
        trace = getattr(self.host, "trace", None)
        if self.should_inhibit(state):
            cancelled = self._cancel(state)
            if trace is not None:
                self._trace_decision(
                    trace, state, "inhibit" if cancelled else "cancel-too-late"
                )
        elif trace is not None:
            self._trace_decision(trace, state, "assess")

    def _submit(self, state: PendingBroadcast) -> None:
        state.jitter_event = None
        relayed = state.packet.relayed_by(
            self._host_id(), self.host.position() if self.needs_position else None
        )
        state.mac_handle = self.host.submit_rebroadcast(
            relayed, on_transmit_start=lambda: self._on_air(state)
        )

    def _on_air(self, state: PendingBroadcast) -> None:
        # S3: the packet is on the air; the decision is final.
        self._pending.pop(state.packet.key, None)
        trace = getattr(self.host, "trace", None)
        if trace is not None:
            self._trace_decision(trace, state, "rebroadcast")

    def _cancel(self, state: PendingBroadcast) -> bool:
        # S5: withdraw the rebroadcast wherever it currently waits.
        # Returns False when the frame already won the race to the air.
        if state.jitter_event is not None:
            state.jitter_event.cancel()
            state.jitter_event = None
        if state.mac_handle is not None and not state.mac_handle.cancel():
            # Too late: the frame is already on the air (benign race).
            return False
        self._pending.pop(state.packet.key, None)
        self.host.record_inhibit(state.packet.key)
        return True

    def _host_id(self) -> int:
        return self.host.host_id  # type: ignore[attr-defined]
