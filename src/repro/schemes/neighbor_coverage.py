"""Neighbor-coverage scheme (paper Section 3.3 -- third contribution).

No GPS needed: HELLO packets piggyback each host's one-hop neighbor set, so
host ``x`` knows ``N_x`` and ``N_{x,h}`` (the neighbors of each neighbor
``h``).  When ``x`` hears packet P from ``h``, every member of
``N_{x,h} | {h}`` is presumed covered; ``x`` keeps a pending set ``T`` of
neighbors it still believes uncovered:

- S1: ``T = N_x - N_{x,h} - {h}``; if empty, inhibit immediately.
- S4: on hearing P again from ``h'``, ``T = T - N_{x,h'} - {h'}``; if empty,
  cancel the pending rebroadcast.

Accuracy of ``N_x`` / ``N_{x,h}`` depends on host mobility versus the hello
interval -- the subject of Figs. 11 and 12.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.net.packets import BroadcastPacket
from repro.schemes.base import DeferredRebroadcastScheme, PendingBroadcast
from repro.schemes.registry import ParamSpec, register_scheme

__all__ = ["NeighborCoverageScheme"]


@register_scheme(
    params=(
        ParamSpec("oracle", "bool", False,
                  doc="read neighbor sets from geometric truth instead of "
                      "HELLO-built tables (staleness ablation)"),
    ),
    description="two-hop pending-set suppression",
    origin="this paper",
)
class NeighborCoverageScheme(DeferredRebroadcastScheme):
    """Rebroadcast only while some neighbor is believed uncovered.

    With ``oracle=True`` the one-hop and two-hop sets are read from the
    channel's geometric truth instead of the HELLO-built tables -- an
    ablation that isolates how much of NC's reachability loss is neighbor-
    knowledge staleness versus plain collisions.
    """

    name = "neighbor-coverage"
    needs_hello = True
    needs_two_hop_hello = True

    def __init__(self, oracle: bool = False) -> None:
        super().__init__()
        self.oracle = oracle

    def describe(self) -> str:
        return "NC(oracle)" if self.oracle else "NC"

    def _current_neighbors(self) -> Set[int]:
        if self.oracle:
            return set(self.host.channel.neighbors_in_range(self.host.host_id))
        return self.host.neighbor_table.neighbor_ids(self.host.scheduler.now)

    def _covered_by(self, sender_id: int) -> Set[int]:
        if self.oracle:
            return set(self.host.channel.neighbors_in_range(sender_id)) | {
                sender_id
            }
        table = self.host.neighbor_table
        return set(table.two_hop_neighbors(sender_id)) | {sender_id}

    def init_assessment(
        self,
        packet: BroadcastPacket,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> Set[int]:
        return self._current_neighbors() - self._covered_by(sender_id)

    def update_assessment(
        self,
        state: PendingBroadcast,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> None:
        state.assessment -= self._covered_by(sender_id)

    def should_inhibit(self, state: PendingBroadcast) -> bool:
        return not state.assessment

    def trace_provenance(self, state: PendingBroadcast):
        # The "threshold" is the empty pending set: inhibit iff |T| == 0.
        return (self.host.neighbor_count(purge=False), 0, len(state.assessment))
