"""Probabilistic (gossip) rebroadcast: ``P(p)`` and a neighbor-adaptive p.

The gossip family (PAPERS.md: "Probabilistic algorithm in noisy MANETs";
Haas/Halpern/Li's GOSSIP1) replaces the counter/coverage assessment with a
single Bernoulli draw at S1: rebroadcast with probability ``p``, stay
silent with probability ``1 - p``.  There is no S4 cancellation -- the coin
is the whole decision -- so a losing draw is an immediate inhibit and a
winning draw always reaches the air (after the usual S2 jitter).

:class:`AdaptiveGossipScheme` makes ``p`` a function of the current
neighbor count, mirroring the paper's Observations 1 and 2: a sparse host
(``n <= n1``) is likely at a critical position and rebroadcasts surely
(``p = 1``); in crowded neighborhoods ``p`` decays as ``n1 / n`` down to a
floor ``p_min`` so the expected number of relays per neighborhood stays
roughly constant.

The coin is drawn from ``host.scheme_rng`` -- the same per-host stream the
S2 jitter uses -- so runs stay deterministic per seed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.packets import BroadcastPacket
from repro.schemes.base import DeferredRebroadcastScheme, PendingBroadcast
from repro.schemes.registry import ParamSpec, register_scheme

__all__ = ["GossipScheme", "AdaptiveGossipScheme"]

#: Default rebroadcast probability (GOSSIP1's sweet spot 0.65-0.75).
DEFAULT_GOSSIP_P = 0.7

#: Adaptive variant: sure rebroadcast up to this many neighbors (the same
#: knee the paper tunes for A(n); below it a host is likely critical).
DEFAULT_GOSSIP_N1 = 6
#: ...then p decays as n1/n but never below this floor.
DEFAULT_GOSSIP_P_MIN = 0.4


@register_scheme(
    params=(
        ParamSpec("p", "float", DEFAULT_GOSSIP_P, minimum=0.0, maximum=1.0,
                  doc="rebroadcast probability (one Bernoulli draw at S1)"),
    ),
    description="gossip: rebroadcast with fixed probability p",
    origin="literature",
)
class GossipScheme(DeferredRebroadcastScheme):
    """Rebroadcast with probability ``p``, decided once at first hearing."""

    name = "gossip"

    def __init__(self, p: float = DEFAULT_GOSSIP_P) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"gossip p is a probability, got {p}")
        super().__init__()
        self.p = p

    def describe(self) -> str:
        return f"P(p={self.p:g})"

    def rebroadcast_probability(self) -> float:
        """The ``p`` in force at draw time (constant here; adaptive in
        subclasses)."""
        return self.p

    def init_assessment(
        self,
        packet: BroadcastPacket,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> List[float]:
        # S1: draw the coin once; [draw, p] is the entire assessment.
        # A draw of exactly p loses, so p = 0 never relays and p = 1
        # always does (random() is in [0, 1)).
        draw = self.host.scheme_rng.random()
        return [draw, self.rebroadcast_probability()]

    def update_assessment(
        self,
        state: PendingBroadcast,
        sender_id: int,
        sender_position: Optional[Tuple[float, float]],
    ) -> None:
        pass  # no S4: hearing the packet again never changes the coin

    def should_inhibit(self, state: PendingBroadcast) -> bool:
        draw, p = state.assessment
        return draw >= p

    def trace_provenance(self, state: PendingBroadcast):
        draw, p = state.assessment
        return (None, p, draw)


@register_scheme(
    params=(
        ParamSpec("n1", "int", DEFAULT_GOSSIP_N1, minimum=1,
                  doc="sure rebroadcast (p = 1) up to n1 neighbors"),
        ParamSpec("p_min", "float", DEFAULT_GOSSIP_P_MIN,
                  minimum=0.0, maximum=1.0,
                  doc="floor of the n1/n decay in dense neighborhoods"),
    ),
    description="gossip with neighbor-count-adaptive p(n)",
    origin="literature",
)
class AdaptiveGossipScheme(GossipScheme):
    """Gossip with ``p(n) = 1`` below ``n1`` neighbors, else
    ``max(p_min, n1 / n)``."""

    name = "adaptive-gossip"
    needs_hello = True

    def __init__(
        self,
        n1: int = DEFAULT_GOSSIP_N1,
        p_min: float = DEFAULT_GOSSIP_P_MIN,
    ) -> None:
        if n1 < 1:
            raise ValueError(f"n1 must be >= 1, got {n1}")
        if not 0.0 <= p_min <= 1.0:
            raise ValueError(f"p_min is a probability, got {p_min}")
        super().__init__(p=1.0)
        self.n1 = n1
        self.p_min = p_min

    def describe(self) -> str:
        return f"P(n1={self.n1},p_min={self.p_min:g})"

    def rebroadcast_probability(self) -> float:
        n = self.host.neighbor_count()
        if n <= self.n1:
            return 1.0
        return max(self.p_min, self.n1 / n)

    def trace_provenance(self, state: PendingBroadcast):
        draw, p = state.assessment
        return (self.host.neighbor_count(purge=False), p, draw)
