"""Host mobility models.

The paper's roaming pattern (Section 4): each host moves as a series of
*turns*; per turn the direction is uniform in [0, 360), the duration uniform
in [1, 100] seconds, and the speed uniform in [0, v_max].  We implement that
as :class:`~repro.mobility.models.RandomDirectionMobility`, plus a static
model and a random-waypoint model for robustness ablations.  Hosts reflect
off map boundaries (the paper does not specify edge behaviour; reflection is
the standard choice that preserves uniform spatial density).
"""

from repro.mobility.map import RectMap
from repro.mobility.models import (
    MobilityModel,
    RandomDirectionMobility,
    RandomWaypointMobility,
    StaticMobility,
    make_mobility,
)
from repro.mobility.store import PositionBuffers, PositionStore

__all__ = [
    "RectMap",
    "MobilityModel",
    "RandomDirectionMobility",
    "RandomWaypointMobility",
    "StaticMobility",
    "make_mobility",
    "PositionBuffers",
    "PositionStore",
]

