"""The simulation kernel's name, for benchmark and platform records.

The simulator has one execution path: host positions are batched per
instant in a :class:`repro.mobility.store.PositionStore`, and each
transmission's receiver scan is one numpy distance mask over them
(:mod:`repro.phy.channel`).  There is nothing to select; this module only
names that path for records that note which kernel produced them.
"""

from __future__ import annotations

__all__ = ["resolve_kernel"]


def resolve_kernel() -> str:
    """The kernel every simulation runs: always ``"vector"``."""
    return "vector"
