"""Optional capture-effect model.

The paper's collision analysis (and our default channel) assumes **no
capture**: any overlap at a receiver garbles every frame involved.  Real
receivers can often decode the strongest of overlapping frames when its
signal-to-interference ratio is high enough.  :class:`CaptureModel` adds
that as an opt-in, letting an ablation quantify how much of the broadcast
storm's damage the no-capture assumption is responsible for.

Power model: unit-disk with path-loss exponent ``alpha`` -- the received
power of a frame sent from distance ``d`` is proportional to
``max(d, d_min)^-alpha``.  A frame survives an overlap at a receiver iff
its power divided by the summed power of all other overlapping frames is at
least ``threshold`` (given in dB, typically ~10 dB).

The threshold must be above 0 dB.  At or below it two overlapping frames
could each clear the bar (at 0 dB, equal powers do), and a half-duplex
radio would decode both at once; above it at most one frame per receiver
survives, which the channel's reception state relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CaptureModel"]


@dataclass(frozen=True)
class CaptureModel:
    """SIR-based capture: strongest frame may survive an overlap."""

    threshold_db: float = 10.0
    pathloss_exponent: float = 4.0
    min_distance: float = 1.0  # clamp to avoid infinite power at d = 0

    def __post_init__(self) -> None:
        if not self.threshold_db > 0:
            raise ValueError(
                f"threshold_db must be > 0 (one receiver decodes at most "
                f"one frame), got {self.threshold_db}"
            )
        if self.pathloss_exponent <= 0:
            raise ValueError(
                f"pathloss_exponent must be > 0, got {self.pathloss_exponent}"
            )
        if self.min_distance <= 0:
            raise ValueError(
                f"min_distance must be > 0, got {self.min_distance}"
            )

    @property
    def threshold_linear(self) -> float:
        return 10.0 ** (self.threshold_db / 10.0)

    def power(self, distance: float) -> float:
        """Relative received power for a sender at ``distance`` meters."""
        if distance < 0:
            raise ValueError(f"negative distance {distance}")
        return max(distance, self.min_distance) ** (-self.pathloss_exponent)

    def survives(self, own_power: float, interference: float) -> bool:
        """Whether a frame with ``own_power`` endures ``interference``."""
        if interference <= 0.0:
            return True
        return own_power / interference >= self.threshold_linear
