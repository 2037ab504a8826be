"""Multi-circle coverage estimation.

The location-based schemes need, for a host ``x`` that has heard the same
broadcast from transmitters at positions ``q_1 .. q_k``, the fraction of
``x``'s own radio disk **not** covered by any of the ``q_i`` disks -- the
additional coverage ``ac`` of Section 3.2.  There is no simple closed form
for k >= 2 overlapping circles, so we estimate it over a deterministic set of
sample points (a Fibonacci-spiral disk lattice, which is near-uniform and,
being deterministic, keeps simulations replayable).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["DiskSampler", "uncovered_fraction"]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class DiskSampler:
    """Deterministic near-uniform sample points inside a unit disk.

    Points follow the Fibonacci (sunflower) spiral: point *i* of *N* sits at
    radius ``sqrt((i + 0.5) / N)`` and angle ``i * golden_angle``.  The
    lattice is precomputed once (also as x/y arrays) and reused for every
    coverage query; a query is one ``N x k`` array computation.
    """

    def __init__(self, num_points: int = 256) -> None:
        if num_points <= 0:
            raise ValueError(f"num_points must be positive, got {num_points}")
        self.num_points = num_points
        self._points: List[Tuple[float, float]] = []
        for i in range(num_points):
            radius = math.sqrt((i + 0.5) / num_points)
            theta = i * _GOLDEN_ANGLE
            self._points.append((radius * math.cos(theta), radius * math.sin(theta)))
        self._xs = np.array([px for px, _ in self._points])
        self._ys = np.array([py for _, py in self._points])

    def points(
        self, center: Tuple[float, float], radius: float
    ) -> List[Tuple[float, float]]:
        """The lattice scaled to a disk of ``radius`` at ``center``."""
        cx, cy = center
        return [(cx + px * radius, cy + py * radius) for px, py in self._points]

    def uncovered_fraction(
        self,
        center: Tuple[float, float],
        radius: float,
        covering_centers: Iterable[Tuple[float, float]],
        covering_radius: float,
    ) -> float:
        """Fraction of the disk at ``center`` not covered by any covering disk.

        This is the location-scheme ``ac`` value: 1.0 when nothing covers the
        host's disk, 0.0 when the heard transmitters jointly blanket it.  A
        sample point is covered when ``dx*dx + dy*dy <= covering_radius**2``
        for some covering center, evaluated with the same IEEE operations,
        in the same order, as a per-point Python loop would.
        """
        centers = np.array(list(covering_centers), dtype=np.float64)
        if not centers.size:
            return 1.0
        cx, cy = center
        rr = covering_radius * covering_radius
        # (points, centers) offsets from every sample point to every center.
        dx = (cx + self._xs * radius)[:, None] - centers[:, 0]
        dy = (cy + self._ys * radius)[:, None] - centers[:, 1]
        dx *= dx
        dy *= dy
        dx += dy
        covered = np.count_nonzero((dx <= rr).any(axis=1))
        return (self.num_points - covered) / self.num_points


_DEFAULT_SAMPLER = DiskSampler(256)


def uncovered_fraction(
    center: Tuple[float, float],
    radius: float,
    covering_centers: Sequence[Tuple[float, float]],
    covering_radius: float,
) -> float:
    """Module-level convenience using a shared 256-point sampler."""
    return _DEFAULT_SAMPLER.uncovered_fraction(
        center, radius, covering_centers, covering_radius
    )
