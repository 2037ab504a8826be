"""Disk sampling and multi-circle coverage estimation."""

import math

import pytest

from repro.geometry.circles import additional_coverage_fraction
from repro.geometry.coverage import DiskSampler, uncovered_fraction


def test_sampler_points_inside_unit_disk():
    sampler = DiskSampler(500)
    for x, y in sampler.points((0.0, 0.0), 1.0):
        assert x * x + y * y <= 1.0 + 1e-12


def test_sampler_points_scaled_and_translated():
    sampler = DiskSampler(100)
    for x, y in sampler.points((10.0, -5.0), 3.0):
        assert (x - 10.0) ** 2 + (y + 5.0) ** 2 <= 9.0 + 1e-9


def test_no_cover_means_fraction_one():
    assert uncovered_fraction((0, 0), 1.0, [], 1.0) == 1.0


def test_full_cover_by_coincident_circle():
    assert uncovered_fraction((0, 0), 1.0, [(0, 0)], 1.0) == 0.0


def test_far_away_circle_covers_nothing():
    assert uncovered_fraction((0, 0), 1.0, [(5.0, 0.0)], 1.0) == 1.0


def test_single_cover_matches_closed_form():
    """Sampled uncovered fraction ~= 1 - INTC(d)/(pi r^2)."""
    sampler = DiskSampler(4096)
    for d in (0.25, 0.5, 1.0, 1.5):
        estimated = sampler.uncovered_fraction((0, 0), 1.0, [(d, 0.0)], 1.0)
        exact = additional_coverage_fraction(d)
        assert estimated == pytest.approx(exact, abs=0.02)


def test_more_covers_never_increase_uncovered():
    sampler = DiskSampler(512)
    centers = [(0.8, 0.0), (-0.5, 0.4), (0.1, -0.9)]
    previous = 1.0
    for k in range(1, len(centers) + 1):
        frac = sampler.uncovered_fraction((0, 0), 1.0, centers[:k], 1.0)
        assert frac <= previous + 1e-12
        previous = frac


def test_deterministic():
    a = DiskSampler(256).uncovered_fraction((0, 0), 1.0, [(0.7, 0.2)], 1.0)
    b = DiskSampler(256).uncovered_fraction((0, 0), 1.0, [(0.7, 0.2)], 1.0)
    assert a == b


def test_result_scale_invariant():
    small = uncovered_fraction((0, 0), 1.0, [(0.5, 0.0)], 1.0)
    large = uncovered_fraction((0, 0), 500.0, [(250.0, 0.0)], 500.0)
    assert small == pytest.approx(large, abs=1e-12)


def test_invalid_sampler_size():
    with pytest.raises(ValueError):
        DiskSampler(0)


def test_lattice_near_uniform():
    """Quadrant counts of the Fibonacci lattice stay within a few percent."""
    sampler = DiskSampler(4000)
    quadrants = [0, 0, 0, 0]
    for x, y in sampler.points((0.0, 0.0), 1.0):
        index = (0 if x >= 0 else 1) + (0 if y >= 0 else 2)
        quadrants[index] += 1
    for count in quadrants:
        assert count == pytest.approx(1000, rel=0.05)


def _loop_uncovered_fraction(sampler, center, radius, centers, covering_radius):
    """The per-point Python loop the array version replaced: the reference."""
    centers = list(centers)
    if not centers:
        return 1.0
    cx, cy = center
    rr = covering_radius * covering_radius
    uncovered = 0
    for px, py in sampler.points((0.0, 0.0), 1.0):
        sx = cx + px * radius
        sy = cy + py * radius
        for qx, qy in centers:
            dx = sx - qx
            dy = sy - qy
            if dx * dx + dy * dy <= rr:
                break
        else:
            uncovered += 1
    return uncovered / sampler.num_points


def test_array_coverage_equals_the_point_loop_exactly():
    """Random hosts and 1..6 covering disks, half of them placed so that a
    sample point sits on (or within float rounding of) a covering circle:
    the array computation must agree with the loop bit for bit."""
    import random

    rng = random.Random(20010416)
    sampler = DiskSampler(256)
    unit = sampler.points((0.0, 0.0), 1.0)
    for case in range(20_000):
        center = (rng.uniform(0.0, 5500.0), rng.uniform(0.0, 5500.0))
        radius = rng.choice((500.0, 1.0, rng.uniform(1.0, 800.0)))
        covering = rng.choice((radius, rng.uniform(0.5, 2.0) * radius))
        centers = []
        for _ in range(rng.randint(1, 6)):
            if case % 2:
                # On the boundary: a sample point pushed exactly the
                # covering radius away along an axis or a diagonal.
                px, py = unit[rng.randrange(len(unit))]
                sx = center[0] + px * radius
                sy = center[1] + py * radius
                ux, uy = rng.choice(((1.0, 0.0), (0.0, -1.0), (0.6, 0.8)))
                centers.append((sx + ux * covering, sy + uy * covering))
            else:
                centers.append((
                    center[0] + rng.uniform(-2.0, 2.0) * radius,
                    center[1] + rng.uniform(-2.0, 2.0) * radius,
                ))
        got = sampler.uncovered_fraction(center, radius, centers, covering)
        want = _loop_uncovered_fraction(sampler, center, radius, centers, covering)
        assert got == want, (case, center, radius, centers, covering)


def test_array_coverage_accepts_integer_inputs():
    assert uncovered_fraction((0, 0), 1, [(1, 0), (0, 1)], 1) == (
        _loop_uncovered_fraction(
            DiskSampler(256), (0, 0), 1, [(1, 0), (0, 1)], 1
        )
    )
