"""PositionStore: batched positions must replay the scalar models exactly."""

import random

import numpy as np
import pytest

from repro.mobility.map import RectMap
from repro.mobility.models import (
    MobilityModel,
    RandomDirectionMobility,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.mobility.store import PositionBuffers, PositionStore


def make_models(world, n, seed=1, speed_kmh=60.0):
    """A mixed fleet: both segmented models plus a couple of static rows."""
    models = []
    for i in range(n):
        rng = random.Random(seed * 1000 + i)
        if i % 5 == 4:
            models.append(StaticMobility(world.random_point(rng)))
        elif i % 2:
            models.append(RandomWaypointMobility(world, rng, speed_kmh))
        else:
            models.append(RandomDirectionMobility(world, rng, speed_kmh))
    return models


def twin_fleets(world, n, seed=1, speed_kmh=60.0):
    """Two identically-seeded fleets (same RNG streams, separate state)."""
    return (
        make_models(world, n, seed, speed_kmh),
        make_models(world, n, seed, speed_kmh),
    )


def query_times(seed=9, count=60, horizon=120.0):
    rng = random.Random(seed)
    times = sorted(rng.uniform(0.0, horizon) for _ in range(count))
    # Repeats exercise the epoch cache.
    return [t for t in times for _ in (0, 1)]


def test_batched_arrays_bit_identical_to_scalar_models():
    world = RectMap(800.0, 600.0)
    store_fleet, scalar_fleet = twin_fleets(world, 20)
    store = PositionStore(store_fleet, world)
    for t in query_times():
        xs, ys = store.arrays_at(t)
        for i, model in enumerate(scalar_fleet):
            x, y = model.position(t)
            assert float(xs[i]) == x, (i, t)
            assert float(ys[i]) == y, (i, t)


def test_position_of_bit_identical_to_scalar_models():
    world = RectMap(1000.0, 1000.0)
    store_fleet, scalar_fleet = twin_fleets(world, 12, seed=3)
    store = PositionStore(store_fleet, world)
    rng = random.Random(17)
    t = 0.0
    for _ in range(200):
        t += rng.uniform(0.0, 2.0)
        host_id = rng.randrange(12)
        assert store.position_of(host_id, t) == scalar_fleet[host_id].position(t)


def test_lazy_read_promotes_to_epoch_on_second_query():
    world = RectMap(500.0, 500.0)
    store = PositionStore(make_models(world, 8), world)
    store.position_of(0, 1.0)
    assert store.lazy_reads == 1
    assert store.batch_evals == 0
    # Second single-host read at the same instant pays the batched epoch;
    # everything after that at t=1.0 is a cache hit.
    store.position_of(1, 1.0)
    assert store.batch_evals == 1
    hits_before = store.epoch_hits
    store.position_of(2, 1.0)
    assert store.epoch_hits == hits_before + 1


def test_arrays_at_rejects_time_going_backwards():
    world = RectMap(500.0, 500.0)
    store = PositionStore(make_models(world, 4), world)
    store.arrays_at(5.0)
    with pytest.raises(ValueError, match="non-monotonic"):
        store.arrays_at(4.0)


def test_lazy_reads_interleave_with_batches():
    """A lazy model query between epochs must not desync the arrays: the
    next batched epoch re-syncs the row from the model's rolled state."""
    world = RectMap(700.0, 700.0)
    store_fleet, scalar_fleet = twin_fleets(world, 10, seed=5)
    store = PositionStore(store_fleet, world)
    store.arrays_at(1.0)
    # Straggler far ahead: rolls host 3's segments via the model.
    assert store.position_of(3, 40.0) == scalar_fleet[3].position(40.0)
    xs, ys = store.arrays_at(50.0)
    for i, model in enumerate(scalar_fleet):
        assert (float(xs[i]), float(ys[i])) == model.position(50.0)


def test_static_rows_never_roll():
    world = RectMap(500.0, 500.0)
    static = [StaticMobility((10.0, 20.0)), StaticMobility((499.0, 1.0))]
    store = PositionStore(static, world)
    for t in (0.0, 100.0, 1e6):
        xs, ys = store.arrays_at(t)
        assert (float(xs[0]), float(ys[0])) == (10.0, 20.0)
        assert (float(xs[1]), float(ys[1])) == (499.0, 1.0)
    assert store.segment_rolls == 0


class LinearMobility(MobilityModel):
    """A custom model: constant velocity, never folded (it may leave the
    map), position a pure function of time."""

    def __init__(self, start, velocity):
        self._start = start
        self._velocity = velocity
        self.calls = 0

    def position(self, time):
        self.calls += 1
        return (
            self._start[0] + self._velocity[0] * time,
            self._start[1] + self._velocity[1] * time,
        )


def mixed_fleet(world, n, seed):
    """Built-in rows with a LinearMobility every third row, some of them
    heading off the map."""
    models = make_models(world, n, seed)
    for i in range(1, n, 3):
        models[i] = LinearMobility((10.0 * i, 400.0), (3.5 - i, 0.25 * i))
    return models


def test_custom_models_ride_along_with_built_in_rows():
    world = RectMap(500.0, 500.0)
    store_fleet = mixed_fleet(world, 12, seed=4)
    scalar_fleet = mixed_fleet(world, 12, seed=4)
    store = PositionStore(store_fleet, world)
    custom = [i for i, m in enumerate(store_fleet) if isinstance(m, LinearMobility)]
    rng = random.Random(31)
    t = 0.0
    for step in range(150):
        t += rng.choice((0.0, 0.01, 0.7, 6.0))
        host_id = rng.randrange(12)
        expected = scalar_fleet[host_id].position(t)
        if step % 3 == 0:
            # Batched epoch: every row, custom ones included.
            xs, ys = store.arrays_at(t)
            for i, model in enumerate(scalar_fleet):
                assert (float(xs[i]), float(ys[i])) == model.position(t), (i, t)
        else:
            # Single reads: lazy, promoted to an epoch by a second read
            # at the same instant, or served from the epoch cache.
            assert store.position_of(host_id, t) == expected, (host_id, t)
            other = custom[step % len(custom)]
            assert store.position_of(other, t) == scalar_fleet[other].position(t)
    assert store.lazy_reads > 0 and store.batch_evals > 0
    # Custom rows are asked at every epoch and are never rolled.
    assert all(store_fleet[i].calls >= store.batch_evals for i in custom)
    assert store.segment_rolls > 0
    assert not np.isfinite(store._t1[custom]).any()


def test_buffers_are_reused_across_stores():
    world = RectMap(500.0, 500.0)
    buffers = PositionBuffers(16)
    assert buffers.capacity == 16
    first = PositionStore(make_models(world, 10), world, buffers=buffers)
    base = buffers._arrays[0]
    # Smaller store: same allocations, sliced views.
    second = PositionStore(make_models(world, 8), world, buffers=buffers)
    assert buffers.capacity == 16
    assert buffers._arrays[0] is base
    assert second.size == 8
    # Larger store grows the buffers.
    third = PositionStore(make_models(world, 32), world, buffers=buffers)
    assert buffers.capacity == 32
    assert third.size == 32
    xs, ys = third.arrays_at(1.0)
    assert xs.shape == (32,)


def test_buffer_reuse_does_not_leak_state_between_stores():
    """A fresh store over reused buffers replays its models exactly even
    though the arrays still hold the previous store's values."""
    world = RectMap(600.0, 600.0)
    buffers = PositionBuffers()
    first = PositionStore(make_models(world, 6, seed=1), world, buffers=buffers)
    first.arrays_at(77.7)
    reused_fleet, scalar_fleet = twin_fleets(world, 6, seed=2)
    reused = PositionStore(reused_fleet, world, buffers=buffers)
    xs, ys = reused.arrays_at(3.0)
    for i, model in enumerate(scalar_fleet):
        assert (float(xs[i]), float(ys[i])) == model.position(3.0)


def test_arrays_are_float64_views():
    world = RectMap(500.0, 500.0)
    store = PositionStore(make_models(world, 5), world)
    xs, ys = store.arrays_at(0.5)
    assert xs.dtype == np.float64 and ys.dtype == np.float64
    assert xs.shape == ys.shape == (5,)


def test_border_crossings_fold_exactly_like_the_models():
    """Fast hosts on a small map leave it all the time.  Epochs land
    exactly on, and one ulp after, rows' recorded exit times -- where the
    exit-time filter hands rows over to the exact bounds test -- and in
    between; every position must still equal the model's own."""
    world = RectMap(120.0, 90.0)
    store_fleet, scalar_fleet = twin_fleets(world, 30, seed=5, speed_kmh=300.0)
    store = PositionStore(store_fleet, world)
    t = 0.0
    past_exit = 0
    for step in range(600):
        xs, ys = store.arrays_at(t)
        for i, model in enumerate(scalar_fleet):
            assert (float(xs[i]), float(ys[i])) == model.position(t), (i, t)
        past_exit += int(np.count_nonzero(store._exit < t))
        upcoming = store._exit[store._exit > t]
        if step % 3 and upcoming.size:
            t = float(upcoming.min())
            if step % 2:
                t = float(np.nextafter(t, np.inf))
        else:
            t += 0.37
    assert past_exit > 0
