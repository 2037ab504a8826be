"""Self-time accounting and span installation."""

from __future__ import annotations

import pytest

from perfbench import spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_of_nested_fake_spans():
    fake = FakeClock()
    clock = spans.LayerClock(clock=fake)

    def leaf():
        fake.now += 2

    def middle():
        fake.now += 1
        wrapped_leaf()
        fake.now += 2

    def outer():
        fake.now += 10
        wrapped_middle()
        wrapped_leaf()
        fake.now += 5

    wrapped_leaf = clock.wrap("c", leaf)
    wrapped_middle = clock.wrap("b", middle)
    clock.wrap("a", outer)()

    # outer: 10 + middle(1 + leaf 2 + 2) + leaf 2 + 5 = 22 in total
    assert fake.now == 22
    assert clock.self_ns == {"a": 15, "b": 3, "c": 4}
    assert clock.calls == {"a": 1, "b": 1, "c": 2}
    # Self times partition the root span's duration.
    assert sum(clock.self_ns.values()) == 22


def test_same_bucket_nesting_and_exceptions_keep_the_stack_balanced():
    fake = FakeClock()
    clock = spans.LayerClock(clock=fake)

    def boom():
        fake.now += 3
        raise ValueError("planted")

    def outer():
        fake.now += 1
        with pytest.raises(ValueError):
            wrapped_boom()
        fake.now += 1

    wrapped_boom = clock.wrap("x", boom)
    clock.wrap("x", outer)()
    assert clock.self_ns == {"x": 5}
    assert clock.calls == {"x": 2}
    assert clock._stack == []


def test_merge_and_reset():
    fake = FakeClock()
    clock = spans.LayerClock(clock=fake)
    step = clock.wrap("a", lambda: setattr(fake, "now", fake.now + 4))
    step()
    other = spans.LayerClock()
    other.merge(clock.snapshot())
    other.merge({"self_ns": {"b": 7}, "calls": {"b": 1}})
    assert other.self_ns == {"a": 4, "b": 7}
    clock.reset()
    step()  # wrappers made before reset still count
    assert clock.self_ns == {"a": 4} and clock.calls == {"a": 1}


@pytest.mark.parametrize("module,layer", [
    ("repro.sim.engine", "sim"),
    ("repro.phy.channel", "phy"),
    ("repro.mac.csma", "mac"),
    ("repro.net.neighbors", "neighbors"),
    ("repro.net.host", "host"),
    ("repro.net.network", "network"),
    ("repro.mobility.store", "mobility"),
    ("repro.schemes.base", "schemes"),
    ("repro.metrics.collector", "metrics"),
    ("repro.experiments.runner", "runner"),
    ("repro.experiments.parallel", "parallel"),
    ("builtins", "other"),
])
def test_layer_of_module(module, layer):
    assert spans.layer_of_module(module) == layer


def test_install_wraps_and_uninstall_restores():
    from repro.net.neighbors import NeighborTable
    from repro.sim.engine import Scheduler

    original = NeighborTable.__dict__["purge"]
    inst = spans.install()
    try:
        assert spans.active() is inst
        with pytest.raises(RuntimeError):
            spans.install()
        assert NeighborTable.__dict__["purge"] is not original
        wrapped = inst.wrapped()
        assert "repro.net.neighbors.NeighborTable.purge" in wrapped["neighbors"]
        assert any("on_first_hear" in n for n in wrapped["schemes"])

        # A scheduled callback is charged to its owner's layer: here a
        # plain function that claims to live in the MAC package.
        def callback():
            sum(range(1000))

        callback.__module__ = "repro.mac.fake"
        sched = Scheduler()
        sched.schedule(0.5, callback)
        sched.run()
        calls = inst.clock.calls
        assert calls["mac"] == 1
        assert calls["sim"] == 2  # schedule_at (via schedule) and run
    finally:
        inst.uninstall()
    assert spans.active() is None
    assert NeighborTable.__dict__["purge"] is original


def test_traced_simulation_equals_untraced():
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.runner import run_broadcast_simulation

    config = ScenarioConfig(scheme="adaptive-counter", map_units=2,
                            num_hosts=25, num_broadcasts=4, seed=5)
    plain = run_broadcast_simulation(config)
    inst = spans.install()
    try:
        traced = inst.clock.wrap("runner", run_broadcast_simulation)(config)
    finally:
        inst.uninstall()
    assert traced == plain
    assert traced.perf == plain.perf
    self_ns = inst.clock.self_ns
    for layer in ("sim", "phy", "mac", "neighbors", "host", "network",
                  "mobility", "schemes", "metrics", "runner"):
        assert self_ns.get(layer, 0) > 0, layer
