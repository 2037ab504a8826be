"""Host extension hooks: packet observers, and unknown payloads."""

import pytest

from repro.experiments.topologies import build_static_network, line_positions
from repro.schemes import FloodingScheme
from repro.sim.engine import Scheduler


def test_packet_observers_called_once_per_packet():
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler, line_positions(3, 400.0), FloodingScheme
    )
    seen = []
    network.hosts[1].packet_observers.append(
        lambda packet, sender: seen.append((packet.key, sender))
    )
    network.start()
    scheduler.schedule_at(1.0, network.initiate_broadcast, 0)
    scheduler.run(until=5.0)
    # Host 1 hears the original copy once (duplicates don't re-trigger).
    assert seen == [((0, 1), 0)]


def test_observer_runs_before_scheme_decision():
    """Observers see the packet before the scheme may suppress it."""
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(2, 400.0), FloodingScheme
    )
    order = []
    host = network.hosts[1]
    host.packet_observers.append(lambda p, s: order.append("observer"))
    original = host.scheme.on_first_hear

    def wrapped(packet, sender, pos):
        order.append("scheme")
        return original(packet, sender, pos)

    host.scheme.on_first_hear = wrapped
    network.start()
    scheduler.schedule_at(1.0, network.initiate_broadcast, 0)
    scheduler.run(until=3.0)
    assert order == ["observer", "scheme"]


def test_unhandled_payload_raises():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(2, 400.0), FloodingScheme
    )
    network.start()
    scheduler.schedule_at(1.0, network.hosts[0].mac.send, "mystery", 50)
    with pytest.raises(TypeError, match="unknown frame"):
        scheduler.run(until=3.0)


def test_multiple_observers_all_called():
    scheduler = Scheduler()
    network, _ = build_static_network(
        scheduler, line_positions(2, 400.0), FloodingScheme
    )
    calls = []
    host = network.hosts[1]
    host.packet_observers.append(lambda p, s: calls.append("a"))
    host.packet_observers.append(lambda p, s: calls.append("b"))
    network.start()
    scheduler.schedule_at(1.0, network.initiate_broadcast, 0)
    scheduler.run(until=3.0)
    assert calls == ["a", "b"]
