"""Channel propagation, collision and carrier-sense behaviour."""

import pytest

from repro.mobility.store import PositionStore
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler


class StubRadio:
    """Records everything the channel tells it."""

    def __init__(self):
        self.received = []  # (time, frame, sender)
        self.corrupted = []
        self.medium_events = []  # (time, busy)

    def bind(self, scheduler):
        self._scheduler = scheduler
        return self

    def on_medium_state(self, busy):
        self.medium_events.append((self._scheduler.now, busy))

    def on_frame_received(self, frame, sender_id):
        self.received.append((self._scheduler.now, frame, sender_id))

    def on_frame_corrupted(self, frame, sender_id):
        self.corrupted.append((self._scheduler.now, frame, sender_id))


def make_channel(positions, drop_predicate=None):
    """Channel with static hosts at ``positions`` (id = list index)."""
    scheduler = Scheduler()
    params = PhyParams(radio_radius=100.0)
    channel = Channel(
        scheduler, params, PositionStore.static(positions), drop_predicate
    )
    radios = []
    for host_id in range(len(positions)):
        radio = StubRadio().bind(scheduler)
        channel.attach(host_id, radio)
        radios.append(radio)
    return scheduler, channel, radios


def test_in_range_host_receives_frame():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "hello", 0.001)
    scheduler.run()
    assert radios[1].received == [(0.001, "hello", 0)]
    assert radios[0].received == []  # sender does not hear itself


def test_out_of_range_host_hears_nothing():
    scheduler, channel, radios = make_channel([(0, 0), (150, 0)])
    channel.start_transmission(0, "hello", 0.001)
    scheduler.run()
    assert radios[1].received == []
    assert radios[1].medium_events == []


def test_boundary_distance_exactly_radius_is_in_range():
    scheduler, channel, radios = make_channel([(0, 0), (100, 0)])
    channel.start_transmission(0, "edge", 0.001)
    scheduler.run()
    assert len(radios[1].received) == 1


def test_delivery_at_end_of_airtime():
    scheduler, channel, radios = make_channel([(0, 0), (10, 0)])
    channel.start_transmission(0, "x", 0.002432)
    scheduler.run()
    assert radios[1].received[0][0] == pytest.approx(0.002432)


def test_medium_busy_then_idle_notifications():
    scheduler, channel, radios = make_channel([(0, 0), (10, 0)])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    assert radios[1].medium_events == [(0.0, True), (0.001, False)]


def test_sender_gets_no_self_notifications():
    scheduler, channel, radios = make_channel([(0, 0), (10, 0)])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    assert radios[0].medium_events == []


def test_overlapping_frames_collide_at_receiver():
    # Hosts 0 and 2 both in range of middle host 1.
    scheduler, channel, radios = make_channel([(0, 0), (50, 0), (100, 0)])
    channel.start_transmission(0, "a", 0.002)
    scheduler.schedule(0.001, channel.start_transmission, 2, "b", 0.002)
    scheduler.run()
    assert radios[1].received == []
    assert {frame for _, frame, _ in radios[1].corrupted} == {"a", "b"}


def test_hidden_terminal_collision():
    """0 and 2 cannot hear each other but both reach 1: classic hidden
    terminal -- both frames garble at 1 while 0 and 2 stay oblivious."""
    scheduler, channel, radios = make_channel([(0, 0), (90, 0), (180, 0)])
    channel.start_transmission(0, "left", 0.002)
    scheduler.schedule(0.0005, channel.start_transmission, 2, "right", 0.002)
    scheduler.run()
    assert radios[1].received == []
    assert len(radios[1].corrupted) == 2
    assert channel.stats.collisions == 2


def test_non_overlapping_sequential_frames_both_deliver():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0), (100, 0)])
    channel.start_transmission(0, "a", 0.001)
    scheduler.schedule(0.002, channel.start_transmission, 2, "b", 0.001)
    scheduler.run()
    assert [f for _, f, _ in radios[1].received] == ["a", "b"]


def test_collision_only_at_receivers_hearing_both():
    """Host 3 hears only transmitter 2; its copy survives the collision
    happening at host 1."""
    positions = [(0, 0), (90, 0), (180, 0), (270, 0)]
    scheduler, channel, radios = make_channel(positions)
    channel.start_transmission(0, "a", 0.002)
    scheduler.schedule(0.0005, channel.start_transmission, 2, "b", 0.002)
    scheduler.run()
    assert radios[1].received == []
    assert [f for _, f, _ in radios[3].received] == ["b"]


def test_half_duplex_receiver_transmitting_is_deaf():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "mine", 0.002)
    scheduler.schedule(0.0005, channel.start_transmission, 1, "yours", 0.002)
    scheduler.run()
    # Host 1 was receiving "mine" and then started transmitting: deaf.
    assert radios[1].received == []
    # Host 0 was transmitting while "yours" arrived: also deaf.
    assert radios[0].received == []
    assert channel.stats.deaf_misses >= 1


def test_carrier_busy_during_transmission():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0), (500, 0)])
    channel.start_transmission(0, "x", 0.001)
    assert channel.carrier_busy(0)  # own transmission
    assert channel.carrier_busy(1)  # incoming energy
    assert not channel.carrier_busy(2)  # out of range
    scheduler.run()
    assert not channel.carrier_busy(0)
    assert not channel.carrier_busy(1)


def test_is_transmitting():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.001)
    assert channel.is_transmitting(0)
    assert not channel.is_transmitting(1)
    scheduler.run()
    assert not channel.is_transmitting(0)


def test_neighbors_in_range_oracle():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0), (99, 0), (250, 0)])
    assert sorted(channel.neighbors_in_range(0)) == [1, 2]
    assert channel.neighbors_in_range(3) == []


def test_double_transmission_rejected():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.001)
    with pytest.raises(RuntimeError):
        channel.start_transmission(0, "y", 0.001)


def test_unattached_sender_rejected():
    scheduler, channel, radios = make_channel([(0, 0)])
    with pytest.raises(ValueError):
        channel.start_transmission(5, "x", 0.001)


def test_invalid_duration_rejected():
    scheduler, channel, radios = make_channel([(0, 0)])
    with pytest.raises(ValueError):
        channel.start_transmission(0, "x", 0.0)


def test_duplicate_attach_rejected():
    scheduler, channel, radios = make_channel([(0, 0)])
    with pytest.raises(ValueError):
        channel.attach(0, StubRadio().bind(scheduler))


def test_detach_mid_frame_is_safe():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.002)
    scheduler.schedule(0.001, channel.detach, 1)
    scheduler.run()
    assert radios[1].received == []


def test_drop_predicate_injects_losses():
    scheduler, channel, radios = make_channel(
        [(0, 0), (50, 0)], drop_predicate=lambda s, r: True
    )
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    assert radios[1].received == []
    assert len(radios[1].corrupted) == 1
    assert channel.stats.injected_drops == 1


def test_stats_counters():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    assert channel.stats.transmissions == 1
    assert channel.stats.deliveries == 1
    assert channel.stats.collisions == 0


def test_three_way_overlap_all_corrupted():
    positions = [(0, 0), (10, 0), (20, 0), (30, 0)]
    scheduler, channel, radios = make_channel(positions)
    channel.start_transmission(0, "a", 0.003)
    scheduler.schedule(0.001, channel.start_transmission, 1, "b", 0.003)
    scheduler.schedule(0.002, channel.start_transmission, 2, "c", 0.003)
    scheduler.run()
    assert radios[3].received == []
    assert {f for _, f, _ in radios[3].corrupted} == {"a", "b", "c"}


def test_airtime_accounting():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0), (500, 0)])
    channel.start_transmission(0, "x", 0.002)
    scheduler.run()
    assert channel.stats.tx_airtime[0] == pytest.approx(0.002)
    assert channel.stats.rx_airtime[1] == pytest.approx(0.002)
    # Out-of-range host 2 spends no receive airtime.
    assert 2 not in channel.stats.rx_airtime
    assert channel.stats.total_tx_airtime == pytest.approx(0.002)
    assert channel.stats.total_rx_airtime == pytest.approx(0.002)


def test_airtime_accumulates_even_for_corrupted_receptions():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0), (100, 0)])
    channel.start_transmission(0, "a", 0.002)
    scheduler.schedule(0.001, channel.start_transmission, 2, "b", 0.002)
    scheduler.run()
    # Host 1 heard both frames (garbled), paying receive energy for both.
    assert channel.stats.rx_airtime[1] == pytest.approx(0.004)
