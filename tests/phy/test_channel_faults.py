"""Channel behaviour under radio crashes: aborts, detach-mid-frame, re-attach."""

import pytest

from repro.mobility.store import PositionStore
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler


class StubRadio:
    def __init__(self):
        self.received = []
        self.corrupted = []
        self.medium_events = []

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


# ------------------------------------------------------- abort_transmission


def test_abort_mid_frame_delivers_nothing():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.002)
    scheduler.schedule(0.001, channel.abort_transmission, 0)
    scheduler.run()
    assert radios[1].received == []
    assert radios[1].corrupted == []
    assert channel.stats.aborted_frames == 1
    assert channel.stats.truncated_receptions == 1
    assert channel.stats.deliveries == 0


def test_abort_emits_medium_idle_edge():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.002)
    scheduler.schedule(0.001, channel.abort_transmission, 0)
    scheduler.run()
    # Busy edge at tx start (zero-delay event), idle edge at the abort.
    assert radios[1].medium_events == [(0.0, True), (0.001, False)]


def test_abort_non_transmitting_host_is_noop():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    assert channel.abort_transmission(0) is False
    assert channel.stats.aborted_frames == 0


def test_abort_refunds_airtime():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.002)
    scheduler.schedule(0.0005, channel.abort_transmission, 0)
    scheduler.run()
    assert channel.stats.tx_airtime[0] == pytest.approx(0.0005)
    assert channel.stats.rx_airtime[1] == pytest.approx(0.0005)


def test_abort_leaves_other_transmissions_alone():
    # Hosts 0 and 2 both in range of 1; 0 aborts, 2's frame still completes
    # (corrupted at 1 by the overlap -- corruption is not undone by aborts).
    scheduler, channel, radios = make_channel([(0, 0), (50, 0), (100, 0)])
    channel.start_transmission(0, "a", 0.003)
    scheduler.schedule(0.001, channel.start_transmission, 2, "b", 0.003)
    scheduler.schedule(0.002, channel.abort_transmission, 0)
    scheduler.run()
    assert channel.stats.aborted_frames == 1
    # Host 1 heard overlapping frames: "b" completes but stays corrupted.
    assert [f for _, f, _ in radios[1].corrupted] == ["b"]
    assert radios[1].received == []


# ------------------------------------------------------- detach-mid-frame


def test_detach_transmitting_sender_aborts_frame():
    """A sender crashing mid-own-frame must not KeyError at frame end nor
    deliver from a dead radio."""
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.002)
    scheduler.schedule(0.001, channel.detach, 0)
    scheduler.run()
    assert radios[1].received == []
    assert channel.stats.aborted_frames == 1
    assert 0 not in channel.attached_ids
    assert not channel.is_transmitting(0)


def test_detach_receiver_mid_frame_is_safe():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.002)
    scheduler.schedule(0.001, channel.detach, 1)
    scheduler.run()
    assert radios[1].received == []
    # The frame itself completed; only the vanished receiver missed it.
    assert channel.stats.aborted_frames == 0


def test_detach_receiver_then_abort_sender():
    """Both ends dying mid-frame must not raise."""
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.002)
    scheduler.schedule(0.0005, channel.detach, 1)
    scheduler.schedule(0.001, channel.detach, 0)
    scheduler.run()
    assert radios[1].received == []
    assert channel.stats.aborted_frames == 1


# ----------------------------------------------------------- re-attach


def test_reattach_after_detach_receives_again():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.detach(1)
    channel.attach(1, radios[1])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    assert [f for _, f, _ in radios[1].received] == ["x"]


def test_reattach_mid_frame_misses_the_ongoing_frame():
    """Receiver sets freeze at tx start: a radio attaching mid-frame hears
    nothing of it (it powered on after the preamble)."""
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.detach(1)
    channel.start_transmission(0, "x", 0.002)
    scheduler.schedule(0.001, channel.attach, 1, radios[1])
    scheduler.run()
    assert radios[1].received == []
    assert radios[1].corrupted == []
    # ...but the next frame is heard normally.
    channel.start_transmission(0, "y", 0.001)
    scheduler.run()
    assert [f for _, f, _ in radios[1].received] == ["y"]


def test_reattach_same_id_twice_still_rejected():
    scheduler, channel, radios = make_channel([(0, 0)])
    channel.detach(0)
    channel.attach(0, radios[0])
    with pytest.raises(ValueError):
        channel.attach(0, radios[0])


def test_drop_predicate_is_settable_at_runtime():
    scheduler, channel, radios = make_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "a", 0.001)
    scheduler.run()
    channel.drop_predicate = lambda s, r: True
    channel.start_transmission(0, "b", 0.001)
    scheduler.run()
    assert [f for _, f, _ in radios[1].received] == ["a"]
    assert [f for _, f, _ in radios[1].corrupted] == ["b"]
    assert channel.stats.injected_drops == 1
