"""Unicast MAC: ACKs, retries, contention-window growth."""

import pytest

from repro.mac.csma import CsmaCaMac
from repro.mac.frames import AckFrame, DataFrame
from repro.mobility.store import PositionStore
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler

PARAMS = PhyParams(radio_radius=100.0)


class Upper:
    def __init__(self, scheduler):
        self._scheduler = scheduler
        self.received = []

    def on_frame_received(self, frame, sender_id):
        self.received.append((self._scheduler.now, frame, sender_id))

    def on_frame_corrupted(self, frame, sender_id):
        pass


def build(positions, drop_predicate=None, retry_limit=7):
    scheduler = Scheduler()
    channel = Channel(
        scheduler, PARAMS, PositionStore.static(positions), drop_predicate
    )
    macs, uppers = [], []
    for host_id in range(len(positions)):
        upper = Upper(scheduler)
        import random
        mac = CsmaCaMac(host_id, scheduler, channel, PARAMS,
                        random.Random(host_id), upper,
                        retry_limit=retry_limit)
        macs.append(mac)
        uppers.append(upper)
    return scheduler, channel, macs, uppers


def test_unicast_delivery_and_ack():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    outcome = []
    scheduler.schedule(1.0, macs[0].send_unicast, "msg", 100, 1,
                       outcome.append)
    scheduler.run()
    assert [f for _, f, _ in uppers[1].received] == ["msg"]
    assert outcome == [True]
    assert macs[1].stats.acks_sent == 1
    assert macs[0].stats.unicast_delivered == 1
    assert macs[0].stats.retries == 0


def test_ack_arrives_one_sifs_after_data():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    scheduler.schedule(1.0, macs[0].send_unicast, "msg", 100, 1)
    scheduler.run()
    data_end = 1.0 + PARAMS.airtime(100)
    # The receiver got the payload at data_end; the ACK goes on air at
    # data_end + SIFS and completes after the ACK airtime.
    assert uppers[1].received[0][0] == pytest.approx(data_end)


def test_unaddressed_host_does_not_deliver_unicast():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0), (60, 0)])
    scheduler.schedule(1.0, macs[0].send_unicast, "msg", 100, 1)
    scheduler.run()
    assert uppers[2].received == []
    assert macs[2].stats.overheard == 1


def test_unicast_to_self_rejected():
    scheduler, channel, macs, uppers = build([(0, 0)])
    with pytest.raises(ValueError):
        macs[0].send_unicast("x", 10, 0)


def test_lost_frame_retried_until_delivered():
    """Drop the first two data attempts; the third succeeds."""
    attempts = {"n": 0}

    def lossy(sender, receiver):
        if sender == 0 and receiver == 1:
            attempts["n"] += 1
            return attempts["n"] <= 2
        return False

    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0)], drop_predicate=lossy
    )
    outcome = []
    scheduler.schedule(1.0, macs[0].send_unicast, "msg", 100, 1,
                       outcome.append)
    scheduler.run()
    assert outcome == [True]
    assert macs[0].stats.retries == 2
    assert [f for _, f, _ in uppers[1].received] == ["msg"]


def test_unreachable_destination_fails_after_retry_limit():
    scheduler, channel, macs, uppers = build(
        [(0, 0), (500, 0)], retry_limit=3
    )
    outcome = []
    scheduler.schedule(1.0, macs[0].send_unicast, "msg", 100, 1,
                       outcome.append)
    scheduler.run()
    assert outcome == [False]
    assert macs[0].stats.unicast_failed == 1
    # 1 initial + 3 retries.
    assert macs[0].stats.frames_sent == 4


def test_contention_window_doubles_then_resets():
    scheduler, channel, macs, uppers = build(
        [(0, 0), (500, 0)], retry_limit=2
    )
    windows = []
    scheduler.schedule(1.0, macs[0].send_unicast, "x", 50, 1)
    # First ACK timeout lands ~0.95 ms after the send; sample just after
    # it (CW doubled) and again long after the final failure (CW reset).
    for t in (1.0011, 1.2):
        scheduler.schedule_at(t, lambda: windows.append(macs[0].contention_window))
    scheduler.run()
    assert max(windows) > PARAMS.cw_min
    assert macs[0].contention_window == PARAMS.cw_min  # reset after failure


def test_lost_ack_reacked_but_duplicate_filtered():
    """Dropping the ACK (not the data) makes the receiver hear the frame
    twice; per 802.11 duplicate detection it re-ACKs the retransmission
    but delivers the payload only once."""
    drops = {"n": 0}

    def drop_first_ack(sender, receiver):
        # ACK direction: 1 -> 0.
        if sender == 1 and receiver == 0 and drops["n"] == 0:
            drops["n"] += 1
            return True
        return False

    scheduler, channel, macs, uppers = build(
        [(0, 0), (50, 0)], drop_predicate=drop_first_ack
    )
    outcome = []
    scheduler.schedule(1.0, macs[0].send_unicast, "msg", 100, 1,
                       outcome.append)
    scheduler.run()
    assert outcome == [True]
    assert [f for _, f, _ in uppers[1].received] == ["msg"]
    assert macs[1].stats.acks_sent == 2
    assert macs[1].stats.duplicates_filtered == 1


def test_broadcast_and_unicast_interleave():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0), (60, 0)])

    def both():
        macs[0].send("bcast", 100)
        macs[0].send_unicast("ucast", 100, 1)

    scheduler.schedule(1.0, both)
    scheduler.run()
    assert [f for _, f, _ in uppers[1].received] == ["bcast", "ucast"]
    assert [f for _, f, _ in uppers[2].received] == ["bcast"]


def test_queue_continues_after_unicast_exchange():
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])

    def sends():
        macs[0].send_unicast("first", 100, 1)
        macs[0].send("second", 100)

    scheduler.schedule(1.0, sends)
    scheduler.run()
    assert [f for _, f, _ in uppers[1].received] == ["first", "second"]


def test_raw_frames_still_pass_through():
    """Frames injected directly at the channel (tests, legacy) bypass the
    envelope and are delivered as-is."""
    scheduler, channel, macs, uppers = build([(0, 0), (50, 0)])
    channel.start_transmission(0, "raw", 0.001)
    scheduler.run()
    assert [f for _, f, _ in uppers[1].received] == ["raw"]
