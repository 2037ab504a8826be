"""Channel trace records (``tx-start``, ``tx-abort``, ``rx``, ``rx-corrupt``)."""

from repro.mobility.store import PositionStore
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler
from repro.trace import TraceRecorder

from tests.phy.test_channel import StubRadio


def traced_channel(positions):
    scheduler = Scheduler()
    trace = TraceRecorder()
    channel = Channel(
        scheduler, PhyParams(radio_radius=100.0),
        PositionStore.static(positions), trace=trace,
    )
    for host_id in range(len(positions)):
        channel.attach(host_id, StubRadio().bind(scheduler))
    return scheduler, channel, trace


def records(trace, category, **fields):
    return [
        r for r in trace.as_dicts(category)
        if all(r[k] == v for k, v in fields.items())
    ]


def test_tx_and_rx_traced():
    scheduler, channel, trace = traced_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    assert len(records(trace, "tx-start", host=0, receivers=1)) == 1
    assert len(records(trace, "rx", sender=0, receiver=1)) == 1
    assert trace.count("rx-corrupt") == 0


def test_collision_traced_as_corrupted():
    scheduler, channel, trace = traced_channel([(0, 0), (50, 0), (100, 0)])
    channel.start_transmission(0, "a", 0.002)
    scheduler.schedule(0.001, channel.start_transmission, 2, "b", 0.002)
    scheduler.run()
    assert len(records(trace, "rx-corrupt", receiver=1)) == 2
    assert records(trace, "rx", receiver=1) == []


def test_trace_times_match_events():
    scheduler, channel, trace = traced_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    [tx] = records(trace, "tx-start")
    [rx] = records(trace, "rx")
    assert tx["t"] == 0.0
    assert tx["duration"] == 0.001
    assert rx["t"] == 0.001


def test_abort_mid_frame_traced_once_without_receptions():
    scheduler, channel, trace = traced_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.002)
    scheduler.schedule(0.001, channel.abort_transmission, 0)
    scheduler.run()
    [abort] = records(trace, "tx-abort")
    assert (abort["t"], abort["host"]) == (0.001, 0)
    assert trace.count("rx") == 0
    assert trace.count("rx-corrupt") == 0


def test_abort_traces_no_reception_of_the_aborted_frame():
    # 0 aborts mid-frame; 2's overlapping frame still ends, corrupted at 1.
    scheduler, channel, trace = traced_channel([(0, 0), (50, 0), (100, 0)])
    channel.start_transmission(0, "a", 0.003)
    scheduler.schedule(0.001, channel.start_transmission, 2, "b", 0.003)
    scheduler.schedule(0.002, channel.abort_transmission, 0)
    scheduler.run()
    assert len(records(trace, "tx-abort", host=0)) == 1
    assert records(trace, "rx", sender=0) == []
    assert records(trace, "rx-corrupt", sender=0) == []
    # "b" reached 0 while 0 was still sending: both copies are corrupt.
    assert [
        (r["t"], r["sender"], r["receiver"])
        for r in records(trace, "rx-corrupt")
    ] == [(0.004, 2, 0), (0.004, 2, 1)]


def test_tracing_off_by_default_costs_nothing():
    scheduler = Scheduler()
    channel = Channel(
        scheduler, PhyParams(radio_radius=100.0), PositionStore.static([(0.0, 0.0)])
    )
    channel.attach(0, StubRadio().bind(scheduler))
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()  # must not raise
