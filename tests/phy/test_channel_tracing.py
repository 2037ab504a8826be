"""Channel event tracing."""

from repro.mobility.store import PositionStore
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler
from repro.sim.trace import RecordingTracer

from tests.phy.test_channel import StubRadio


def traced_channel(positions):
    scheduler = Scheduler()
    tracer = RecordingTracer()
    channel = Channel(
        scheduler, PhyParams(radio_radius=100.0),
        PositionStore.static(positions), tracer=tracer,
    )
    for host_id in range(len(positions)):
        channel.attach(host_id, StubRadio().bind(scheduler))
    return scheduler, channel, tracer


def test_tx_and_rx_traced():
    scheduler, channel, tracer = traced_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    assert tracer.count("tx-start", sender=0) == 1
    assert tracer.count("rx", sender=0, receiver=1) == 1
    assert tracer.count("rx-corrupted") == 0


def test_collision_traced_as_corrupted():
    scheduler, channel, tracer = traced_channel([(0, 0), (50, 0), (100, 0)])
    channel.start_transmission(0, "a", 0.002)
    scheduler.schedule(0.001, channel.start_transmission, 2, "b", 0.002)
    scheduler.run()
    assert tracer.count("rx-corrupted", receiver=1) == 2
    assert tracer.count("rx", receiver=1) == 0


def test_trace_times_match_events():
    scheduler, channel, tracer = traced_channel([(0, 0), (50, 0)])
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()
    tx = tracer.filter("tx-start")[0]
    rx = tracer.filter("rx")[0]
    assert tx.time == 0.0
    assert rx.time == 0.001


def test_tracing_off_by_default_costs_nothing():
    scheduler = Scheduler()
    channel = Channel(
        scheduler, PhyParams(radio_radius=100.0), PositionStore.static([(0.0, 0.0)])
    )
    channel.attach(0, StubRadio().bind(scheduler))
    channel.start_transmission(0, "x", 0.001)
    scheduler.run()  # must not raise
