"""Host crash/recover round-trips must leave no stale state behind."""

import pytest

from repro.experiments.topologies import build_static_network, line_positions
from repro.net.host import HelloConfig
from repro.perf import KernelPerf
from repro.phy.params import PhyParams
from repro.schemes.counter import CounterScheme
from repro.schemes.flooding import FloodingScheme
from repro.sim.engine import Scheduler


def make_network(n=3, scheme=FloodingScheme, hello=True, spacing=80.0):
    # spacing 80 with radius 100: only adjacent hosts hear each other, so
    # the middle host is the sole bridge on a 3-host line.
    scheduler = Scheduler()
    network, metrics = build_static_network(
        scheduler,
        line_positions(n, spacing),
        scheme,
        params=PhyParams(radio_radius=100.0),
        hello_config=HelloConfig(enabled=hello, interval=0.5),
    )
    network.start()
    return scheduler, network, metrics


def assert_cold(host, channel):
    """Everything a crash must wipe, per the acceptance criteria."""
    assert not host.alive
    assert host.mac.is_shut_down
    assert host.mac.queue_length == 0
    assert not host.mac.is_transmitting
    assert host.host_id not in channel.attached_ids
    assert host.neighbor_table.neighbor_count() == 0
    assert len(host.dup_cache) == 0
    assert host.scheme.pending_count() == 0
    assert host._hello_event is None


def test_crash_wipes_all_volatile_state():
    scheduler, network, _ = make_network()
    # Let hellos populate tables and run one broadcast so the dup cache,
    # MAC queue and scheme pending sets all have content to lose.
    scheduler.run(until=2.0)
    host = network.hosts[1]
    assert host.neighbor_table.neighbor_count() == 2
    network.initiate_broadcast(0)
    # Crash host 1 a hair after the source's frame reaches it (mid-decision).
    scheduler.run(until=scheduler.now + 0.004)
    network.crash_host(1)
    assert_cold(host, network.channel)
    # The rest of the simulation must proceed without errors.
    scheduler.run(until=scheduler.now + 2.0)
    assert not host.alive


def test_crash_while_transmitting_aborts_cleanly():
    scheduler, network, _ = make_network(hello=False)
    scheduler.run(until=1.0)
    network.initiate_broadcast(1)
    # Advance into host 1's own transmission, then kill it.
    deadline = scheduler.now + 1.0
    while not network.hosts[1].mac.is_transmitting and scheduler.now < deadline:
        scheduler.step()
    assert network.hosts[1].mac.is_transmitting
    network.crash_host(1)
    assert network.channel.stats.aborted_frames == 1
    assert_cold(network.hosts[1], network.channel)
    scheduler.run(until=scheduler.now + 1.0)
    # Neither neighbor decoded the truncated frame.
    assert len(network.hosts[0].dup_cache) == 0
    assert len(network.hosts[2].dup_cache) == 0


def test_recover_round_trip_restores_function():
    scheduler, network, metrics = make_network()
    scheduler.run(until=2.0)
    network.crash_host(1)
    scheduler.run(until=4.0)
    network.recover_host(1)
    host = network.hosts[1]
    assert host.alive
    assert not host.mac.is_shut_down
    assert 1 in network.channel.attached_ids
    # Cold tables right after recovery...
    assert host.neighbor_table.neighbor_count() == 0
    # ...relearned after a couple of hello intervals.
    scheduler.run(until=6.0)
    assert host.neighbor_table.neighbor_count() == 2
    # And the host relays broadcasts again: 0 -> 1 -> 2 on a line.
    network.initiate_broadcast(0)
    scheduler.run(until=scheduler.now + 1.0)
    record = list(metrics.records.values())[-1]
    assert set(record.received_times) == {1, 2}


def test_crash_recover_cycle_is_repeatable():
    scheduler, network, _ = make_network()
    for _ in range(3):
        scheduler.run(until=scheduler.now + 1.0)
        network.crash_host(1)
        scheduler.run(until=scheduler.now + 1.0)
        network.recover_host(1)
    scheduler.run(until=scheduler.now + 2.0)
    assert network.hosts[1].neighbor_table.neighbor_count() == 2


def test_double_crash_and_double_recover_raise():
    scheduler, network, _ = make_network()
    network.crash_host(1)
    with pytest.raises(ValueError, match="already crashed"):
        network.crash_host(1)
    network.recover_host(1)
    with pytest.raises(ValueError, match="not crashed"):
        network.recover_host(1)


def test_crashed_host_cannot_source_or_enqueue():
    scheduler, network, _ = make_network(hello=False)
    network.crash_host(1)
    with pytest.raises(ValueError, match="crashed"):
        network.initiate_broadcast(1)
    with pytest.raises(RuntimeError, match="shut down"):
        network.hosts[1].mac.send("frame", 64)


def test_crashed_host_hears_nothing():
    scheduler, network, metrics = make_network(scheme=CounterScheme)
    scheduler.run(until=2.0)
    network.crash_host(1)
    network.initiate_broadcast(0)
    scheduler.run(until=scheduler.now + 1.0)
    record = list(metrics.records.values())[-1]
    # Host 1 was the only bridge to host 2: nobody receives.
    assert set(record.received_times) == set()
    # And e was computed against the alive reachable set (empty here).
    assert record.reachable_count == 0


def test_mobility_survives_the_crash():
    """It is the radio that dies; the position keeps evolving (static here,
    but the mobility model must remain queryable throughout)."""
    scheduler, network, _ = make_network()
    before = network.hosts[1].position()
    network.crash_host(1)
    scheduler.run(until=1.0)
    assert network.hosts[1].position() == before
    assert 1 not in network.alive_positions()
    assert 1 in network.positions()


def test_crash_keeps_the_hello_counters():
    """Regression: a crash used to swap in a fresh neighbor table, so the
    HELLO counters lost every pre-crash count while the MAC's
    ``frames_received`` kept them.  With only HELLOs on the air every
    received frame is one table update, across crashes and recoveries."""
    scheduler, network, _ = make_network()
    scheduler.run(until=2.0)
    before = KernelPerf.collect(scheduler, network)
    assert before.hello_updates == before.frames_received > 0
    network.crash_host(1)
    after_crash = KernelPerf.collect(scheduler, network)
    assert after_crash.hello_updates == before.hello_updates
    assert after_crash.neighbor_expirations == before.neighbor_expirations
    scheduler.run(until=4.0)
    network.recover_host(1)
    scheduler.run(until=6.0)
    perf = KernelPerf.collect(scheduler, network)
    assert perf.hello_updates == perf.frames_received > after_crash.hello_updates
    # Hosts 0 and 2 aged the silent host 1 out of their tables meanwhile.
    assert perf.neighbor_expirations >= before.neighbor_expirations + 2
