"""Capture-effect model and its channel integration."""

import random

import pytest

from repro.phy.capture import CaptureModel
from repro.mobility.store import PositionStore
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.sim.engine import Scheduler

from tests.phy.test_channel import StubRadio


class TestCaptureModel:
    def test_threshold_conversion(self):
        assert CaptureModel(threshold_db=10.0).threshold_linear == pytest.approx(10.0)
        assert CaptureModel(threshold_db=20.0).threshold_linear == pytest.approx(100.0)

    def test_power_decays_with_distance(self):
        model = CaptureModel(pathloss_exponent=4.0)
        assert model.power(10.0) > model.power(20.0)
        # Factor-two distance, alpha=4: 16x power ratio.
        assert model.power(10.0) / model.power(20.0) == pytest.approx(16.0)

    def test_power_clamped_at_min_distance(self):
        model = CaptureModel(min_distance=1.0)
        assert model.power(0.0) == model.power(0.5) == model.power(1.0)

    def test_survives(self):
        model = CaptureModel(threshold_db=10.0)
        assert model.survives(10.0, 1.0)  # SIR = 10 >= 10
        assert not model.survives(9.0, 1.0)
        assert model.survives(0.001, 0.0)  # no interference

    def test_validation(self):
        with pytest.raises(ValueError):
            CaptureModel(pathloss_exponent=0.0)
        with pytest.raises(ValueError):
            CaptureModel(min_distance=0.0)
        with pytest.raises(ValueError):
            CaptureModel().power(-1.0)

    @pytest.mark.parametrize("threshold_db", [0.0, -3.0, float("nan")])
    def test_threshold_must_be_above_0db(self, threshold_db):
        """At 0 dB two equal-power frames both reach SIR 1 >= 1, so one
        half-duplex radio would decode two overlapping frames."""
        with pytest.raises(ValueError, match="threshold_db"):
            CaptureModel(threshold_db=threshold_db)


def capture_channel(positions, capture):
    scheduler = Scheduler()
    channel = Channel(
        scheduler, PhyParams(radio_radius=100.0),
        PositionStore.static(positions), capture=capture,
    )
    radios = []
    for host_id in range(len(positions)):
        radio = StubRadio().bind(scheduler)
        channel.attach(host_id, radio)
        radios.append(radio)
    return scheduler, channel, radios


class TestChannelCapture:
    def test_near_frame_captures_over_far_interferer(self):
        """Receiver at 5 m from sender A, 95 m from sender C: A's frame is
        ~(95/5)^4 stronger and survives the overlap; C's frame dies."""
        positions = [(0, 0), (5, 0), (100, 0)]
        scheduler, channel, radios = capture_channel(
            positions, CaptureModel(threshold_db=10.0, pathloss_exponent=4.0)
        )
        channel.start_transmission(0, "near", 0.002)
        scheduler.schedule(0.0005, channel.start_transmission, 2, "far", 0.002)
        scheduler.run()
        assert [f for _, f, _ in radios[1].received] == ["near"]
        assert [f for _, f, _ in radios[1].corrupted] == ["far"]

    def test_comparable_powers_still_collide(self):
        """Equidistant senders: SIR = 1 < threshold, both frames die."""
        positions = [(0, 0), (50, 0), (100, 0)]
        scheduler, channel, radios = capture_channel(
            positions, CaptureModel(threshold_db=10.0)
        )
        channel.start_transmission(0, "a", 0.002)
        scheduler.schedule(0.0005, channel.start_transmission, 2, "b", 0.002)
        scheduler.run()
        assert radios[1].received == []
        assert len(radios[1].corrupted) == 2

    def test_corrupted_frame_stays_corrupted(self):
        """A frame garbled by one overlap is not resurrected when a later,
        weaker frame would have let it pass."""
        positions = [(0, 0), (50, 0), (100, 0), (51, 1)]
        scheduler, channel, radios = capture_channel(
            positions, CaptureModel(threshold_db=10.0)
        )
        # a and b comparable at host 1 -> both corrupted.
        channel.start_transmission(0, "a", 0.004)
        scheduler.schedule(0.0005, channel.start_transmission, 2, "b", 0.001)
        scheduler.run(until=0.002)
        # b ended; only a remains, but a was already corrupted.
        scheduler.run()
        assert all(f in ("a", "b") for _, f, _ in radios[1].corrupted)
        assert [f for _, f, _ in radios[1].received] == []

    def test_no_capture_default_garbles_everything(self):
        positions = [(0, 0), (5, 0), (100, 0)]
        scheduler, channel, radios = capture_channel(positions, None)
        channel.start_transmission(0, "near", 0.002)
        scheduler.schedule(0.0005, channel.start_transmission, 2, "far", 0.002)
        scheduler.run()
        assert radios[1].received == []


    def test_crashed_receiver_forgets_its_interference(self):
        """A frame in flight when the receiver crashed no longer counts
        against frames it hears after coming back: after the restart only
        a (near) and b (far) overlap there, and a captures."""
        positions = [(12, 0), (0, 0), (-10, 0), (0, 20)]
        scheduler, channel, radios = capture_channel(
            positions, CaptureModel(threshold_db=10.0, pathloss_exponent=4.0)
        )
        channel.start_transmission(0, "t", 0.01)
        scheduler.schedule(0.001, channel.detach, 1)
        scheduler.schedule(0.002, channel.attach, 1, radios[1])
        scheduler.schedule(0.003, channel.start_transmission, 2, "a", 0.002)
        scheduler.schedule(0.004, channel.start_transmission, 3, "b", 0.002)
        scheduler.run()
        assert [f for _, f, _ in radios[1].received] == ["a"]
        assert [f for _, f, _ in radios[1].corrupted] == ["b"]


# ------------------------------------------- per-inbox reference model


class InboxReference:
    """The per-receiver inbox bookkeeping and overlap rule the array
    channel replaced, kept as the reference for capture.

    Every attached receiver holds a dict of in-flight receptions ``sender
    -> [frame, sender, corrupted, power]`` in arrival order.  An arrival
    into a non-empty inbox runs the overlap rule over the whole inbox:
    with the powers summed in arrival order, each still-clean frame
    survives iff ``survives(p, total - p)``; a corrupted frame stays
    corrupted.  A detached radio's inbox vanishes, and its own frame is
    aborted: scrubbed from every inbox without an outcome.
    """

    def __init__(self, positions, radius, capture, dropped):
        self.positions = positions
        self.radius_sq = radius * radius
        self.capture = capture
        self.dropped = dropped
        self.inboxes = {host_id: {} for host_id in range(len(positions))}
        self.active = {}
        self.received = {host_id: [] for host_id in range(len(positions))}
        self.corrupted = {host_id: [] for host_id in range(len(positions))}
        self.collisions = 0
        self.deaf_misses = 0
        self.injected_drops = 0

    def start(self, time, sender_id, frame):
        if sender_id not in self.inboxes:  # crashed: the MAC sends nothing
            return
        for reception in self.inboxes[sender_id].values():
            if not reception[2]:
                reception[2] = True
                self.deaf_misses += 1
        receivers = []
        self.active[sender_id] = (frame, receivers)
        sx, sy = self.positions[sender_id]
        for host_id, (hx, hy) in enumerate(self.positions):
            if host_id == sender_id or host_id not in self.inboxes:
                continue
            dx = sx - hx
            dy = sy - hy
            dist_sq = dx * dx + dy * dy
            if dist_sq > self.radius_sq:
                continue
            receivers.append(host_id)
            corrupted = False
            if host_id in self.active:
                corrupted = True
                self.deaf_misses += 1
            elif self.dropped(time, sender_id, host_id):
                corrupted = True
                self.injected_drops += 1
            power = self.capture.power(dist_sq ** 0.5)
            inbox = self.inboxes[host_id]
            inbox[sender_id] = [frame, sender_id, corrupted, power]
            if len(inbox) > 1:
                self._resolve_overlap(inbox)

    def _resolve_overlap(self, inbox):
        total = sum(r[3] for r in inbox.values())
        for reception in inbox.values():
            if reception[2]:
                continue
            power = reception[3]
            if not self.capture.survives(power, total - power):
                reception[2] = True
                self.collisions += 1

    def end(self, sender_id, frame):
        current = self.active.get(sender_id)
        if current is None or current[0] != frame:  # aborted
            return
        del self.active[sender_id]
        for host_id in current[1]:
            reception = self.inboxes.get(host_id, {}).pop(sender_id, None)
            if reception is None:  # the receiver crashed mid-frame
                continue
            outcome = self.corrupted if reception[2] else self.received
            outcome[host_id].append((reception[0], sender_id))

    def detach(self, host_id):
        current = self.active.pop(host_id, None)
        if current is not None:
            for receiver in current[1]:
                self.inboxes.get(receiver, {}).pop(host_id, None)
        del self.inboxes[host_id]

    def attach(self, host_id):
        self.inboxes[host_id] = {}


def random_schedule(rng, num_hosts):
    """Per host, a few non-overlapping frames at random times; returns
    ``(start, sender, frame, duration)`` sorted by start."""
    frames = []
    for host_id in range(num_hosts):
        t = rng.uniform(0.0, 0.004)
        for index in range(rng.randint(1, 4)):
            duration = rng.uniform(0.0005, 0.003)
            frames.append((t, host_id, f"{host_id}.{index}", duration))
            t += duration + rng.uniform(0.0001, 0.004)
    frames.sort()
    return frames


@pytest.mark.parametrize("seed", range(40))
def test_array_capture_matches_inbox_reference(seed):
    """Random overlap schedules through the array channel with capture
    (some frames dropped, some receivers deaf, some radios crashing and
    coming back mid-frame) give every delivery, corruption and counter
    the per-inbox rule gives."""
    rng = random.Random(seed)
    num_hosts = rng.randint(3, 8)
    positions = [
        (rng.uniform(0.0, 150.0), rng.uniform(0.0, 150.0))
        for _ in range(num_hosts)
    ]
    capture = CaptureModel(
        threshold_db=rng.uniform(0.5, 12.0),
        pathloss_exponent=rng.uniform(2.0, 5.0),
    )
    schedule = random_schedule(rng, num_hosts)
    dropped_links = {
        (start, sender, receiver)
        for start, sender, _frame, _duration in schedule
        for receiver in range(num_hosts)
        if rng.random() < 0.1
    }
    crashes = [
        (host_id, down, down + rng.uniform(0.0005, 0.004))
        for host_id in rng.sample(range(num_hosts), rng.randint(0, 2))
        for down in [rng.uniform(0.0, 0.01)]
    ]
    scheduler, channel, radios = capture_channel(positions, capture)
    channel.drop_predicate = lambda s, r: (
        (scheduler.now, s, r) in dropped_links
    )
    reference = InboxReference(
        positions, 100.0, capture,
        lambda t, s, r: (t, s, r) in dropped_links,
    )

    def start(sender, frame, duration):
        if sender in channel.attached_ids:
            channel.start_transmission(sender, frame, duration)

    # Drive the reference through the same event sequence in time order
    # (random floats, so no ties).
    events = []
    for time, sender, frame, duration in schedule:
        scheduler.schedule_at(time, start, sender, frame, duration)
        events.append((time, "start", sender, frame))
        events.append((time + duration, "end", sender, frame))
    for host_id, down, up in crashes:
        scheduler.schedule_at(down, channel.detach, host_id)
        scheduler.schedule_at(up, channel.attach, host_id, radios[host_id])
        events.append((down, "detach", host_id, None))
        events.append((up, "attach", host_id, None))
    for time, kind, host_id, frame in sorted(events):
        if kind == "start":
            reference.start(time, host_id, frame)
        elif kind == "end":
            reference.end(host_id, frame)
        else:
            getattr(reference, kind)(host_id)
    scheduler.run()

    for host_id, radio in enumerate(radios):
        assert [(f, s) for _, f, s in radio.received] == (
            reference.received[host_id]
        ), host_id
        assert [(f, s) for _, f, s in radio.corrupted] == (
            reference.corrupted[host_id]
        ), host_id
    stats = channel.stats
    assert stats.collisions == reference.collisions
    assert stats.deaf_misses == reference.deaf_misses
    assert stats.injected_drops == reference.injected_drops
    assert stats.deliveries == sum(map(len, reference.received.values()))
