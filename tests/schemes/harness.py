"""Fake host harness for driving schemes without a full network."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.neighbors import NeighborTable
from repro.net.packets import BroadcastPacket, HelloPacket
from repro.sim.engine import Scheduler


class FakeRng:
    """randint() / random() return fixed values (deterministic draws)."""

    def __init__(self, value: int = 0, random_value: float = 0.0):
        self.value = value
        self.random_value = random_value

    def randint(self, a, b):
        assert a <= self.value <= b
        return self.value

    def random(self):
        assert 0.0 <= self.random_value < 1.0
        return self.random_value


class FakeMacHandle:
    def __init__(self, host, packet, on_transmit_start):
        self.host = host
        self.packet = packet
        self.on_transmit_start = on_transmit_start
        self.cancelled = False
        self.transmitted = False

    def cancel(self):
        if self.transmitted:
            return False
        self.cancelled = True
        return True

    def force_transmit(self):
        """Simulate the MAC putting the frame on the air."""
        assert not self.cancelled
        self.transmitted = True
        self.host.transmitted.append(self.packet)
        if self.on_transmit_start is not None:
            self.on_transmit_start()


class FakeHost:
    """Implements the SchemeHost duck interface with full observability."""

    def __init__(self, scheme, host_id=1, position=(0.0, 0.0), neighbors=0,
                 radius=500.0, jitter=0, random_value=0.0):
        self.scheduler = Scheduler()
        self.scheme_rng = FakeRng(jitter, random_value)
        self.slot_time = 20e-6
        self.host_id = host_id
        self._position = position
        self._radius = radius
        self._neighbor_count = neighbors
        self.neighbor_table = NeighborTable(default_interval=1.0)
        self.submitted: List[FakeMacHandle] = []
        self.transmitted: List[BroadcastPacket] = []
        self.inhibited: List = []
        self.scheme = scheme
        scheme.attach(self)

    # SchemeHost API -------------------------------------------------

    def position(self) -> Tuple[float, float]:
        return self._position

    def radio_radius(self) -> float:
        return self._radius

    def neighbor_count(self, purge: bool = True) -> int:
        return self._neighbor_count

    def submit_rebroadcast(self, packet, on_transmit_start):
        handle = FakeMacHandle(self, packet, on_transmit_start)
        self.submitted.append(handle)
        return handle

    def record_inhibit(self, key):
        self.inhibited.append(key)

    # Test conveniences ----------------------------------------------

    def learn_neighbor(self, neighbor_id, two_hop=(), now=0.0):
        self.neighbor_table.update_from_hello(
            HelloPacket(
                sender_id=neighbor_id, neighbor_ids=frozenset(two_hop)
            ),
            now=now,
        )
        self._neighbor_count = self.neighbor_table.neighbor_count()

    def run_jitter(self):
        """Run pending zero/short-delay events (the S2 jitter wait)."""
        self.scheduler.run()

    def hear_first(self, packet, sender_id=None, sender_position=None):
        self.scheme.on_first_hear(
            packet, sender_id if sender_id is not None else packet.tx_id,
            sender_position if sender_position is not None else packet.tx_position,
        )

    def hear_again(self, packet, sender_id=None, sender_position=None):
        self.scheme.on_hear_again(
            packet, sender_id if sender_id is not None else packet.tx_id,
            sender_position if sender_position is not None else packet.tx_position,
        )


def make_packet(source=0, seq=1, tx_id=None, tx_position=None, hops=0):
    return BroadcastPacket(
        source_id=source,
        seq=seq,
        origin_time=0.0,
        tx_id=tx_id if tx_id is not None else source,
        tx_position=tx_position,
        hops=hops,
        size_bytes=280,
    )
