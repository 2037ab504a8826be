"""Network layer: packets, hosts, neighbor discovery, connectivity.

- :mod:`repro.net.packets` -- broadcast data packets (tagged with
  ``(source ID, sequence number)`` for duplicate detection, as in DSR/AODV)
  and HELLO packets (optionally carrying the sender's neighbor list for the
  neighbor-coverage scheme and its announced hello interval for DHI).
- :mod:`repro.net.dupcache` -- the duplicate-broadcast detector.
- :mod:`repro.net.neighbors` -- the network's neighbor matrix built from
  HELLOs (a per-host table view of each row), two-hop knowledge, neighborhood-variation tracking and the paper's
  dynamic hello interval formula.
- :mod:`repro.net.host` -- the mobile host tying mobility, MAC, scheme and
  hello protocol together.
- :mod:`repro.net.network` -- the world: builds all hosts over one channel
  and provides connectivity snapshots (the ``e`` in RE).
"""

from repro.net.dupcache import DuplicateCache
from repro.net.host import HelloConfig, MobileHost
from repro.net.neighbors import NeighborMatrix, NeighborTable, dynamic_hello_interval
from repro.net.network import Network
from repro.net.packets import BroadcastPacket, HelloPacket, PacketKey

__all__ = [
    "BroadcastPacket",
    "HelloPacket",
    "PacketKey",
    "DuplicateCache",
    "NeighborTable",
    "NeighborMatrix",
    "dynamic_hello_interval",
    "MobileHost",
    "HelloConfig",
    "Network",
]
