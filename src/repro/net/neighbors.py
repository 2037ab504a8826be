"""Neighbor tables, two-hop knowledge, and the dynamic hello interval.

One-hop discovery (paper Section 4.3): "A host x enlists another host h as
its one-hop neighbor when a HELLO is received from h.  If no HELLO has been
received from h for the past two hello intervals, host x deletes h as its
one-hop neighbor."  With the dynamic-hello-interval scheme each host
announces its own interval inside the HELLO, so the timeout applied to a
neighbor is two of *that neighbor's* announced intervals.

Two-hop knowledge for the neighbor-coverage scheme: HELLOs piggyback the
sender's neighbor set ``N_h``; the receiver stores it as ``N_{x,h}``.

Neighborhood variation (Section 4.3)::

    nv_x = (#hosts joining or leaving N_x in the past 10 s) / (|N_x| * 10)

Dynamic hello interval::

    hi_x = max(hi_min, (nv_max - nv_x) / nv_max * hi_max)

Storage: a network keeps every host's table as one row of a
:class:`NeighborMatrix`, so a HELLO decoded by many hosts at once is one
column write (:meth:`NeighborMatrix.receive_hello`); :class:`NeighborTable`
is the per-host view with the query API the schemes use.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.net.packets import HelloPacket

__all__ = [
    "NeighborMatrix",
    "NeighborTable",
    "dynamic_hello_interval",
    "DEFAULT_NV_WINDOW",
]

DEFAULT_NV_WINDOW = 10.0

_EMPTY: FrozenSet[int] = frozenset()


class NeighborMatrix:
    """Every host's HELLO-derived neighbor knowledge, as one set of arrays.

    Indexed ``[receiver row, sender column]``; a cell is what host ``x``
    (the row) knows about neighbor ``h`` (the column):

    - ``present`` (bool): ``h`` is in ``N_x``;
    - ``expiry`` (float64): ``last_heard + timeout_multiplier * interval``
      with ``h``'s announced interval; the entry is stale strictly after
      this instant.  Absent cells hold ``+inf``;
    - ``two_hop`` (object): ``N_{x,h}``, the neighbor set ``h`` announced in
      its last HELLO that carried one (``None`` when unknown).  Purged and
      superseded sets are dropped, so they are freed.

    Per row it also keeps the join/leave log the DHI variation counts and
    the cached ``frozenset(N_x)``; the ``hello_updates``/``expirations``
    counters are network-wide.  Per pair the arrays cost 1 + 8 + 8 bytes.

    Expiry is lazy: nothing is dropped until a query purges the row (see
    :meth:`NeighborTable.purge`), so an entry that has gone stale but was
    not purged yet is refreshed by the next HELLO, not re-joined.

    A matrix starts with no columns and :meth:`ensure_column` widens it: a
    network to ``hosts x hosts`` when any host runs HELLO (so HELLO-free
    runs hold no per-pair state), a stand-alone :class:`NeighborTable` on
    each HELLO from a sender beyond its width.
    """

    __slots__ = (
        "default_interval", "timeout_multiplier", "variation_window",
        "columns", "present", "expiry", "two_hop", "changes", "frozen",
        "hello_updates", "expirations",
    )

    def __init__(
        self,
        rows: int,
        default_interval: float,
        timeout_multiplier: float = 2.0,
        variation_window: float = DEFAULT_NV_WINDOW,
    ) -> None:
        if default_interval <= 0:
            raise ValueError(f"default_interval must be > 0, got {default_interval}")
        if timeout_multiplier <= 0:
            raise ValueError(
                f"timeout_multiplier must be > 0, got {timeout_multiplier}"
            )
        self.default_interval = default_interval
        self.timeout_multiplier = timeout_multiplier
        self.variation_window = variation_window
        self.columns = 0
        shape = (rows, 0)
        self.present = np.zeros(shape, dtype=bool)
        self.expiry = np.full(shape, np.inf)
        self.two_hop = np.full(shape, None, dtype=object)
        #: Per row: ``(time, host_id)`` of joins and leaves, pruned to the
        #: variation window.
        self.changes: List[Deque[Tuple[float, int]]] = [
            deque() for _ in range(rows)
        ]
        #: Per row: cached ``frozenset(N_x)``; invalidated on join/leave,
        #: not on refresh.
        self.frozen: List[Optional[FrozenSet[int]]] = [None] * rows
        #: Perf counters (see repro.perf): HELLOs absorbed / entries expired.
        self.hello_updates = 0
        self.expirations = 0

    def table(self, row: int) -> "NeighborTable":
        """The :class:`NeighborTable` view of host ``row``."""
        return NeighborTable._view(self, row)

    def ensure_column(self, host_id: int) -> None:
        """Widen the arrays so column ``host_id`` exists."""
        if host_id < self.columns:
            return
        columns = max(host_id + 1, 2 * self.columns, 8)
        rows = len(self.frozen)
        for name, fill in (("present", False), ("expiry", np.inf),
                           ("two_hop", None)):
            old = getattr(self, name)
            new = np.full((rows, columns), fill, dtype=old.dtype)
            new[:, :self.columns] = old
            setattr(self, name, new)
        self.columns = columns

    def receive_hello(
        self, rows: np.ndarray, hello: HelloPacket, now: float
    ) -> None:
        """One HELLO decoded by every host in ``rows`` (distinct ids) at
        ``now``: the same end state as :meth:`NeighborTable.update_from_hello`
        on each row, written as one column update.  The sender's column
        must exist (:meth:`ensure_column`)."""
        sender = hello.sender_id
        interval = hello.hello_interval
        if interval is None:
            interval = self.default_interval
        self.hello_updates += len(rows)
        known = self.present[rows, sender]
        self.expiry[rows, sender] = now + self.timeout_multiplier * interval
        if hello.neighbor_ids is not None:
            self.two_hop[rows, sender] = hello.neighbor_ids
        if not known.all():
            joined = rows[~known]
            self.present[joined, sender] = True
            changes = self.changes
            frozen = self.frozen
            for row in joined.tolist():
                changes[row].append((now, sender))
                frozen[row] = None


class NeighborTable:
    """Host-local neighbor knowledge built from received HELLOs: a view of
    one row of a :class:`NeighborMatrix`.

    Constructed directly it owns a one-row matrix of its own; a network
    hands each host the view of its row in the shared matrix instead
    (:meth:`NeighborMatrix.table`).
    """

    __slots__ = ("_matrix", "_row")

    def __init__(
        self,
        default_interval: float,
        timeout_multiplier: float = 2.0,
        variation_window: float = DEFAULT_NV_WINDOW,
    ) -> None:
        self._matrix = NeighborMatrix(
            1, default_interval, timeout_multiplier, variation_window
        )
        self._row = 0

    @classmethod
    def _view(cls, matrix: NeighborMatrix, row: int) -> "NeighborTable":
        table = cls.__new__(cls)
        table._matrix = matrix
        table._row = row
        return table

    # ----------------------------------------------------------- updates

    def update_from_hello(self, hello: HelloPacket, now: float) -> None:
        """Process a received HELLO packet."""
        m = self._matrix
        row = self._row
        sender = hello.sender_id
        m.ensure_column(sender)
        m.hello_updates += 1
        interval = hello.hello_interval
        if interval is None:
            interval = m.default_interval
        m.expiry[row, sender] = now + m.timeout_multiplier * interval
        if not m.present[row, sender]:
            m.present[row, sender] = True
            m.changes[row].append((now, sender))
            m.frozen[row] = None
        if hello.neighbor_ids is not None:
            m.two_hop[row, sender] = hello.neighbor_ids

    def purge(self, now: float) -> Set[int]:
        """Drop neighbors not heard within their timeout; returns the dropped ids."""
        m = self._matrix
        row = self._row
        expiry = m.expiry[row]
        if not expiry.size or expiry.min() >= now:
            return set()
        dropped = np.flatnonzero(expiry < now)
        expiry[dropped] = np.inf
        m.present[row, dropped] = False
        m.two_hop[row, dropped] = None
        ids = dropped.tolist()
        changes = m.changes[row]
        for host_id in ids:
            changes.append((now, host_id))
        m.frozen[row] = None
        m.expirations += len(ids)
        return set(ids)

    def clear(self) -> None:
        """Forget every neighbor and the join/leave log (a crash); the
        counters keep counting."""
        m = self._matrix
        row = self._row
        m.present[row] = False
        m.expiry[row] = np.inf
        m.two_hop[row] = None
        m.changes[row].clear()
        m.frozen[row] = None

    # ----------------------------------------------------------- queries

    def neighbor_ids(self, now: Optional[float] = None) -> Set[int]:
        """Current one-hop neighbor set ``N_x`` (purged first if ``now`` given)."""
        return set(self.neighbor_frozenset(now))

    def neighbor_frozenset(self, now: Optional[float] = None) -> FrozenSet[int]:
        """``frozenset(N_x)``, cached across calls until membership changes.

        HELLO piggybacking asks for this set once per HELLO; rebuilding it
        only when a neighbor joined or expired makes the steady-state cost
        O(1) instead of O(|N_x|).
        """
        if now is not None:
            self.purge(now)
        m = self._matrix
        frozen = m.frozen[self._row]
        if frozen is None:
            frozen = m.frozen[self._row] = frozenset(
                np.flatnonzero(m.present[self._row]).tolist()
            )
        return frozen

    def neighbor_count(self, now: Optional[float] = None) -> int:
        """``n = |N_x|``, the input to the adaptive threshold functions."""
        return len(self.neighbor_frozenset(now))

    def count_at(self, now: float) -> int:
        """``n`` as :meth:`neighbor_count` at ``now`` would return it, but
        without purging: a pure read."""
        due = np.count_nonzero(self._matrix.expiry[self._row] < now)
        return len(self.neighbor_frozenset()) - int(due)

    def two_hop_neighbors(self, host_id: int) -> FrozenSet[int]:
        """``N_{x,h}``: the neighbor set ``h`` announced, empty if unknown."""
        m = self._matrix
        if 0 <= host_id < m.columns:
            known = m.two_hop[self._row, host_id]
            if known is not None:
                return known
        return _EMPTY

    def knows(self, host_id: int) -> bool:
        m = self._matrix
        return 0 <= host_id < m.columns and bool(m.present[self._row, host_id])

    def variation(self, now: float) -> float:
        """The paper's ``nv_x`` over the past ``variation_window`` seconds.

        The denominator uses ``max(|N_x|, 1)`` to keep the value defined for
        an isolated host (the paper's formula assumes a non-empty
        neighborhood).
        """
        self.purge(now)
        m = self._matrix
        changes = m.changes[self._row]
        cutoff = now - m.variation_window
        while changes and changes[0][0] < cutoff:
            changes.popleft()
        denom = max(self.neighbor_count(), 1) * m.variation_window
        return len(changes) / denom


def dynamic_hello_interval(
    variation: float,
    nv_max: float = 0.02,
    hi_min: float = 1.0,
    hi_max: float = 10.0,
) -> float:
    """The paper's DHI formula: ``max(hi_min, (nv_max - nv)/nv_max * hi_max)``.

    Variation at or above ``nv_max`` maps to ``hi_min``; zero variation maps
    to ``hi_max``.  Defaults are the paper's simulation values
    (``nv_max = 0.02``, ``hi_min = 1 s``, ``hi_max = 10 s``).
    """
    if nv_max <= 0:
        raise ValueError(f"nv_max must be > 0, got {nv_max}")
    if not 0 < hi_min <= hi_max:
        raise ValueError(f"need 0 < hi_min <= hi_max, got {hi_min}..{hi_max}")
    scaled = (nv_max - variation) / nv_max * hi_max
    return max(hi_min, scaled)
