"""The opt-in trace sink the instrumented layers append to.

Design constraints (the tentpole's "zero-cost-when-off, cheap-when-on"):

- **Off**: every instrumentation site is guarded by a single
  ``trace is not None`` check on an attribute-loaded local; no recorder
  object exists, no call is made, and the simulation is bit-identical to
  an uninstrumented tree (covered by the golden determinism suite).
- **On**: hot sites append **bare tuples** ``(time, category, *values)``
  directly onto :attr:`TraceRecorder.records` -- no dict building, no
  method call, no formatting.  Field names live in
  :data:`repro.trace.schema.SCHEMA`; :meth:`TraceRecorder.as_dicts`
  expands records for exporters, the analyzer and tests.

Timestamps are **simulation time** (seconds); no wall-clock value ever
enters a record, so a traced run is deterministic: same seed, same records.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.trace.schema import SCHEMA, record_to_dict

__all__ = ["TraceRecorder", "frame_ident"]


def frame_ident(frame: Any) -> Tuple[str, int, int, int]:
    """``(kind, src, seq, hops)`` identity of any on-air frame.

    Unwraps MAC :class:`~repro.mac.frames.DataFrame` envelopes via their
    ``payload`` attribute and duck-types the payload, so the channel can
    trace without importing the net layer: broadcast copies report their
    global key and hop count, HELLOs their sender, anything else its
    lowered class name with ``(-1, -1)``.
    """
    payload = getattr(frame, "payload", frame)
    src = getattr(payload, "source_id", None)
    if src is not None:
        return ("bcast", src, payload.seq, payload.hops)
    sender = getattr(payload, "sender_id", None)
    if sender is not None:
        return ("hello", sender, -1, 0)
    return (type(payload).__name__.lower(), -1, -1, 0)


class TraceRecorder:
    """Collects structured trace records from one simulation run.

    Pass an instance as the ``trace`` argument of
    :func:`repro.experiments.runner.run_broadcast_simulation`; afterwards
    export with :mod:`repro.trace.export` or analyze with
    :mod:`repro.trace.analyze`.

    ``sample_dt`` (seconds) arms the time-series sampler; ``None`` or 0
    disables it, leaving the traced run's scheduler event count identical
    to an untraced run.
    """

    __slots__ = ("records", "sample_dt", "meta")

    def __init__(self, sample_dt: Optional[float] = None) -> None:
        if sample_dt is not None and not (
            math.isfinite(sample_dt) and sample_dt >= 0
        ):
            raise ValueError(
                f"sample_dt must be a finite number >= 0, got {sample_dt}"
            )
        #: Raw record tuples ``(time, category, *values)`` in emission
        #: order (which is simulation-time order).
        self.records: List[tuple] = []
        self.sample_dt = sample_dt or None
        #: Run metadata (scheme, seed, ...) filled in by the runner;
        #: exported as the JSONL header / Chrome trace metadata.
        self.meta: Dict[str, Any] = {}

    # ------------------------------------------------------------ emission

    def emit(self, time: float, category: str, **fields: Any) -> None:
        """Keyword-style emission: ``emit(time, category, **fields)``.

        Hot paths bypass this and append tuples directly; ``emit`` is for
        cold sites and tests.  Unknown categories or fields raise.
        """
        order = SCHEMA.get(category)
        if order is None:
            raise ValueError(f"unknown trace category {category!r}")
        extra = set(fields) - set(order)
        if extra:
            raise ValueError(
                f"{category}: unknown fields {sorted(extra)} "
                f"(schema: {order})"
            )
        self.records.append(
            (time, category) + tuple(fields.get(name) for name in order)
        )

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.records)

    def count(self, category: str) -> int:
        return sum(1 for r in self.records if r[1] == category)

    def filter(self, category: str) -> List[tuple]:
        """Raw record tuples of one category, in order."""
        return [r for r in self.records if r[1] == category]

    def as_dicts(
        self, category: Optional[str] = None
    ) -> Iterator[Dict[str, Any]]:
        """Records expanded to dicts via the schema (optionally filtered)."""
        for record in self.records:
            if category is None or record[1] == category:
                yield record_to_dict(record)

    def categories(self) -> Dict[str, int]:
        """Category -> record count histogram."""
        out: Dict[str, int] = {}
        for record in self.records:
            out[record[1]] = out.get(record[1], 0) + 1
        return out

    def clear(self) -> None:
        self.records.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder({len(self.records)} records, "
            f"sample_dt={self.sample_dt})"
        )
