"""Adaptive counter-based scheme (paper Section 3.1 -- first contribution).

Identical to the counter scheme except the threshold is the function
``C(n)`` of the host's *current* neighbor count ``n``: high (``n + 1``) when
the neighborhood is sparse -- a host there is likely at a critical position
and must rebroadcast (Observation 1) -- and the floor value 2 when crowded,
where saving matters more than coverage (Observation 2).

``n`` is re-read from the neighbor table at every threshold test, so a host
whose neighborhood changes mid-wait adapts on the fly.
"""

from __future__ import annotations

from typing import Optional

from repro.schemes.base import PendingBroadcast
from repro.schemes.counter import CounterScheme
from repro.schemes.registry import ParamSpec, register_scheme
from repro.schemes.thresholds import (
    DEFAULT_COUNTER_N1,
    DEFAULT_COUNTER_N2,
    MIDCURVE_SHAPES,
    CounterThresholdFn,
    make_counter_threshold,
)

__all__ = ["AdaptiveCounterScheme"]


@register_scheme(
    params=(
        ParamSpec("threshold_fn", "callable",
                  doc="explicit C(n) (default: the paper's tuned curve)"),
        ParamSpec("n1", "int", minimum=1,
                  doc=f"end of the C(n) = n + 1 rise "
                      f"(default {DEFAULT_COUNTER_N1})"),
        ParamSpec("n2", "int", minimum=2,
                  doc=f"start of the floor C = 2 "
                      f"(default {DEFAULT_COUNTER_N2})"),
        ParamSpec("shape", "str", choices=MIDCURVE_SHAPES,
                  doc="mid-curve shape between n1 and n2 "
                      "(default 'linear')"),
    ),
    description="counter scheme with adaptive threshold C(n)",
    origin="this paper",
)
class AdaptiveCounterScheme(CounterScheme):
    """Counter scheme with threshold ``C(n)``.

    Pass either an explicit ``threshold_fn`` or the scalar curve knobs
    ``(n1, n2, shape)`` -- the latter are sweepable from campaign specs and
    ``--scheme-param``; combining both is an error.
    """

    name = "adaptive-counter"
    needs_hello = True

    def __init__(
        self,
        threshold_fn: Optional[CounterThresholdFn] = None,
        n1: Optional[int] = None,
        n2: Optional[int] = None,
        shape: Optional[str] = None,
    ) -> None:
        # Bypass CounterScheme's constant-threshold validation: we override
        # every use of ``self.threshold`` with the function below.
        super().__init__(threshold=2)
        if threshold_fn is not None and not (n1 is n2 is shape is None):
            raise ValueError(
                "pass either threshold_fn or the curve knobs "
                "(n1, n2, shape), not both"
            )
        if threshold_fn is None:
            threshold_fn = make_counter_threshold(
                n1 if n1 is not None else DEFAULT_COUNTER_N1,
                n2 if n2 is not None else DEFAULT_COUNTER_N2,
                shape if shape is not None else "linear",
            )
        self.threshold_fn = threshold_fn

    def describe(self) -> str:
        label = getattr(self.threshold_fn, "label", "C(n)")
        return f"AC[{label}]"

    def should_inhibit(self, state: PendingBroadcast) -> bool:
        n = self.host.neighbor_count()
        return state.assessment[0] >= self.threshold_fn(n)

    def trace_provenance(self, state: PendingBroadcast):
        n = self.host.neighbor_count(purge=False)
        return (n, self.threshold_fn(n), state.assessment[0])
