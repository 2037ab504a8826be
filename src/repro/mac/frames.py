"""MAC-layer frame envelope.

The channel is payload-agnostic; the MAC wraps upper-layer packets in a
:class:`DataFrame`.  Every frame is a broadcast, which IEEE 802.11 never
acknowledges (the paper's Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["DataFrame"]


@dataclass(frozen=True)
class DataFrame:
    """A broadcast data frame on the air."""

    src: int
    payload: Any
    size_bytes: int
