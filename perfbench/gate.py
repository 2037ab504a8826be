"""Correctness gate: per-run fingerprints and the failure tally.

A fingerprint is the part of a result that pins its behaviour:
``events_processed``, ``transmissions``, ``hellos`` and the exact RE, SRB
and latency (floats as ``repr`` strings, so NaN compares equal to NaN).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["Gate", "fingerprint", "load_goldens", "GOLDENS_PATH"]

GOLDENS_PATH = Path(__file__).with_name("fingerprints.json")


def fingerprint(result: Any) -> Dict[str, Any]:
    return {
        "events_processed": result.events_processed,
        "transmissions": result.channel_stats.transmissions,
        "hellos": result.hellos,
        "re": repr(result.re),
        "srb": repr(result.srb),
        "latency": repr(result.latency),
    }


def load_goldens(workload: str) -> Dict[str, Dict[str, Any]]:
    """Recorded fingerprints of ``workload`` at the default seed."""
    with GOLDENS_PATH.open() as fh:
        return json.load(fh)[workload]


class Gate:
    """Counts runs attempted and failed, with the reason for each failure.

    ``goldens`` (scenario key -> fingerprint) pins every run of a scenario
    it names.  Without goldens the first fingerprint seen for a key becomes
    the reference, so repeats of one scenario must agree with each other.
    """

    def __init__(self, goldens: Optional[Dict[str, Dict[str, Any]]] = None) -> None:
        self.goldens = goldens
        self.seen: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def fail(self, key: str, reason: str) -> None:
        self.attempted += 1
        self.failures.append(f"{key}: {reason}")

    def check(self, key: str, result: Any) -> bool:
        """Count one run of scenario ``key``; ``False`` if it failed."""
        self.attempted += 1
        fp = fingerprint(result)
        if self.goldens is not None:
            expected = self.goldens.get(key)
            if expected is None:
                self.failures.append(f"{key}: no recorded fingerprint")
                return False
        else:
            expected = self.seen.setdefault(key, fp)
        if fp != expected:
            self.failures.append(f"{key}: fingerprint {fp} != {expected}")
            return False
        return True
