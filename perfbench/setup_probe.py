"""Set-up cost in a fresh interpreter: import the program, build one world.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED TINY MODULE...

Imports each MODULE (timed as ``import_s``), then builds the world of the
workload's first scenario the way ``run_broadcast_simulation`` does and
stops before the simulation starts (timed as ``build_s``).  Prints one JSON
object with both times.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path


class _Built(Exception):
    """Raised from the network hook: the world is built, stop there."""


def _stop(network) -> None:
    raise _Built


def main(argv: list) -> int:
    workload, seed, tiny, modules = argv[0], int(argv[1]), argv[2] == "1", argv[3:]
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]

    start = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - start

    from repro.experiments.runner import run_broadcast_simulation

    from perfbench.workloads import build

    config = build(workload, seed, tiny=tiny).scenarios[0].config
    start = time.perf_counter()
    try:
        run_broadcast_simulation(config, network_hook=_stop)
    except _Built:
        pass
    else:
        raise RuntimeError("the network hook never ran")
    build_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "build_s": build_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
