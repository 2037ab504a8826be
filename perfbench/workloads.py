"""The benchmark's workloads: generated scenarios and how one round runs.

Every workload is a closed loop driven from this process.  A round is the
workload's full scenario list; ``figure-sweep`` runs it through
``ParallelRunner`` (cold pass, then warm pass over the same fresh cache),
the others call ``run_broadcast_simulation`` one scenario after another.
The workload seed only chooses the scenarios' seeds; the program sees
nothing but the generated ``ScenarioConfig``s.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import SimulationResult, run_broadcast_simulation
from repro.net.host import HelloConfig

from perfbench import spans
from perfbench.gate import Gate

__all__ = [
    "Scenario",
    "Workload",
    "Round",
    "build",
    "run_round",
    "pool_workers",
    "FIG13_LINEUP",
]

#: Environment variable naming the directory pool workers write their
#: per-run layer totals to during a traced figure-sweep round.
LAYER_DIR_ENV = "PERFBENCH_LAYER_DIR"


def _dhi() -> HelloConfig:
    return HelloConfig(dynamic=True, nv_max=0.02, hi_min=1.0, hi_max=10.0)


#: The paper's Fig. 13 comparison: label -> (scheme, params, hello config).
#: Pinned here, not imported from repro.experiments.figures.fig13, so that
#: a change to the program's figure module cannot change the benchmark's
#: inputs.
FIG13_LINEUP: Dict[str, Tuple[str, dict, HelloConfig]] = {
    "C=2": ("counter", {"threshold": 2}, HelloConfig()),
    "C=6": ("counter", {"threshold": 6}, HelloConfig()),
    "AC": ("adaptive-counter", {}, HelloConfig()),
    "A=0.1871": ("location", {"threshold": 0.1871}, HelloConfig()),
    "A=0.0134": ("location", {"threshold": 0.0134}, HelloConfig()),
    "AL": ("adaptive-location", {}, HelloConfig()),
    "NC-DHI": ("neighbor-coverage", {}, _dhi()),
    "flooding": ("flooding", {}, HelloConfig()),
}


@dataclass(frozen=True)
class Scenario:
    key: str
    config: ScenarioConfig


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: Tuple[Scenario, ...]
    #: Through ParallelRunner with a fresh temporary cache (figure-sweep).
    pooled: bool = False

    def traced(self) -> "Workload":
        """Every second scenario, the share a traced run covers: tracing
        slows a run two- to threefold, and a run must stay short."""
        return replace(self, scenarios=self.scenarios[::2])

    @property
    def imports(self) -> Tuple[str, ...]:
        """Modules the workload's program path imports (setup_s)."""
        if self.pooled:
            return ("repro", "repro.experiments.parallel")
        return ("repro",)


def _paper_hello(seed: int, tiny: bool) -> List[Scenario]:
    # Map 7 fills the gap between the sparse (9, 11) and dense (1, 5) maps,
    # so run times spread out instead of forming two clusters whose border
    # moves a lot with the seed.
    maps = (1, 5) if tiny else (1, 5, 7, 9, 11)
    hosts, broadcasts, reps = (20, 3, 1) if tiny else (100, 34, 2)
    # Repeats of one combination are a whole pass apart, so a slow spell of
    # the host does not land on every run of that combination.
    combos = [(label, m) for _ in range(reps)
              for label in ("AC", "AL", "NC-DHI") for m in maps]
    out = []
    # Distinct seeds per scenario: a run's HELLO work follows its simulated
    # duration, which the traffic seed sets, so one shared seed would move
    # every scenario of a round the same way.
    for i, (label, m) in enumerate(combos):
        scheme, params, hello = FIG13_LINEUP[label]
        s = (seed - 1) * len(combos) + i + 1
        out.append(Scenario(f"{label}@{m}/seed{s}", ScenarioConfig(
            scheme=scheme, scheme_params=params, hello=hello, map_units=m,
            num_hosts=hosts, num_broadcasts=broadcasts, seed=s)))
    return out


def _flood_dense(seed: int, tiny: bool) -> List[Scenario]:
    n, hosts = (2, 60) if tiny else (32, 1000)
    return [
        Scenario(f"flooding-{hosts}@1/seed{s}", ScenarioConfig(
            scheme="flooding", map_units=1, num_hosts=hosts,
            num_broadcasts=3, seed=s))
        for s in range((seed - 1) * n + 1, seed * n + 1)
    ]


def _figure_sweep(seed: int, tiny: bool) -> List[Scenario]:
    labels = ("AC", "flooding") if tiny else tuple(FIG13_LINEUP)
    maps = (1, 3) if tiny else (1, 3, 5, 7, 9, 11)
    hosts, broadcasts, reps = (20, 2, 2) if tiny else (100, 10, 4)
    out = []
    for label in labels:
        scheme, params, hello = FIG13_LINEUP[label]
        for m in maps:
            for s in range((seed - 1) * reps + 1, seed * reps + 1):
                out.append(Scenario(f"{label}@{m}/seed{s}", ScenarioConfig(
                    scheme=scheme, scheme_params=params, hello=hello,
                    map_units=m, num_hosts=hosts,
                    num_broadcasts=broadcasts, seed=s)))
    return out


_BUILDERS = {
    "paper-hello": _paper_hello,
    "flood-dense": _flood_dense,
    "figure-sweep": _figure_sweep,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Workload ``name``'s scenarios for ``seed`` (``tiny`` for tests)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r} (choose from "
                         f"{', '.join(_BUILDERS)})")
    if seed < 1:
        raise ValueError(f"seed must be >= 1, got {seed}")
    return Workload(name, tuple(_BUILDERS[name](seed, tiny)),
                    pooled=name == "figure-sweep")


def pool_workers() -> int:
    return min(2, os.cpu_count() or 1)


@dataclass
class Round:
    """One pass over a workload's scenarios."""

    wall_s: float = 0.0
    #: Simulated results in scenario order (cold pass for figure-sweep).
    results: List[SimulationResult] = field(default_factory=list)
    #: Per-run wall seconds (benchmark timer, or cold wall_time).
    run_walls: List[float] = field(default_factory=list)
    #: Broadcast requests completed by every result returned.
    broadcasts: int = 0
    #: figure-sweep only: cold-pass wall and mean cache entry size.
    cold_wall_s: float = 0.0
    entry_bytes: float = 0.0


def run_round(
    workload: Workload,
    gate: Gate,
    clock: Optional[spans.LayerClock] = None,
    scratch: Optional[Path] = None,
) -> Round:
    """Run every scenario once, checking each result with ``gate``.

    With ``clock`` (spans installed) each simulation is a ``runner`` span;
    pooled workers send their totals back through files in ``scratch``.
    """
    if workload.pooled:
        return _run_pooled(workload, gate, clock, scratch)
    simulate = run_broadcast_simulation
    if clock is not None:
        simulate = clock.wrap("runner", run_broadcast_simulation)
    rnd = Round()
    start = time.perf_counter()
    for scenario in workload.scenarios:
        t0 = time.perf_counter()
        try:
            result = simulate(scenario.config)
        except Exception as exc:  # a raising run counts as failed
            gate.fail(scenario.key, f"raised {exc!r}")
            continue
        wall = time.perf_counter() - t0
        if gate.check(scenario.key, result):
            rnd.results.append(result)
            rnd.run_walls.append(wall)
            rnd.broadcasts += result.stats.broadcasts
    rnd.wall_s = time.perf_counter() - start
    return rnd


def traced_run_config(config: ScenarioConfig) -> SimulationResult:
    """Pool-worker entry point during a traced round: one simulation as a
    ``runner`` span, its layer totals appended to a per-process file."""
    inst = spans.active() or spans.install()
    clock = inst.clock
    clock.reset()  # a forked worker inherits the parent's totals
    result = clock.wrap("runner", run_broadcast_simulation)(config)
    path = Path(os.environ[LAYER_DIR_ENV]) / f"layers-{os.getpid()}.jsonl"
    with path.open("a") as fh:
        fh.write(json.dumps(clock.snapshot()) + "\n")
    return result


def _run_pooled(
    workload: Workload,
    gate: Gate,
    clock: Optional[spans.LayerClock],
    scratch: Optional[Path],
) -> Round:
    from repro.experiments import parallel

    configs = [s.config for s in workload.scenarios]
    workers = pool_workers()
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
    layer_dir = cache_dir / "layers"
    saved_entry = parallel._run_config
    if clock is not None:
        layer_dir.mkdir()
        os.environ[LAYER_DIR_ENV] = str(layer_dir)
        parallel._run_config = traced_run_config
    rnd = Round()
    try:
        start = time.perf_counter()
        try:
            cold = parallel.ParallelRunner(
                max_workers=workers, cache_dir=cache_dir / "results"
            ).run_many(configs)
            rnd.cold_wall_s = time.perf_counter() - start
            warm = parallel.ParallelRunner(
                max_workers=workers, cache_dir=cache_dir / "results"
            ).run_many(configs)
        except Exception as exc:  # the whole round failed
            for scenario in workload.scenarios:
                gate.fail(scenario.key, f"round raised {exc!r}")
                gate.fail(scenario.key, "warm pass not reached")
            rnd.wall_s = time.perf_counter() - start
            return rnd
        rnd.wall_s = time.perf_counter() - start
        entries = list((cache_dir / "results").glob("*.pkl"))
        rnd.entry_bytes = (
            sum(p.stat().st_size for p in entries) / len(entries)
            if entries else 0.0
        )
        for scenario, c, w in zip(workload.scenarios, cold, warm):
            if gate.check(scenario.key, c):
                rnd.results.append(c)
                rnd.run_walls.append(c.wall_time)
                rnd.broadcasts += c.stats.broadcasts
            if not w.from_cache or w != c:
                gate.fail(scenario.key, "warm result differs from cold")
            elif gate.check(scenario.key, w):
                rnd.broadcasts += w.stats.broadcasts
        if clock is not None:
            for path in layer_dir.glob("*.jsonl"):
                for line in path.read_text().splitlines():
                    clock.merge(json.loads(line))
    finally:
        parallel._run_config = saved_entry
        os.environ.pop(LAYER_DIR_ENV, None)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return rnd
