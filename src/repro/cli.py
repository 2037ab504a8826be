"""Command-line interface.

Subcommands::

    repro-manet run --scheme adaptive-counter --map 9 --broadcasts 100
    repro-manet run --scheme gossip --scheme-param p=0.6
    repro-manet figure fig07 --broadcasts 50 --maps 3 7 11
    repro-manet sweep --schemes flooding counter --maps 1 5 9
    repro-manet schemes -v
    repro-manet campaign run sweep.toml --dir campaigns/ --jobs 4
    repro-manet serve --port 8642 --cache-dir .repro-cache
    repro-manet cache stats --cache-dir .repro-cache
    repro-manet bench record BENCH_kernel.json --history bench_history.jsonl
    repro-manet bench check --history bench_history.jsonl --threshold 0.2

``run`` executes a single scenario and prints its summary line; ``figure``
regenerates one of the paper's figures (fig01, fig02, fig05a-d, fig07,
fig09, fig10, fig11, fig12, fig13) as a text table.

``figure`` and ``sweep`` accept ``--jobs N`` to fan independent runs
across N worker processes (results stay bit-identical to ``--jobs 1``)
and ``--cache-dir DIR`` to reuse finished runs across invocations;
``--no-cache`` forces fresh simulation even when a cache dir is set.

``campaign plan|run|status`` expands a declarative sweep spec into a
resumable, checkpointed campaign (SIGTERM/Ctrl-C mid-flight exits with
code 3 and ``campaign run`` later resumes without re-simulating);
``serve`` starts the async HTTP result service; ``cache`` inspects,
prunes or clears the shared on-disk result cache; ``bench record|check``
turns ``BENCH_*.json`` documents into a ``bench_history.jsonl``
trajectory and gates CI on throughput regressions against its rolling
baseline (see :mod:`repro.telemetry.bench`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import (
    fig01,
    fig02,
    fig05,
    fig07,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
)
from repro.experiments.runner import run_broadcast_simulation
from repro.net.host import HelloConfig
from repro.schemes import SCHEME_REGISTRY

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-manet",
        description="Reproduction of the adaptive broadcast-storm schemes "
        "(Tseng, Ni & Shih, ICDCS 2001 / IEEE TC 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single scenario")
    run_p.add_argument(
        "--scheme", default="adaptive-counter", choices=sorted(SCHEME_REGISTRY)
    )
    run_p.add_argument("--map", type=int, default=5, dest="map_units",
                       help="map side in 500 m units (paper: 1..11)")
    run_p.add_argument("--hosts", type=int, default=100)
    run_p.add_argument("--broadcasts", type=int, default=100)
    run_p.add_argument("--speed", type=float, default=None,
                       help="max host speed km/h (default: 10 per map unit)")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--counter-threshold", type=int, default=None)
    run_p.add_argument("--location-threshold", type=float, default=None)
    _add_scheme_param_arg(run_p)
    run_p.add_argument("--hello-interval", type=float, default=1.0)
    run_p.add_argument("--dynamic-hello", action="store_true")
    run_p.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="fault plan: ';'-separated clauses "
        "(crash:host=3,at=5,recover=12 / mute:host=1,at=2,until=8 / "
        "churn:rate=0.01,downtime=5 / loss:p=0.1 / "
        "ge:p=0.05,r=0.5,bad=0.8), or @plan.json",
    )
    run_p.add_argument(
        "--fault-windows", action="store_true",
        help="with --faults: also print per-fault-window RE/SRB",
    )
    _add_profile_arg(run_p)
    run_p.add_argument(
        "--perf", action="store_true",
        help="also print the run's kernel counters "
        "(events, cancellations, collisions, hit rates, ...) and its cost "
        "(wall time, peak RSS, GC collections)",
    )
    run_p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a structured packet-lifecycle trace to PATH",
    )
    run_p.add_argument(
        "--trace-format", choices=["jsonl", "chrome"], default="jsonl",
        help="trace file format: line-delimited JSON records, or "
        "Chrome trace-event JSON loadable in Perfetto (default: jsonl)",
    )
    run_p.add_argument(
        "--sample-dt", type=float, default=None, metavar="SECONDS",
        help="with --trace: also sample channel/queue/host telemetry "
        "every SECONDS of simulation time",
    )

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument(
        "name",
        choices=[
            "fig01", "fig02", "fig05a", "fig05b", "fig05c", "fig05d",
            "fig07", "fig09", "fig10", "fig11", "fig12", "fig13",
        ],
    )
    fig_p.add_argument("--broadcasts", type=int, default=50)
    fig_p.add_argument("--seed", type=int, default=1)
    fig_p.add_argument("--maps", type=int, nargs="+", default=None,
                       help="map sizes to sweep (default: the paper's grid)")
    fig_p.add_argument("--chart", action="store_true",
                       help="also render an ASCII chart of RE per series")
    fig_p.add_argument("--csv", metavar="PATH", default=None,
                       help="write the series to a CSV file")
    _add_exec_args(fig_p)
    _add_profile_arg(fig_p)

    sweep_p = sub.add_parser(
        "sweep", help="run a scheme x map grid and print RE/SRB"
    )
    sweep_p.add_argument("--schemes", nargs="+",
                         default=["flooding", "adaptive-counter"],
                         choices=sorted(SCHEME_REGISTRY))
    _add_scheme_param_arg(sweep_p)
    sweep_p.add_argument("--maps", type=int, nargs="+", default=[1, 5, 9])
    sweep_p.add_argument("--hosts", type=int, default=100)
    sweep_p.add_argument("--broadcasts", type=int, default=30)
    sweep_p.add_argument("--seeds", type=int, nargs="+", default=[1],
                         help="multiple seeds aggregate with a 95%% CI")
    sweep_p.add_argument("--json", metavar="PATH", default=None,
                         help="also dump every run to a JSON file")
    _add_exec_args(sweep_p)

    schemes_p = sub.add_parser(
        "schemes", help="list every registered scheme and its parameters"
    )
    schemes_p.add_argument(
        "--verbose", "-v", action="store_true",
        help="also print each parameter's type, default and range",
    )

    camp_p = sub.add_parser(
        "campaign",
        help="plan / run / inspect a resumable sweep campaign",
    )
    camp_sub = camp_p.add_subparsers(dest="campaign_command", required=True)

    plan_p = camp_sub.add_parser(
        "plan", help="expand a spec and print the run table (no execution)"
    )
    plan_p.add_argument("spec", help="campaign spec file (.toml or .json)")
    plan_p.add_argument("--limit", type=int, default=20, metavar="N",
                        help="show at most N runs (default 20; 0 = all)")

    crun_p = camp_sub.add_parser(
        "run", help="execute (or resume) a campaign from its spec"
    )
    crun_p.add_argument("spec", help="campaign spec file (.toml or .json)")
    crun_p.add_argument("--dir", dest="directory", metavar="DIR", default=None,
                        help="campaign directory (default: "
                        "campaigns/<campaign-id>)")
    crun_p.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = one per CPU core)")
    crun_p.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result cache (default: <dir>/cache; share one "
                        "across campaigns to dedup overlapping grids)")
    crun_p.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N", help="flush the progress checkpoint "
                        "every N runs (default: 2x jobs, min 4)")
    crun_p.add_argument("--quiet", action="store_true",
                        help="no per-run progress lines")
    crun_p.add_argument("--resources", action="store_true",
                        help="add an aggregate resources block (peak RSS, "
                        "GC collections, wall time) to results.json; "
                        "opt-in because it makes the file depend on the "
                        "host machine, forfeiting resume byte-identity")

    cstat_p = camp_sub.add_parser(
        "status", help="print a campaign directory's progress"
    )
    cstat_p.add_argument("directory", metavar="DIR")

    serve_p = sub.add_parser(
        "serve", help="start the async HTTP result service"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 = pick a free one)")
    serve_p.add_argument("--cache-dir", metavar="DIR", default=".repro-cache",
                         help="result cache served by GET /results/<digest>")
    serve_p.add_argument("--campaigns", metavar="ROOT", default=None,
                         help="directory of campaign dirs to expose under "
                         "/campaigns")
    serve_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for queued runs "
                         "(0 = one per CPU core)")

    cache_p = sub.add_parser(
        "cache", help="inspect / prune / clear the on-disk result cache"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry count, size and age span"),
        ("prune", "evict entries by age and/or LRU size bound"),
        ("clear", "delete every entry"),
    ):
        p = cache_sub.add_parser(name, help=help_text)
        p.add_argument("--cache-dir", metavar="DIR", required=True)
        if name == "prune":
            p.add_argument("--max-bytes", metavar="SIZE", default=None,
                           help="keep at most SIZE total (e.g. 500M, 2G); "
                           "least recently used entries go first")
            p.add_argument("--max-age", metavar="AGE", default=None,
                           help="drop entries unused for AGE (e.g. 36h, 7d)")

    bench_p = sub.add_parser(
        "bench",
        help="track BENCH_*.json measurements over time and gate regressions",
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    brec_p = bench_sub.add_parser(
        "record", help="append a BENCH_*.json snapshot to the history"
    )
    brec_p.add_argument("bench", metavar="BENCH_JSON",
                        help="benchmark document (e.g. BENCH_kernel.json)")
    brec_p.add_argument("--history", metavar="PATH",
                        default="bench_history.jsonl",
                        help="history file to append to "
                        "(default: bench_history.jsonl)")
    brec_p.add_argument("--name", default=None,
                        help="bench name for the entry "
                        "(default: inferred from the filename)")
    bchk_p = bench_sub.add_parser(
        "check",
        help="diff the newest history entry against its rolling baseline; "
        "exits 1 when a gated metric regressed",
    )
    bchk_p.add_argument("--history", metavar="PATH",
                        default="bench_history.jsonl")
    bchk_p.add_argument("--name", default=None,
                        help="only consider entries for this bench name")
    bchk_p.add_argument("--threshold", type=float, default=0.2,
                        metavar="FRAC",
                        help="regression threshold as a fraction below the "
                        "baseline (default 0.2 = 20%%)")
    bchk_p.add_argument("--window", type=int, default=5, metavar="N",
                        help="rolling baseline = median of the previous N "
                        "entries (default 5)")
    return parser


def _add_scheme_param_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scheme-param", action="append", default=None, metavar="KEY=VALUE",
        dest="scheme_param",
        help="set a scheme constructor parameter (repeatable; values are "
        "coerced and range-checked against the scheme's schema -- see "
        "'repro-manet schemes -v')",
    )


def _parse_scheme_params(scheme: str, pairs) -> dict:
    """``--scheme-param KEY=VALUE`` pairs -> a schema-validated dict."""
    from repro.schemes import get_spec

    spec = get_spec(scheme)
    params = {}
    for pair in pairs or ():
        key, sep, text = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"error: --scheme-param expects KEY=VALUE, got {pair!r}"
            )
        if key not in spec.param_names:
            raise SystemExit(
                f"error: scheme {scheme!r} has no parameter {key!r} "
                f"(accepted: {spec.accepted_parameters()})"
            )
        try:
            params[key] = spec.param(key).coerce(text)
        except ValueError as exc:
            raise SystemExit(f"error: --scheme-param {pair!r}: {exc}")
    errors = spec.validate_params(params)
    if errors:
        raise SystemExit(f"error: scheme {scheme!r}: " + "; ".join(errors))
    return params


def _schemes_cmd(args: argparse.Namespace) -> int:
    flags_of = lambda spec: ",".join(
        flag for flag, on in (
            ("hello", spec.needs_hello),
            ("2hop", spec.needs_two_hop_hello),
            ("gps", spec.needs_position),
        ) if on
    ) or "-"
    print(
        f"{'name':<18} {'default':<22} {'needs':<15} {'origin':<10} "
        "description"
    )
    for name, spec in SCHEME_REGISTRY.items():
        print(
            f"{name:<18} {spec.build().describe():<22} "
            f"{flags_of(spec):<15} {spec.origin:<10} {spec.description}"
        )
        if args.verbose:
            for param in spec.params:
                line = f"    {param.describe()}"
                if param.doc:
                    line += f"  -- {param.doc}"
                print(line)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_profile_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile", type=_positive_int, nargs="?", const=25, default=None,
        metavar="N",
        help="profile the command with cProfile and print the top N "
        "functions (default 25) by cumulative and internal time",
    )


def _add_exec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default 1 = sequential; "
                   "0 = one per CPU core)")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="reuse finished runs from this on-disk result cache")
    p.add_argument("--no-cache", action="store_true",
                   help="always simulate, even when --cache-dir is set")


def _make_executor(args: argparse.Namespace):
    from repro.experiments.parallel import ParallelRunner

    if args.jobs < 0:
        raise SystemExit(f"error: --jobs must be >= 0, got {args.jobs}")
    return ParallelRunner(
        max_workers=None if args.jobs == 0 else args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )


def _print_perf(runner) -> None:
    perf = runner.perf
    print(
        f"\n[perf] runs={perf.runs} simulated={perf.simulated} "
        f"cache_hits={perf.cache_hits} ({perf.cache_hit_rate:.0%}) "
        f"events/sec={perf.events_per_sec:,.0f} wall={perf.wall_time:.2f}s"
    )


def _render_extras(result, args) -> None:
    """Optional chart / CSV output for a FigureResult."""
    if getattr(args, "chart", False):
        from repro.viz import line_chart

        series = {
            name: [(float(p.x), p.re) for p in points]
            for name, points in result.series.items()
        }
        print()
        print(line_chart(series, title=f"{result.figure} (RE)",
                         y_range=(0.0, 1.0)))
    if getattr(args, "csv", None):
        from repro.experiments.io import write_figure_csv

        write_figure_csv(result, args.csv)
        print(f"\nwrote {args.csv}")


def _run_single(args: argparse.Namespace) -> int:
    params = {}
    if args.counter_threshold is not None:
        params["threshold"] = args.counter_threshold
    if args.location_threshold is not None:
        params["threshold"] = args.location_threshold
    params.update(_parse_scheme_params(args.scheme, args.scheme_param))
    hello = HelloConfig(interval=args.hello_interval, dynamic=args.dynamic_hello)
    faults = None
    if args.faults is not None:
        from repro.faults import FaultPlan

        try:
            faults = FaultPlan.parse(args.faults)
        except (ValueError, OSError) as exc:
            print(f"error: invalid --faults spec: {exc}", file=sys.stderr)
            return 2
    config = ScenarioConfig(
        scheme=args.scheme,
        scheme_params=params,
        map_units=args.map_units,
        num_hosts=args.hosts,
        num_broadcasts=args.broadcasts,
        max_speed_kmh=args.speed,
        hello=hello,
        seed=args.seed,
        faults=faults,
    )
    trace = None
    if args.trace is not None:
        from repro.trace import TraceRecorder

        # Fail on a bad sampling step or an unwritable destination now,
        # not after the whole simulation has run.
        try:
            trace = TraceRecorder(sample_dt=args.sample_dt)
        except ValueError as exc:
            print(f"error: --sample-dt: {exc}", file=sys.stderr)
            return 2
        try:
            with open(args.trace, "a"):
                pass
        except OSError as exc:
            print(f"error: cannot write --trace file: {exc}", file=sys.stderr)
            return 2
    elif args.sample_dt is not None:
        print("error: --sample-dt requires --trace", file=sys.stderr)
        return 2
    if args.profile is not None:
        from repro.perf import format_profile, profiled

        with profiled() as prof:
            result = run_broadcast_simulation(config, trace=trace)
        print(format_profile(prof, top_n=args.profile))
    else:
        result = run_broadcast_simulation(config, trace=trace)
    print(result.summary())
    if trace is not None:
        if args.trace_format == "chrome":
            from repro.trace import write_chrome_trace

            count = write_chrome_trace(trace, args.trace)
            print(
                f"wrote {count} trace events to {args.trace} "
                "(load at https://ui.perfetto.dev)"
            )
        else:
            from repro.trace import write_jsonl

            count = write_jsonl(trace, args.trace)
            print(
                f"wrote {count} trace records to {args.trace} "
                f"(analyze: python -m repro.trace.analyze {args.trace})"
            )
    if getattr(args, "perf", False) and result.perf is not None:
        print("\nkernel counters:")
        for name, value in result.perf.as_dict().items():
            print(f"  {name:<22} {value:>12,}")
        print(f"  {'pos_hit_rate':<22} {result.perf.pos_hit_rate:>12.1%}")
        print(f"  {'events_per_sec':<22} {result.events_per_sec:>12,.0f}")
        print(f"  {'wall_time':<22} {result.wall_time:>11.3f}s")
        print(f"  {'peak_rss_bytes':<22} {result.peak_rss_bytes:>12,}")
        print(f"  {'gc_collections':<22} {result.gc_collections:>12,}")
    if getattr(args, "fault_windows", False) and result.fault_trace:
        print("\nfault trace:")
        for event in result.fault_trace:
            print(f"  t={event.time:9.3f}  {event.kind:<12} host {event.host_id}")
        print("\nper-fault-window RE/SRB:")
        for window in result.metrics.fault_window_summary(result.end_time):
            row = window.row()
            print(
                f"  [{row['start']:9.3f}, {row['end']:9.3f})  "
                f"RE={row['re']:.3f}  SRB={row['srb']:.3f}  "
                f"broadcasts={window.broadcasts}"
            )
    return 0


def _show(result, args, metrics=("re", "srb")) -> None:
    print(result.table(metrics=metrics))
    _render_extras(result, args)


def _run_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures.common import set_default_executor

    runner = _make_executor(args)
    previous = set_default_executor(runner)
    try:
        if args.profile is not None:
            from repro.perf import format_profile, profiled

            with profiled() as prof:
                _dispatch_figure(args)
            print(format_profile(prof, top_n=args.profile))
        else:
            _dispatch_figure(args)
    finally:
        set_default_executor(previous)
    if runner.perf.runs:
        _print_perf(runner)
    return 0


def _dispatch_figure(args: argparse.Namespace) -> None:
    n = args.broadcasts
    seed = args.seed
    maps = tuple(args.maps) if args.maps else None

    def kw(**extra):
        out = {"num_broadcasts": n, "seed": seed}
        if maps:
            out["maps"] = maps
        out.update(extra)
        return out

    name = args.name
    if name == "fig01":
        print(fig01.format_table(fig01.run(seed=seed)))
    elif name == "fig02":
        print(fig02.format_table(fig02.run(seed=seed)))
    elif name == "fig05a":
        _show(fig05.run_5a(**kw()), args)
    elif name == "fig05b":
        _show(fig05.run_5b(**kw()), args)
    elif name == "fig05c":
        _show(fig05.run_5c(**kw()), args)
    elif name == "fig05d":
        _show(fig05.run_5d(**kw()), args)
    elif name == "fig07":
        _show(fig07.run(**kw()), args, metrics=("re", "srb", "latency"))
    elif name == "fig09":
        _show(fig09.run(**kw()), args)
    elif name == "fig10":
        _show(fig10.run(**kw()), args, metrics=("re", "srb", "latency"))
    elif name == "fig11":
        for units, panel in fig11.run(**kw()).items():
            _show(panel, args, metrics=("re",))
            print()
    elif name == "fig12":
        _show(fig12.run(**kw()), args, metrics=("re", "srb", "hellos"))
    elif name == "fig13":
        _show(fig13.run(**kw()), args, metrics=("re", "srb"))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(name)


def _run_sweep(args: argparse.Namespace) -> int:
    runner = _make_executor(args)
    rows = []
    print(
        f"{'scheme':<20} {'map':>4} {'RE':>16} {'SRB':>16} {'latency':>10}"
    )
    for scheme in args.schemes:
        # Validated per scheme: every swept scheme must accept every key.
        params = _parse_scheme_params(scheme, args.scheme_param)
        for units in args.maps:
            config = ScenarioConfig(
                scheme=scheme,
                scheme_params=params,
                map_units=units,
                num_hosts=args.hosts,
                num_broadcasts=args.broadcasts,
            )
            result = runner.replicate(config, seeds=args.seeds)
            print(
                f"{scheme:<20} {units:>4} {str(result.re):>16} "
                f"{str(result.srb):>16} "
                f"{result.latency.mean * 1000 if result.latency else float('nan'):>8.1f}ms"
            )
            rows.append((config, result))
    if args.json:
        import json

        from repro.experiments.io import result_to_dict

        payload = [
            result_to_dict(run)
            for _config, replicated in rows
            for run in replicated.results
        ]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")
    _print_perf(runner)
    return 0


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_size(text: str) -> int:
    """``"500M"`` -> bytes (suffixes K/M/G/T, binary; bare number = bytes)."""
    text = text.strip().lower().rstrip("b")
    factor = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        return int(float(text) * factor)
    except ValueError:
        raise ValueError(f"cannot parse size {text!r}") from None


def parse_age(text: str) -> float:
    """``"36h"`` -> seconds (suffixes s/m/h/d/w; bare number = seconds)."""
    text = text.strip().lower()
    factor = 1.0
    if text and text[-1] in _AGE_SUFFIXES:
        factor = _AGE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        return float(text) * factor
    except ValueError:
        raise ValueError(f"cannot parse age {text!r}") from None


def _format_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - loop always returns


def _load_campaign_plan(spec_path: str):
    from repro.campaigns import SpecError, load_spec, plan_campaign

    try:
        return plan_campaign(load_spec(spec_path))
    except (SpecError, OSError) as exc:
        raise SystemExit(f"error: {exc}")


def _campaign_plan_cmd(args: argparse.Namespace) -> int:
    plan = _load_campaign_plan(args.spec)
    print(f"campaign {plan.campaign_id}: {plan.total} runs")
    shown = plan.runs if args.limit == 0 else plan.runs[:args.limit]
    for run in shown:
        print(f"  {run.run_id}  {run.digest[:12]}  {run.label()}")
    if len(shown) < plan.total:
        print(f"  ... and {plan.total - len(shown)} more")
    return 0


def _campaign_run_cmd(args: argparse.Namespace) -> int:
    import signal

    from repro.campaigns import CampaignExecutor, CampaignMismatch

    if args.jobs < 0:
        raise SystemExit(f"error: --jobs must be >= 0, got {args.jobs}")
    plan = _load_campaign_plan(args.spec)
    directory = args.directory or f"campaigns/{plan.campaign_id}"
    executor = CampaignExecutor(
        plan,
        directory,
        max_workers=None if args.jobs == 0 else args.jobs,
        cache_dir=args.cache_dir,
        checkpoint_every=args.checkpoint_every,
        include_resources=args.resources,
    )

    def _to_interrupt(signum, frame):  # SIGTERM resumes as cleanly as ^C
        raise KeyboardInterrupt

    previous_handler = signal.signal(signal.SIGTERM, _to_interrupt)

    done_box = [0]

    def progress(planned, result):
        done_box[0] += 1
        if not args.quiet:
            source = "cache" if result.from_cache else "sim"
            print(
                f"[{done_box[0]:>5}/{plan.total}] {planned.run_id} "
                f"({source}) {planned.label()}: RE={result.re:.3f} "
                f"SRB={result.srb:.3f}"
            )

    print(f"campaign {plan.campaign_id}: {plan.total} runs -> {directory}")
    try:
        outcome = executor.run(progress=progress)
    except CampaignMismatch as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
    _print_perf(executor.runner)
    if outcome.resumable:
        print(
            f"interrupted at {outcome.completed}/{plan.total} runs; "
            f"checkpoint flushed -- rerun the same command to resume"
        )
        return 3
    print(f"complete: {plan.total} runs; results in {directory}/results.json")
    return 0


def _campaign_status_cmd(args: argparse.Namespace) -> int:
    from repro.campaigns import campaign_status

    try:
        status = campaign_status(args.directory)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    for key in (
        "campaign_id", "name", "status", "total_runs", "completed_runs",
        "simulated_runs", "cached_runs", "results_available",
    ):
        print(f"{key:<18} {status[key]}")
    print(f"{'progress':<18} {status['progress']:.1%}")
    return 0


def _serve_cmd(args: argparse.Namespace) -> int:
    import asyncio

    from repro.campaigns import CampaignService

    if args.jobs < 0:
        raise SystemExit(f"error: --jobs must be >= 0, got {args.jobs}")
    service = CampaignService(
        cache_dir=args.cache_dir,
        campaign_root=args.campaigns,
        max_workers=None if args.jobs == 0 else args.jobs,
        host=args.host,
        port=args.port,
    )

    async def main() -> None:
        await service.start()
        print(
            f"serving on http://{service.host}:{service.port} "
            f"(cache: {service.cache.directory}"
            + (f", campaigns: {service.campaign_root}" if service.campaign_root
               else "")
            + ") -- Ctrl-C to stop",
            flush=True,
        )
        assert service._server is not None
        await service._server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


def _print_cache_hit_rate() -> None:
    """Process-lifetime cache hit rate from the telemetry counters.

    Meaningful when ``cache stats`` runs inside a process that has been
    serving lookups (the HTTP service, a long notebook session); a fresh
    CLI process has no lookups -- or disarmed telemetry -- and says so.
    """
    from repro.telemetry import counter_value, registry

    hits = counter_value("repro_cache_lookups_total", outcome="hit")
    misses = counter_value("repro_cache_lookups_total", outcome="miss")
    lookups = hits + misses
    if registry() is None or not lookups:
        print(f"{'hit rate':<12} n/a (no lookups this process)")
        return
    print(
        f"{'hit rate':<12} {hits / lookups:.1%} "
        f"({int(hits)}/{int(lookups)} lookups since process start)"
    )


def _bench_cmd(args: argparse.Namespace) -> int:
    from repro.telemetry import bench

    if args.bench_command == "record":
        try:
            entry = bench.record_entry(
                args.bench, args.history, name=args.name
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: {exc}")
        print(
            f"recorded {entry['bench']!r}: {len(entry['metrics'])} metrics "
            f"-> {args.history}"
        )
        return 0
    try:
        report = bench.check_history(
            args.history,
            name=args.name,
            threshold=args.threshold,
            window=args.window,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    print(report.format())
    return 0 if report.ok else 1


def _cache_cmd(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"{'directory':<12} {stats.directory}")
        print(f"{'entries':<12} {stats.entries}")
        print(f"{'total':<12} {_format_bytes(stats.total_bytes)}")
        if stats.entries:
            print(f"{'oldest use':<12} {stats.oldest_age:.0f}s ago")
            print(f"{'newest use':<12} {stats.newest_age:.0f}s ago")
        _print_cache_hit_rate()
        return 0
    if args.cache_command == "clear":
        print(f"removed {cache.clear()} entries")
        return 0
    if args.max_bytes is None and args.max_age is None:
        raise SystemExit("error: prune needs --max-bytes and/or --max-age")
    try:
        max_bytes = parse_size(args.max_bytes) if args.max_bytes else None
        max_age = parse_age(args.max_age) if args.max_age else None
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    report = cache.prune(max_bytes=max_bytes, max_age=max_age)
    print(
        f"removed {report.removed} entries "
        f"({_format_bytes(report.freed_bytes)}); "
        f"kept {report.kept} ({_format_bytes(report.kept_bytes)})"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run_single(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "campaign":
        if args.campaign_command == "plan":
            return _campaign_plan_cmd(args)
        if args.campaign_command == "run":
            return _campaign_run_cmd(args)
        return _campaign_status_cmd(args)
    if args.command == "schemes":
        return _schemes_cmd(args)
    if args.command == "serve":
        return _serve_cmd(args)
    if args.command == "cache":
        return _cache_cmd(args)
    if args.command == "bench":
        return _bench_cmd(args)
    return _run_figure(args)


if __name__ == "__main__":
    sys.exit(main())
