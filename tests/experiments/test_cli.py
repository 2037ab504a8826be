"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--scheme", "magic"])


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_run_command_prints_summary(capsys):
    exit_code = main(
        [
            "run", "--scheme", "flooding", "--map", "3", "--hosts", "20",
            "--broadcasts", "3", "--seed", "5",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "RE=" in out and "SRB=" in out


def test_run_command_counter_threshold(capsys):
    exit_code = main(
        [
            "run", "--scheme", "counter", "--counter-threshold", "2",
            "--map", "3", "--hosts", "20", "--broadcasts", "3",
        ]
    )
    assert exit_code == 0
    assert "counter@3x3" in capsys.readouterr().out


def test_run_command_perf_flag(capsys):
    exit_code = main(
        [
            "run", "--scheme", "flooding", "--map", "3", "--hosts", "20",
            "--broadcasts", "3", "--seed", "5", "--perf",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "events_processed" in out
    assert "pos_hit_rate" in out
    assert "peak_rss_bytes" in out and "gc_collections" in out


def test_run_command_profile_flag(capsys):
    exit_code = main(
        [
            "run", "--scheme", "flooding", "--map", "3", "--hosts", "20",
            "--broadcasts", "3", "--seed", "5", "--profile", "5",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    # cProfile table plus the normal run summary.
    assert "cumulative" in out and "RE=" in out


def test_figure_command_profile_flag(capsys):
    assert main(["figure", "fig01", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "EAC(k)" in out  # analytic figure still renders
    assert "cumulative" in out


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if the CLI starts a single-run simulation."""
    import repro.cli

    def simulate(*args, **kwargs):
        raise AssertionError("simulated despite a bad argument")

    monkeypatch.setattr(repro.cli, "run_broadcast_simulation", simulate)


@pytest.mark.parametrize("command", [
    ["run", "--scheme", "flooding", "--map", "1", "--hosts", "10",
     "--broadcasts", "2"],
    ["figure", "fig02"],
])
@pytest.mark.parametrize("top_n", ["0", "-3"])
def test_profile_below_one_rejected_before_running(
    capsys, no_simulation, command, top_n
):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--profile", top_n])
    assert exc.value.code == 2
    assert "--profile: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("sample_dt", ["nan", "inf", "-1"])
def test_bad_sample_dt_fails_before_running(
    capsys, no_simulation, tmp_path, sample_dt
):
    path = tmp_path / "t.jsonl"
    code = main([
        "run", "--scheme", "flooding", "--map", "1", "--hosts", "10",
        "--broadcasts", "2", "--trace", str(path), "--sample-dt", sample_dt,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sample-dt:") and "finite" in err
    assert not path.exists()


def test_figure_fig01(capsys):
    assert main(["figure", "fig01"]) == 0
    out = capsys.readouterr().out
    assert "EAC(k)" in out


def test_figure_fig02(capsys):
    assert main(["figure", "fig02"]) == 0
    assert "cf(n, k)" in capsys.readouterr().out


def test_figure_simulation_with_reduced_grid(capsys):
    exit_code = main(
        ["figure", "fig07", "--broadcasts", "2", "--maps", "1"]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Fig. 7" in out
    assert "AC" in out


def test_dynamic_hello_flag(capsys):
    exit_code = main(
        [
            "run", "--scheme", "neighbor-coverage", "--dynamic-hello",
            "--map", "1", "--hosts", "10", "--broadcasts", "2",
        ]
    )
    assert exit_code == 0


def test_sweep_command(capsys, tmp_path):
    json_path = tmp_path / "sweep.json"
    exit_code = main(
        [
            "sweep", "--schemes", "flooding", "--maps", "1",
            "--hosts", "15", "--broadcasts", "2", "--seeds", "1", "2",
            "--json", str(json_path),
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "flooding" in out and "+/-" in out
    import json

    runs = json.loads(json_path.read_text())
    assert len(runs) == 2  # one scheme x one map x two seeds
    assert {r["config"]["seed"] for r in runs} == {1, 2}


def test_figure_csv_flag(capsys, tmp_path):
    csv_path = tmp_path / "fig.csv"
    exit_code = main(
        [
            "figure", "fig07", "--broadcasts", "2", "--maps", "1",
            "--csv", str(csv_path),
        ]
    )
    assert exit_code == 0
    assert csv_path.exists()
    assert "series" in csv_path.read_text().splitlines()[0]


def test_figure_chart_flag(capsys):
    exit_code = main(
        ["figure", "fig07", "--broadcasts", "2", "--maps", "1", "--chart"]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "(RE)" in out  # the chart title


# --------------------------------------------------- campaigns and cache


SPEC_JSON = """{
  "name": "cli-test",
  "grid": {"scheme": ["flooding"], "seed": [1, 2]},
  "scenario": {"map_units": 1, "num_hosts": 12, "num_broadcasts": 2}
}"""


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(SPEC_JSON)
    return path


def test_campaign_plan_command(capsys, spec_path):
    assert main(["campaign", "plan", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "2 runs" in out
    assert "run-00000" in out and "run-00001" in out


def test_campaign_plan_limit(capsys, spec_path):
    assert main(["campaign", "plan", str(spec_path), "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "run-00000" in out
    assert "run-00001" not in out
    assert "1 more" in out


def test_campaign_plan_bad_spec(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "grid": {"warp": [1]}}')
    with pytest.raises(SystemExit, match="unknown grid axis"):
        main(["campaign", "plan", str(path)])


def test_campaign_run_and_status(capsys, tmp_path, spec_path):
    directory = tmp_path / "camp"
    code = main([
        "campaign", "run", str(spec_path),
        "--dir", str(directory), "--jobs", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "(sim)" in out
    assert "complete: 2 runs" in out
    assert (directory / "results.json").exists()

    assert main(["campaign", "status", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "complete" in out
    assert "100.0%" in out

    # Rerun: everything comes from the campaign's cache.
    assert main([
        "campaign", "run", str(spec_path),
        "--dir", str(directory), "--jobs", "1",
    ]) == 0
    assert "(cache)" in capsys.readouterr().out


def test_campaign_run_quiet(capsys, tmp_path, spec_path):
    code = main([
        "campaign", "run", str(spec_path),
        "--dir", str(tmp_path / "camp"), "--jobs", "1", "--quiet",
    ])
    assert code == 0
    assert "run-00000" not in capsys.readouterr().out


def test_cache_stats_prune_clear(capsys, tmp_path, spec_path):
    cache_dir = tmp_path / "cache"
    main([
        "campaign", "run", str(spec_path),
        "--dir", str(tmp_path / "camp"), "--jobs", "1", "--quiet",
        "--cache-dir", str(cache_dir),
    ])
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries      2" in out

    assert main([
        "cache", "prune", "--cache-dir", str(cache_dir), "--max-age", "1h",
    ]) == 0
    assert "removed 0 entries" in capsys.readouterr().out

    assert main([
        "cache", "prune", "--cache-dir", str(cache_dir), "--max-bytes", "0",
    ]) == 0
    assert "kept 0" in capsys.readouterr().out

    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    assert "removed 0 entries" in capsys.readouterr().out


def test_cache_prune_requires_a_bound(tmp_path):
    with pytest.raises(SystemExit, match="prune needs"):
        main(["cache", "prune", "--cache-dir", str(tmp_path)])


def test_parse_size_and_age():
    from repro.cli import parse_age, parse_size

    assert parse_size("1024") == 1024
    assert parse_size("4K") == 4096
    assert parse_size("1.5M") == int(1.5 * 1024 * 1024)
    assert parse_size("2G") == 2 * 1024 ** 3
    assert parse_age("90") == 90.0
    assert parse_age("2m") == 120.0
    assert parse_age("36h") == 36 * 3600.0
    assert parse_age("1w") == 7 * 86400.0
    with pytest.raises(ValueError):
        parse_size("lots")
    with pytest.raises(ValueError):
        parse_age("soon")


def test_schemes_command_lists_registry(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    from repro.schemes import SCHEME_REGISTRY

    for name in SCHEME_REGISTRY:
        assert name in out


def test_schemes_command_verbose_shows_params(capsys):
    assert main(["schemes", "-v"]) == 0
    out = capsys.readouterr().out
    assert "threshold: int = 3" in out
    assert "p: float = 0.7" in out


def test_run_command_scheme_param(capsys):
    exit_code = main(
        [
            "run", "--scheme", "counter-gossip", "--scheme-param", "p=0.5",
            "--scheme-param", "threshold=5", "--map", "3", "--hosts", "20",
            "--broadcasts", "3",
        ]
    )
    assert exit_code == 0
    assert "counter-gossip@3x3" in capsys.readouterr().out


def test_run_command_scheme_param_unknown_key():
    with pytest.raises(SystemExit, match="no parameter"):
        main(["run", "--scheme", "gossip", "--scheme-param", "q=0.5"])


def test_run_command_scheme_param_bad_value():
    with pytest.raises(SystemExit, match="p"):
        main(["run", "--scheme", "gossip", "--scheme-param", "p=high"])
    with pytest.raises(SystemExit, match="<= 1"):
        main(["run", "--scheme", "gossip", "--scheme-param", "p=1.5"])
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        main(["run", "--scheme", "gossip", "--scheme-param", "p0.5"])


def test_sweep_command_scheme_param(capsys):
    exit_code = main(
        [
            "sweep", "--schemes", "gossip", "--scheme-param", "p=0.8",
            "--maps", "1", "--hosts", "20", "--broadcasts", "3",
        ]
    )
    assert exit_code == 0
    assert "gossip" in capsys.readouterr().out


def test_sweep_command_scheme_param_must_fit_every_scheme():
    with pytest.raises(SystemExit, match="flooding"):
        main(
            [
                "sweep", "--schemes", "gossip", "flooding",
                "--scheme-param", "p=0.8", "--maps", "1",
            ]
        )


# ------------------------------------------------------- bench and telemetry


def _write_bench(tmp_path, events_per_sec):
    import json

    path = tmp_path / "BENCH_kernel.json"
    path.write_text(json.dumps({
        "bench": "kernel",
        "platform": {"cpus": 4},
        "events_per_sec": events_per_sec,
        "wall_time": 1.0,
    }))
    return path


def test_bench_record_and_check_pass(capsys, tmp_path):
    history = tmp_path / "bench_history.jsonl"
    bench = _write_bench(tmp_path, 1000.0)
    assert main([
        "bench", "record", str(bench), "--history", str(history),
    ]) == 0
    assert "recorded 'kernel'" in capsys.readouterr().out
    assert main([
        "bench", "record", str(bench), "--history", str(history),
    ]) == 0
    capsys.readouterr()

    assert main(["bench", "check", "--history", str(history)]) == 0
    out = capsys.readouterr().out
    assert "events_per_sec" in out
    assert "ok: no gated metric regressed" in out


def test_bench_check_fails_on_regression(capsys, tmp_path):
    history = tmp_path / "bench_history.jsonl"
    for value in (1000.0, 1010.0, 990.0):
        main([
            "bench", "record", str(_write_bench(tmp_path, value)),
            "--history", str(history),
        ])
    capsys.readouterr()
    # 50% drop against a ~1000 median baseline: gate must exit non-zero.
    main([
        "bench", "record", str(_write_bench(tmp_path, 500.0)),
        "--history", str(history),
    ])
    assert main(["bench", "check", "--history", str(history)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    assert "FAIL" in out


def test_bench_record_missing_file_exits(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "bench", "record", str(tmp_path / "nope.json"),
            "--history", str(tmp_path / "h.jsonl"),
        ])


def test_cache_stats_hit_rate_line(capsys, tmp_path, spec_path):
    from repro.telemetry.registry import MetricsRegistry, arm, disarm, registry

    cache_dir = tmp_path / "cache"
    run_args = [
        "campaign", "run", str(spec_path),
        "--dir", str(tmp_path / "camp"), "--jobs", "1", "--quiet",
        "--cache-dir", str(cache_dir),
    ]
    previous = registry()
    try:
        disarm()
        main(run_args)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "hit rate     n/a (no lookups" in capsys.readouterr().out

        arm(MetricsRegistry())
        main(run_args)  # warm: both runs come back as hits
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "hit rate     100.0% (2/2 lookups since process start)" in out
    finally:
        arm(previous) if previous is not None else disarm()


def test_campaign_run_resources_flag(capsys, tmp_path, spec_path):
    import json

    directory = tmp_path / "camp"
    assert main([
        "campaign", "run", str(spec_path),
        "--dir", str(directory), "--jobs", "1", "--quiet", "--resources",
    ]) == 0
    payload = json.loads((directory / "results.json").read_text())
    assert payload["resources"]["runs_sampled"] == 2
    assert payload["resources"]["peak_rss_bytes"] > 0
