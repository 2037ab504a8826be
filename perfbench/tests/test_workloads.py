"""Each workload at a tiny size emits every metric; the recorded files match
the code that describes them."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import record, run
from perfbench.catalog import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS
from perfbench.workloads import build

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_emits_every_metric(workload, trace, capsys):
    result = run.run(workload, 2, 0, trace, tiny=True, probes=1)
    assert result["correct"] is True, capsys.readouterr().err
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalog = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in catalog]
    for m in catalog:
        assert result["metrics"][m.name]["unit"] == m.unit
    out = capsys.readouterr().out
    for m in catalog:
        assert f"{m.name} = " in out
    assert "runs = " in out and "failed_frac = 0.0" in out
    json.dumps(result)  # the result line is plain JSON

    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        hello_updates = values["neighbors.hello_updates"]
        if workload == "flood-dense":
            assert hello_updates == 0
            assert values["neighbors.self_s"] == 0
        else:
            assert hello_updates > 0
        if workload == "figure-sweep":
            assert values["parallel.cache_get_s"] > 0
            assert values["parallel.cache_put_s"] > 0
            assert values["parallel.entry_bytes"] > 0
        assert values["phy.self_s"] > 0 and values["mac.self_s"] > 0


def test_workload_inputs_follow_the_seed():
    for name in WORKLOADS:
        a, b = build(name, 3), build(name, 3)
        assert a == b
        other = build(name, 4)
        assert {s.key for s in a.scenarios}.isdisjoint(
            s.key for s in other.scenarios)
    assert len(build("paper-hello", 1).scenarios) == 30
    assert len(build("flood-dense", 1).scenarios) == 32
    assert len(build("figure-sweep", 1).scenarios) == 192
    with pytest.raises(ValueError):
        build("nope", 1)


def test_recorded_files_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == record.benchmark_spec()
    meta = json.loads((ROOT / "perfbench" / "meta.json").read_text())
    fresh = record.meta()
    for key in ("default_seed", "workloads", "layers", "metrics"):
        assert meta[key] == fresh[key], key
    goldens = json.loads((ROOT / "perfbench" / "fingerprints.json").read_text())
    for name in WORKLOADS:
        keys = [s.key for s in build(name, DEFAULT_SEED).scenarios]
        assert sorted(goldens[name]) == sorted(keys)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-hello",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
    assert "error:" in proc.stderr


def test_interquartile_mean_drops_the_outer_quarters():
    assert run._interquartile_mean([8, 1, 7, 2, 6, 3, 5, 4]) == 4.5
    assert run._interquartile_mean([1.0, 1.0, 1.0, 100.0]) == 1.0
    assert run._interquartile_mean([2.0]) == 2.0
    assert run._interquartile_mean([]) == 0.0
