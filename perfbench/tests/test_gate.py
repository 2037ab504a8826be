"""The correctness gate and the failures it feeds into failed_frac."""

from __future__ import annotations

from types import SimpleNamespace

from perfbench import run
from perfbench.gate import Gate, fingerprint
from perfbench.workloads import build


def _result(events=10, re=0.5):
    return SimpleNamespace(
        events_processed=events,
        channel_stats=SimpleNamespace(transmissions=3),
        hellos=7, re=re, srb=0.25, latency=float("nan"),
    )


def test_goldens_pin_every_run():
    gate = Gate({"a": fingerprint(_result())})
    assert gate.check("a", _result())
    assert not gate.check("a", _result(events=11))
    assert not gate.check("unknown", _result())
    assert (gate.attempted, gate.failed) == (3, 2)
    assert gate.failed_frac == 2 / 3


def test_without_goldens_repeats_must_agree():
    gate = Gate()
    assert gate.check("a", _result(re=0.5))
    assert gate.check("a", _result(re=0.5))  # NaN latency still compares equal
    assert not gate.check("a", _result(re=0.5000000001))
    gate.fail("b", "raised")
    assert (gate.attempted, gate.failed) == (4, 2)


def test_planted_fingerprint_mismatch_is_counted_in_failed_frac(capsys):
    from repro.experiments.runner import run_broadcast_simulation

    workload = build("paper-hello", 1, tiny=True)
    goldens = {
        s.key: fingerprint(run_broadcast_simulation(s.config))
        for s in workload.scenarios
    }
    planted = workload.scenarios[2].key
    goldens[planted] = dict(goldens[planted], events_processed=-1)

    result = run.run("paper-hello", 1, 0, 0, tiny=True, goldens=goldens,
                     probes=1)
    runs = len(workload.scenarios)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (runs, 1)
    out = capsys.readouterr()
    assert f"failed_frac = {1 / runs!r}" in out.out
    assert planted in out.err
