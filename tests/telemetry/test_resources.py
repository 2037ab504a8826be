"""Run cost (peak RSS, GC collections, wall time): collection,
serialization in the ``perf`` block, and the campaign aggregate."""

from __future__ import annotations

import gc
from dataclasses import replace

from repro.campaigns.planner import plan_campaign
from repro.campaigns.queue import campaign_results_payload
from repro.campaigns.spec import spec_from_dict
from repro.experiments.config import ScenarioConfig
from repro.experiments.io import result_from_dict, result_to_dict
from repro.experiments.runner import run_broadcast_simulation
from repro.perf import peak_rss_bytes

TINY = ScenarioConfig(
    scheme="flooding", map_units=1, num_hosts=12, num_broadcasts=3, seed=1
)


def test_peak_rss_is_positive_on_posix():
    assert peak_rss_bytes() > 1 << 20  # any Python process exceeds 1 MiB


def test_every_simulation_result_carries_resources():
    result = run_broadcast_simulation(TINY)
    assert result.peak_rss_bytes > 0
    assert result.gc_collections >= 0
    assert result.wall_time > 0


def test_gc_collections_brackets_the_run():
    # The network hook runs inside the run, so its forced collections
    # are counted (one per generation-2 collect, at least).
    result = run_broadcast_simulation(
        TINY, network_hook=lambda network: (gc.collect(), gc.collect())
    )
    assert result.gc_collections >= 2


def test_resources_round_trip_through_json():
    result = run_broadcast_simulation(TINY)
    data = result_to_dict(result)
    assert "resources" not in data
    perf = data["perf"]
    assert perf["peak_rss_bytes"] == result.peak_rss_bytes
    assert perf["gc_collections"] == result.gc_collections
    loaded = result_from_dict(data)
    assert loaded.peak_rss_bytes == result.peak_rss_bytes
    assert loaded.gc_collections == result.gc_collections
    assert loaded.wall_time == result.wall_time
    assert loaded.perf == result.perf
    assert result_to_dict(loaded)["perf"] == perf


def test_parent_format_resources_block_still_loads():
    # Run JSON written before the fields moved into "perf" carried a
    # top-level "resources" block; it loads, the old block is ignored.
    result = run_broadcast_simulation(TINY)
    data = result_to_dict(result)
    del data["perf"]["peak_rss_bytes"], data["perf"]["gc_collections"]
    data["resources"] = {
        "peak_rss_bytes": 7, "gc_collections": 1, "wall_time": 0.25,
    }
    loaded = result_from_dict(data)
    assert loaded.stats == result.stats
    assert loaded.perf == result.perf
    assert (loaded.peak_rss_bytes, loaded.gc_collections) == (0, 0)


def test_resources_excluded_from_equality():
    a = run_broadcast_simulation(TINY)
    b = replace(a, peak_rss_bytes=a.peak_rss_bytes + 1,
                gc_collections=a.gc_collections + 1)
    assert a == b  # compare=False on the noisy fields


def test_campaign_aggregate_maxes_peaks_and_sums_counters():
    plan = plan_campaign(spec_from_dict({
        "name": "resources-aggregate",
        "grid": {"scheme": ["flooding"], "seed": [1, 2, 3]},
        "scenario": {"map_units": 1, "num_hosts": 12, "num_broadcasts": 3},
    }))
    costs = [(300, 2, 1.0), (900, 0, 0.5), (100, 5, 2.0)]
    results = [
        replace(
            run_broadcast_simulation(run.config),
            peak_rss_bytes=rss, gc_collections=gcs, wall_time=wall,
        )
        for run, (rss, gcs, wall) in zip(plan.runs, costs)
    ]
    payload = campaign_results_payload(plan, results, include_resources=True)
    assert payload["resources"] == {
        "peak_rss_bytes": 900,
        "gc_collections": 7,
        "wall_time": 3.5,
        "runs_sampled": 3,
    }
    # Runs that never finished are not sampled.
    payload = campaign_results_payload(
        plan, [results[0], None, results[2]], include_resources=True
    )
    assert payload["resources"] == {
        "peak_rss_bytes": 300,
        "gc_collections": 7,
        "wall_time": 3.0,
        "runs_sampled": 2,
    }
