"""Golden determinism regression suite.

The perf layer and the hot-path kernel rewrite promise **bit-identical**
simulation: same seed, same scenario -> byte-for-byte the same metrics,
event counts, channel counters and fault traces as the pre-optimization
code.  The fingerprints below were captured from the unoptimized tree;
any drift here means an "optimization" changed simulation semantics
(RNG consumption order, float arithmetic, or event ordering) and must be
rejected, however small the numeric difference looks.

Scenarios cover every scheme family the paper sweeps: blind flooding on
the dense single-unit map, the counter and location adaptive schemes,
neighbor-coverage with dynamic HELLO intervals, and flooding under a
fault plan (crash + churn + loss) including the executed fault trace.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_batch, run_broadcast_simulation
from repro.faults.plan import FaultPlan
from repro.net.host import HelloConfig

# Captured from the pre-optimization tree (seed 7, 12 broadcasts each).
GOLDEN_JSON = r"""
{
    "adaptive-counter": {
        "aborted_frames": 0,
        "backoffs_started": 1793,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 2031,
        "deaf_misses": 20,
        "deliveries": 15769,
        "end_time": 17.00467235320274,
        "events_processed": 7736,
        "fault_trace": [],
        "hellos": 1021,
        "injected_drops": 0,
        "latency": 0.02496432457323124,
        "re": 0.8714689265536725,
        "srb": 0.5550165561061751,
        "total_rx_airtime": 14.455359999999992,
        "total_tx_airtime": 1.1084479999999997,
        "transmissions": 1329
    },
    "adaptive-location": {
        "aborted_frames": 0,
        "backoffs_started": 1936,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 3027,
        "deaf_misses": 20,
        "deliveries": 16171,
        "end_time": 17.00467235320274,
        "events_processed": 8317,
        "fault_trace": [],
        "hellos": 1021,
        "injected_drops": 0,
        "latency": 0.028160824573231696,
        "re": 0.9929378531073446,
        "srb": 0.4363763184993459,
        "total_rx_airtime": 17.855296000000028,
        "total_tx_airtime": 1.351648,
        "transmissions": 1429
    },
    "flooding-dense": {
        "aborted_frames": 0,
        "backoffs_started": 2190,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 97331,
        "deaf_misses": 1722,
        "deliveries": 6269,
        "end_time": 15.274227671085695,
        "events_processed": 7320,
        "fault_trace": [],
        "hellos": 0,
        "injected_drops": 0,
        "latency": 0.08537800000000197,
        "re": 0.9166666666666666,
        "srb": 0.0,
        "total_rx_airtime": 256.14310400000426,
        "total_tx_airtime": 2.6776320000000067,
        "transmissions": 1101
    },
    "flooding-faults": {
        "aborted_frames": 0,
        "backoffs_started": 725,
        "broadcasts": 11,
        "broadcasts_skipped": 1,
        "collisions": 1396,
        "deaf_misses": 37,
        "deliveries": 1424,
        "end_time": 16.994797034857413,
        "events_processed": 2570,
        "fault_trace": [
            [
                0.6621410589998556,
                "crash",
                26
            ],
            [
                4.129706617312361,
                "crash",
                20
            ],
            [
                4.4302098155336695,
                "crash",
                7
            ],
            [
                4.662141058999856,
                "recover",
                26
            ],
            [
                5.188671066193747,
                "crash",
                9
            ],
            [
                6.0,
                "crash",
                3
            ],
            [
                6.166216472431183,
                "crash",
                34
            ],
            [
                8.129706617312362,
                "recover",
                20
            ],
            [
                8.430209815533669,
                "recover",
                7
            ],
            [
                9.188671066193747,
                "recover",
                9
            ],
            [
                9.806026868618703,
                "crash",
                37
            ],
            [
                10.166216472431184,
                "recover",
                34
            ],
            [
                10.66416415777567,
                "crash",
                30
            ],
            [
                11.293428500838203,
                "crash",
                31
            ],
            [
                13.105539660747507,
                "crash",
                9
            ],
            [
                13.285571866398163,
                "crash",
                36
            ],
            [
                13.806026868618703,
                "recover",
                37
            ],
            [
                14.0,
                "recover",
                3
            ],
            [
                14.153783627164696,
                "crash",
                20
            ],
            [
                14.66416415777567,
                "recover",
                30
            ],
            [
                15.293428500838203,
                "recover",
                31
            ],
            [
                16.572436343849642,
                "crash",
                31
            ]
        ],
        "hellos": 0,
        "injected_drops": 136,
        "latency": 0.03179620000000105,
        "re": 0.8989785068732438,
        "srb": 0.0,
        "total_rx_airtime": 7.2789759999999895,
        "total_tx_airtime": 0.8949760000000003,
        "transmissions": 368
    },
    "nc-dhi": {
        "aborted_frames": 0,
        "backoffs_started": 1956,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 2786,
        "deaf_misses": 26,
        "deliveries": 17510,
        "end_time": 35.00467235320274,
        "events_processed": 8479,
        "fault_trace": [],
        "hellos": 1090,
        "injected_drops": 0,
        "latency": 0.029972157906562973,
        "re": 0.9872881355932205,
        "srb": 0.46055689340241307,
        "total_rx_airtime": 25.381471999999953,
        "total_tx_airtime": 1.7997119999999993,
        "transmissions": 1479
    }
}
"""

GOLDENS = json.loads(GOLDEN_JSON)

SCENARIOS = {
    "flooding-dense": ScenarioConfig(
        scheme="flooding", map_units=1, num_hosts=100, num_broadcasts=12,
        seed=7,
    ),
    "adaptive-counter": ScenarioConfig(
        scheme="adaptive-counter", map_units=3, num_hosts=60,
        num_broadcasts=12, seed=7,
    ),
    "adaptive-location": ScenarioConfig(
        scheme="adaptive-location", map_units=3, num_hosts=60,
        num_broadcasts=12, seed=7,
    ),
    "nc-dhi": ScenarioConfig(
        scheme="neighbor-coverage", map_units=3, num_hosts=60,
        num_broadcasts=12, seed=7,
        hello=HelloConfig(dynamic=True),
    ),
    "flooding-faults": ScenarioConfig(
        scheme="flooding", map_units=3, num_hosts=40, num_broadcasts=12,
        seed=7,
        faults=FaultPlan.parse(
            "crash:host=3,at=6,recover=14;churn:rate=0.02,downtime=4;"
            "loss:p=0.05"
        ),
    ),
}


def fingerprint(result) -> dict:
    """Everything observable that must not drift, JSON-normalized."""
    ch = result.channel_stats
    return json.loads(json.dumps({
        "events_processed": result.events_processed,
        "end_time": result.end_time,
        "re": result.re,
        "srb": result.srb,
        "latency": result.latency,
        "hellos": result.hellos,
        "broadcasts": result.stats.broadcasts,
        "backoffs_started": result.backoffs_started,
        "transmissions": ch.transmissions,
        "deliveries": ch.deliveries,
        "collisions": ch.collisions,
        "deaf_misses": ch.deaf_misses,
        "injected_drops": ch.injected_drops,
        "aborted_frames": ch.aborted_frames,
        "total_tx_airtime": ch.total_tx_airtime,
        "total_rx_airtime": ch.total_rx_airtime,
        "broadcasts_skipped": result.broadcasts_skipped,
        "fault_trace": [
            (ev.time, ev.kind, ev.host_id) for ev in result.fault_trace
        ],
    }))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_golden(name):
    result = run_broadcast_simulation(SCENARIOS[name])
    observed = fingerprint(result)
    expected = GOLDENS[name]
    # Field-by-field so a drift names the counter that moved.
    for field_name in expected:
        assert observed[field_name] == expected[field_name], (
            f"{name}: {field_name} drifted: "
            f"{observed[field_name]!r} != golden {expected[field_name]!r}"
        )
    assert observed == expected


def test_run_twice_is_bit_identical():
    """The same config object run twice gives identical fingerprints
    (no hidden state leaks between runs)."""
    config = SCENARIOS["flooding-faults"]
    first = fingerprint(run_broadcast_simulation(config))
    second = fingerprint(run_broadcast_simulation(config))
    assert first == second
    assert first["fault_trace"] == second["fault_trace"]


def test_batch_runs_match_solo_fingerprints():
    """run_broadcast_batch (shared position buffers across seeds) gives
    results bit-identical to running each seed solo."""
    config = SCENARIOS["adaptive-counter"]
    seeds = [7, 8]
    batch = run_broadcast_batch(config, seeds)
    for seed, result in zip(seeds, batch):
        from dataclasses import replace

        solo = run_broadcast_simulation(replace(config, seed=seed))
        assert fingerprint(result) == fingerprint(solo), f"seed {seed}"
