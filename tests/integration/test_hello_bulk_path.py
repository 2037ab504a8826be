"""The bulk HELLO path and the per-receiver path keep the same tables.

Untraced runs hand each decoded broadcast HELLO to the
network as one array of receivers (one column write into the neighbor
matrix); traced runs dispatch it receiver by receiver through the MAC and
host into the same rows.  The schemes must not be able to tell: at every
decision they see the same neighbor count ``n``, the same pending state
and (under DHI) the same hello interval, and the matrix and the kernel
counters end up equal.
"""

import numpy as np
import pytest

import repro.net.host as host_module
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation
from repro.faults.plan import FaultPlan
from repro.net.host import HelloConfig, MobileHost
from repro.net.neighbors import NeighborMatrix, NeighborTable
from repro.schemes.adaptive_counter import AdaptiveCounterScheme
from repro.schemes.adaptive_location import AdaptiveLocationScheme
from repro.schemes.neighbor_coverage import NeighborCoverageScheme
from repro.trace import TraceRecorder

SCHEMES = {
    "AC": ("adaptive-counter", HelloConfig()),
    "AL": ("adaptive-location", HelloConfig()),
    "NC-DHI": ("neighbor-coverage", HelloConfig(dynamic=True)),
}
CRASHES = "crash:host=3,at=6,recover=14;churn:rate=0.02,downtime=4;loss:p=0.05"


def config(label, map_units, faults=None):
    scheme, hello = SCHEMES[label]
    return ScenarioConfig(
        scheme=scheme, hello=hello, map_units=map_units, num_hosts=50,
        num_broadcasts=8, seed=map_units + 11,
        faults=FaultPlan.parse(faults) if faults else None,
    )


def probed_run(monkeypatch, cfg, traced):
    """One run with every decision input logged, plus its network."""
    log = []
    calls = {"bulk": 0, "per_receiver": 0}
    # Neighbor counts the scheme reads while deciding (not the ones a
    # traced run's provenance records add).
    seen_n = []

    def wrap(cls, name, before=None, after=None):
        original = getattr(cls, name)

        def probe(self, *args, **kwargs):
            if before is not None:
                before(self, *args)
            result = original(self, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        monkeypatch.setattr(cls, name, probe)

    def decision(scheme, args, verdict):
        (state,) = args
        host = scheme.host
        assessment = state.assessment
        log.append((
            "decision", host.scheduler.now, host.host_id, state.packet.key,
            verdict, list(seen_n),
            # The table as it stands (no purge: the probe must not perturb).
            sorted(host.neighbor_table.neighbor_frozenset()),
            sorted(scheme._pending),
            sorted(assessment) if isinstance(assessment, set) else None,
        ))
        seen_n.clear()

    for cls in (AdaptiveCounterScheme, AdaptiveLocationScheme,
                NeighborCoverageScheme):
        wrap(cls, "should_inhibit", before=lambda *_: seen_n.clear(),
             after=decision)
    wrap(MobileHost, "neighbor_count",
         after=lambda host, args, n: seen_n.append(n))
    wrap(NeighborMatrix, "receive_hello",
         after=lambda *_: calls.__setitem__("bulk", calls["bulk"] + 1))
    wrap(NeighborTable, "update_from_hello",
         after=lambda *_: calls.__setitem__(
             "per_receiver", calls["per_receiver"] + 1))
    dhi = host_module.dynamic_hello_interval

    def logged_dhi(variation, **kwargs):
        interval = dhi(variation, **kwargs)
        log.append(("dhi", variation, interval))
        return interval

    monkeypatch.setattr(host_module, "dynamic_hello_interval", logged_dhi)

    networks = []
    result = run_broadcast_simulation(
        cfg, network_hook=networks.append,
        trace=TraceRecorder() if traced else None,
    )
    monkeypatch.undo()
    return result, networks[0], log, calls


def assert_same_tables(a, b):
    ma, mb = a.neighbor_matrix, b.neighbor_matrix
    assert np.array_equal(ma.present, mb.present)
    assert np.array_equal(ma.expiry, mb.expiry)
    assert ma.two_hop.tolist() == mb.two_hop.tolist()
    assert [list(c) for c in ma.changes] == [list(c) for c in mb.changes]


CASES = [(label, m, None) for label in SCHEMES for m in (1, 5, 9)] + [
    (label, 3, CRASHES) for label in SCHEMES
]


@pytest.mark.parametrize(
    "label,map_units,faults", CASES,
    ids=[f"{c[0]}-map{c[1]}{'-faults' if c[2] else ''}" for c in CASES],
)
def test_bulk_and_per_receiver_hello_paths_agree(
    monkeypatch, label, map_units, faults
):
    cfg = config(label, map_units, faults)
    bulk, bulk_net, bulk_log, bulk_calls = probed_run(monkeypatch, cfg, False)
    each, each_net, each_log, each_calls = probed_run(monkeypatch, cfg, True)
    # Each run took the path it is meant to exercise.
    assert bulk_calls["bulk"] > 0 and bulk_calls["per_receiver"] == 0
    assert each_calls["bulk"] == 0 and each_calls["per_receiver"] > 0
    assert any(entry[0] == "decision" for entry in bulk_log)
    if label == "NC-DHI":
        assert any(entry[0] == "dhi" for entry in bulk_log)
    assert bulk_log == each_log
    assert_same_tables(bulk_net, each_net)
    assert bulk.perf == each.perf
    assert bulk.perf.hello_updates > 0
    assert (bulk.re, bulk.srb, bulk.events_processed) == (
        each.re, each.srb, each.events_processed
    )
