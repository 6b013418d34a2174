"""The benchmark under ``perfbench/`` traces leoroute by patching names on
its modules and classes, and builds its workloads through public
constructors. This checks, in well under a second, that every name it
patches still exists and that its workload module still imports, so a
rename fails here instead of deep inside a long benchmark run. Nothing
under ``perfbench/`` is changed.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _namespaces() -> dict:
    """A copy of the namespace of every leoroute module the benchmark
    patches and of every class defined in them."""
    from leoroute import env, harness, learner, linkmodel, netsim, nn, routing
    mods = [env, harness, learner, linkmodel, netsim, nn, routing]
    owners = mods + [v for m in mods for v in vars(m).values()
                     if isinstance(v, type) and v.__module__ == m.__name__]
    return {owner: dict(vars(owner)) for owner in owners}


def test_benchmark_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads
    from tracer import Patcher, Tracer

    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)

    before = _namespaces()
    with Patcher() as p:
        layers.install(Tracer(p), [], [])     # KeyError on a missing name
        assert _namespaces() != before
    assert _namespaces() == before


def test_spf_refresh_records_snapshot_and_table_spans(monkeypatch):
    """A short desk SPF call under the hooks records one ``build_snapshot``
    and one ``spf_tables`` span per topology refresh, so a refresh that
    stops calling them through the module names cannot read 0 ms."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads
    from tracer import Patcher, Tracer

    workload = workloads.WORKLOADS["desk-spf"]
    sc = workload.scenario(0.5)
    with Patcher() as p:
        tr = Tracer(p)
        layers.install(tr, [], [])
        workload.call(sc, 1)
    spans = tr.by_name()
    refreshes = round(0.5 / sc.sim.refresh_interval_s) + 1
    for name in ("routing.spf_refresh", "routing.build_snapshot", "routing.spf_tables"):
        assert len(spans.get(name, ((),))[0]) == refreshes, name


def test_simulator_rate_calls_stay_counted(monkeypatch):
    """Under physical rates a short desk SPF call records ``linkmodel.rate``
    spans from the simulator (inside ``netsim.run``), at most one per queue
    per topology refresh; the others come from SPF's snapshot weights. A
    rate formula inlined into the simulator would drop out of the count and
    fail the first assertion."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads
    from tracer import Patcher, Tracer

    from leoroute.linkmodel import RateModel

    sc = workloads.WORKLOADS["desk-spf"].scenario(0.5)
    sc = replace(sc, sim=replace(sc.sim, gsl_rate_model=RateModel("physical"),
                                 isl_rate_model=RateModel("physical")))
    sims = []
    with Patcher() as p:
        tr = Tracer(p)
        layers.install(tr, sims, [])
        workloads.WORKLOADS["desk-spf"].call(sc, 1)
    names = np.array(tr.names)
    span = names[np.frombuffer(tr.name, dtype=np.int32)]
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    rate = span == "linkmodel.rate"
    assert (parent[rate] >= 0).all()
    caller = span[parent[rate]]
    assert set(caller) <= {"netsim.run", "routing.build_snapshot"}
    in_sim = int((caller == "netsim.run").sum())
    (sim,) = sims
    queues = len(sim.isl_queues) + len(sim.up_queues) + len(sim.down_queues)
    assert 0 < in_sim <= queues * sim.refreshes
