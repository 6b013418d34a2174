"""The benchmark under ``perfbench/`` traces leoroute by patching names on
its modules and classes, and builds its workloads through public
constructors. This checks, in well under a second, that every name it
patches still exists and that its workload module still imports, so a
rename fails here instead of deep inside a long benchmark run. Nothing
under ``perfbench/`` is changed.
"""

import json
from pathlib import Path

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
