"""Golden digests: pin the exact output of short runs across commits.

Each test runs one short, seeded run and compares hex digests of its
output with literal values: the sha256 of ``MetricsReport.to_json()`` and,
for evaluation runs, the simulator's ``trace_digest()``; for training runs,
a digest of every learned parameter block and the sha256 of the
diagnostics rows (losses, multipliers, temperature and entropy at each
report). Any change to event order, routing decisions, observations, RNG
streams or float arithmetic shows up here within seconds.

The values hold for the numpy / OpenBLAS build these tests were pinned on
(numpy 2.4, OpenBLAS 0.3.31, x86-64). Another BLAS or CPU kernel may change
the last bits of the learned runs. A change that alters behaviour on
purpose updates these values in a commit of its own, saying why.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leoroute import nn
from leoroute.constellation import build_walker
from leoroute.env import Featurizer, ObsRouter
from leoroute.harness import run_train
from leoroute.linkmodel import RateModel
from leoroute.metrics import report_from_sim
from leoroute.netsim import Simulator, TrafficConfig
from leoroute.routing import ActorPolicy, RandomRouter, SpfRouter
from leoroute.scenario import desk_scenario, paper_scale_scenario, scenario_hash

CHECKPOINT = (Path(__file__).resolve().parent.parent / "perfbench" / "data"
              / "primal_cvar_desk_seed1.npz")
SEED = 1

EVAL_GOLDENS = {
    # name: (report sha256, trace digest)
    "spf": ("d448e085464b99e41a938fef368c6cdd41d8319891e25be77b3e649320ea3d8e",
            "956396007284056d3db9204714949de3"),
    "random": ("0a8a87b6cfcad9d0ae84b2dbef38c7e7c2f996c8a2b09a6a4ae80471d6d17c78",
               "b01c2321358df1de6ba078bbe3aa3c62"),
    "primal-cvar-checkpoint": (
        "da425bf946faca99e59219dbe32b084f853d0c04cc8ef1033f3ae4cb23337608",
        "3b8e528c02361b58f6b0f5e89412b672"),
}

SCENARIO_GOLDENS = {
    # name: (report sha256, trace digest)
    "desk-spf-physical-120s": (
        "cbcf04be8bd899bd0f2dcfc2d33d81cfe83fe69a5f4344fd9926b9c3d3c5d277",
        "82ed6b04f8c76c7238879c218b6e4b8e"),
    "paper-scale-spf-0.5s": (
        "46aa78e13837b819314443dae2e0c0da644969904bad7fa627736d629cc53c8a",
        "167269617dc7825ea75436253d8e6d39"),
}

TRAIN_GOLDENS = {
    # algo: (parameter digest, report sha256, diagnostics sha256)
    "madqn": (
        "7095dbf6a9b5211278b9cc6ecd8fac7f614d1e55005806036a642b97a0a1089c",
        "01432e70e4a58f82ceb706b6a1f508ff14745d8298c7f5fbc7a6ec9f038777f1",
        "4bb875414e445b1a26f72c1ba6fbf16517b804ed88458ebe10f8ad885e662525"),
    "primal-avg": (
        "d6736b8a8cd10fc1a7b4e3af23878ef99bbb4030967a5db8ad36077325780935",
        "0fa378da2dce6414c1510b6876f692b58c19baf20e869f6962a49e9a754b77fb",
        "0b1e95fd5e732c8d2dff38e4b12691f3abc28ed36420dada99bf788b8501ecce"),
    "primal-cvar": (
        "31b0b1e09ee2d33ecd2a564b62b2626ebb238c2b8e152ed6c0731558d7e33efa",
        "0fa378da2dce6414c1510b6876f692b58c19baf20e869f6962a49e9a754b77fb",
        "ec348ed6ef6d385022249e0c7ed0d7722bdc3d6441656fee68e80b514d379244"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def params_digest(blocks: dict) -> str:
    """sha256 over every block and key in sorted order: names, dtype, shape
    and raw bytes of each array."""
    h = hashlib.sha256()
    for name in sorted(blocks):
        for key in sorted(blocks[name]):
            arr = np.ascontiguousarray(blocks[name][key])
            h.update(f"{name}/{key}/{arr.dtype.str}/{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _eval_router(name: str, sc):
    if name == "spf":
        return SpfRouter(ref_size_bits=sc.traffic.max_size_bits)
    if name == "random":
        return RandomRouter(SEED)
    blocks, _, _ = nn.load_checkpoint(CHECKPOINT)
    featurizer = Featurizer(build_walker(sc.walker), len(sc.stations),
                            sc.sim.ttl_hops, sc.traffic.max_size_bits)
    return ObsRouter(featurizer, ActorPolicy(blocks["actor"], mode="eval"))


@pytest.mark.parametrize("name", sorted(EVAL_GOLDENS))
def test_eval_golden(name):
    base = desk_scenario()
    sc = desk_scenario(run=replace(base.run, eval_epoch_s=1.0))
    sim = Simulator(build_walker(sc.walker), sc.stations, sc.sim,
                    replace(sc.traffic, seed=SEED), _eval_router(name, sc),
                    epoch_s=sc.run.eval_epoch_s, trace=True)
    sim.run()
    report = report_from_sim(sim, sc.run.dqmax_s, scenario_hash(sc), SEED)
    got = (_sha256(report.to_json()), sim.trace_digest())
    assert got == EVAL_GOLDENS[name]


def _scenario(name: str):
    """SPF runs on code the desk goldens do not reach. The physical desk
    run uses distance-dependent ISL and GSL rates for long enough that
    stations hand over between access satellites; the paper-scale run
    covers the 1,584-satellite geometry."""
    if name == "desk-spf-physical-120s":
        base = desk_scenario()
        sim_cfg = replace(base.sim, gsl_rate_model=RateModel("physical"),
                          isl_rate_model=RateModel("physical"))
        return desk_scenario(sim=sim_cfg, traffic=TrafficConfig(50.0),
                             run=replace(base.run, eval_epoch_s=120.0))
    base = paper_scale_scenario()
    return paper_scale_scenario(traffic=TrafficConfig(1000.0),
                                run=replace(base.run, eval_epoch_s=0.5))


@pytest.mark.parametrize("name", sorted(SCENARIO_GOLDENS))
def test_scenario_golden(name):
    sc = _scenario(name)
    sim = Simulator(build_walker(sc.walker), sc.stations, sc.sim,
                    replace(sc.traffic, seed=SEED),
                    SpfRouter(ref_size_bits=sc.traffic.max_size_bits),
                    epoch_s=sc.run.eval_epoch_s, trace=True)
    sim.run()
    if name == "desk-spf-physical-120s":
        # a station handed over: some station was served by two satellites
        assert len(sim.down_queues) > sim.num_gs
    report = report_from_sim(sim, sc.run.dqmax_s, scenario_hash(sc), SEED)
    got = (_sha256(report.to_json()), sim.trace_digest())
    assert got == SCENARIO_GOLDENS[name]


@pytest.mark.parametrize("algo", sorted(TRAIN_GOLDENS))
def test_train_golden(algo):
    """Two epochs, so the collector is reset between them, with reports
    every 0.1 s, so the diagnostics carry the learner's state over time."""
    base = desk_scenario()
    sc = desk_scenario(run=replace(base.run, epoch_s=0.5, epochs=2,
                                   report_interval_s=0.1))
    result = run_train(sc, algo, SEED)
    assert result.diagnostics and all("step" in row for row in result.diagnostics)
    got = (params_digest(result.learner.blocks()), _sha256(result.report.to_json()),
           _sha256(json.dumps(result.diagnostics, sort_keys=True)))
    assert got == TRAIN_GOLDENS[algo]
