"""Golden digests: pin the exact output of short runs across commits.

Each test runs one short, seeded run and compares hex digests of its
output with literal values: the sha256 of ``MetricsReport.to_json()`` and,
for evaluation runs, the simulator's ``trace_digest()``; for training runs,
a digest of every learned parameter block. Any change to event
order, routing decisions, observations, RNG streams or float arithmetic
shows up here within seconds.

The values hold for the numpy / OpenBLAS build these tests were pinned on
(numpy 2.4, OpenBLAS 0.3.31, x86-64). Another BLAS or CPU kernel may change
the last bits of the learned runs. A change that alters behaviour on
purpose updates these values in a commit of its own, saying why.
"""

import hashlib
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
    # algo: (parameter digest, report sha256)
    "primal-cvar": (
        "ff990598d04c6cb1df8d842e2e29ec41bcc5096e717598a4cd8f7c1bc7fa6148",
        "96c6e43eb6ddd1e0f7c7f0c333be5b23a05d495219409f9cb41a572726bc7887"),
    "madqn": (
        "37c286fbd96ca5037c8462b69f143ac020b7845a6350f3aa1c9a318655386fb9",
        "2419546c1013af0d7190369eda5abf840d2c7c7a01dcbeff23b610508fbab0c3"),
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
    base = desk_scenario()
    sc = desk_scenario(run=replace(base.run, epoch_s=0.5, epochs=1))
    result = run_train(sc, algo, SEED)
    got = (params_digest(result.learner.blocks()), _sha256(result.report.to_json()))
    assert got == TRAIN_GOLDENS[algo]
