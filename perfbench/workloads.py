"""The four benchmark workloads.

Each workload is a scenario built from a leoroute preset, one call into the
public API the CLI uses (``run_eval`` or ``run_train``), and a set-up
routine that builds, through public constructors, the components that call
builds before its event loop starts: the constellation, the traffic stream,
the simulator with its first topology refresh and routing tables, and for
training the learner and replay buffer. Why each workload was chosen is in
README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from leoroute import (
    Featurizer,
    ObsRouter,
    ReplayBuffer,
    Scenario,
    Simulator,
    SpfRouter,
    TrafficConfig,
    TransitionCollector,
    build_walker,
    desk_scenario,
    paper_scale_scenario,
    run_eval,
    run_train,
)
from leoroute.env import OBS_DIM
from leoroute.harness import ALGO_PRIMAL_CVAR, build_learner
from leoroute.nn import load_checkpoint
from leoroute.routing import ActorPolicy

# PRIMAL-CVaR desk checkpoint; README.md has the command that made it.
CHECKPOINT = Path(__file__).resolve().parent / "data" / "primal_cvar_desk_seed1.npz"
CHECKPOINT_SHA256 = "5786e29e2508983d2806564fb02d128e944bdc7ee7cf7ff982b05e5178d0a716"


@dataclass(frozen=True)
class Workload:
    name: str
    sim_s: float                                  # simulated seconds per call
    seeds: int                                    # traffic seeds per run
    scenario: Callable[[float], Scenario]
    call: Callable                                # (scenario, seed) -> MetricsReport
    setup: Callable                               # (scenario, seed) -> objects
    checkpoint: bool = False


def _desk_eval(sim_s: float) -> Scenario:
    base = desk_scenario()
    return desk_scenario(run=replace(base.run, eval_epoch_s=sim_s))


def _mega_light(sim_s: float) -> Scenario:
    base = paper_scale_scenario()
    return paper_scale_scenario(traffic=TrafficConfig(rate_pps=1000.0),
                                run=replace(base.run, eval_epoch_s=sim_s))


def _desk_train(sim_s: float) -> Scenario:
    base = desk_scenario()
    return desk_scenario(run=replace(base.run, epoch_s=sim_s, epochs=1))


def _simulator(sc: Scenario, seed: int, router, epoch_s: float, **kw) -> Simulator:
    constellation = build_walker(sc.walker)
    return Simulator(constellation, sc.stations, sc.sim,
                     replace(sc.traffic, seed=seed), router, epoch_s=epoch_s, **kw)


def _featurizer(sc: Scenario) -> Featurizer:
    return Featurizer(build_walker(sc.walker), len(sc.stations),
                      sc.sim.ttl_hops, sc.traffic.max_size_bits)


def _spf_call(sc: Scenario, seed: int):
    return run_eval(sc, "spf", [seed]).per_seed[0]


def _spf_setup(sc: Scenario, seed: int):
    return _simulator(sc, seed, SpfRouter(sc.traffic.max_size_bits),
                      sc.run.eval_epoch_s)


def _cvar_eval_call(sc: Scenario, seed: int):
    return run_eval(sc, CHECKPOINT, [seed]).per_seed[0]


def _cvar_eval_setup(sc: Scenario, seed: int):
    blocks, _, _ = load_checkpoint(CHECKPOINT)
    router = ObsRouter(_featurizer(sc), ActorPolicy(blocks["actor"], mode="eval"))
    return _simulator(sc, seed, router, sc.run.eval_epoch_s)


def _cvar_train_call(sc: Scenario, seed: int):
    return run_train(sc, ALGO_PRIMAL_CVAR, seed).report


def _cvar_train_setup(sc: Scenario, seed: int):
    learner = build_learner(sc, ALGO_PRIMAL_CVAR, seed)
    buffer = ReplayBuffer(sc.learner.buffer_capacity, OBS_DIM,
                          n_costs=len(sc.lagrange_thresholds), seed=seed)
    policy = ActorPolicy(learner.actor, mode="train", seed=seed)
    collector = TransitionCollector(_featurizer(sc), policy, sc.reward, buffer)
    return learner, _simulator(sc, seed * 1000, collector, sc.run.epoch_s,
                               metrics_interval_s=sc.run.report_interval_s,
                               train_interval_s=sc.run.train_interval_s)


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-spf", 5.0, 6, _desk_eval, _spf_call, _spf_setup),
        Workload("mega-spf-light", 1.0, 12, _mega_light, _spf_call, _spf_setup),
        Workload("desk-cvar-eval", 1.0, 10, _desk_eval, _cvar_eval_call,
                 _cvar_eval_setup, checkpoint=True),
        Workload("desk-cvar-train", 1.0, 5, _desk_train, _cvar_train_call,
                 _cvar_train_setup),
    )
}
