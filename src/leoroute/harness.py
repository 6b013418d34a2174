"""Experiment orchestration: training runs, greedy evaluation over seeds,
and side-by-side comparison tables with plot-ready data files.

Every output embeds the scenario hash and seed; re-running a command with
the same inputs reproduces byte-identical metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import nn
from .constellation import build_walker
from .env import OBS_DIM, Featurizer, ObsRouter, TransitionCollector
from .errors import ConfigurationError
from .learner import MODE_AVG, MODE_CVAR, MadqnLearner, PrimalLearner, ReplayBuffer
from .metrics import MetricsReport, aggregate_reports, empirical_cvar, report_from_sim
from .netsim import Simulator, TrafficConfig
from .routing import ActorPolicy, EpsilonGreedyPolicy, RandomRouter, SpfRouter
from .scenario import Scenario, scenario_from_dict, scenario_hash, scenario_to_dict, save_scenario

ALGO_PRIMAL_AVG = "primal-avg"
ALGO_PRIMAL_CVAR = "primal-cvar"
ALGO_MADQN = "madqn"
ALGO_SPF = "spf"
ALGO_RANDOM = "random"
LEARNED_ALGOS = (ALGO_PRIMAL_AVG, ALGO_PRIMAL_CVAR, ALGO_MADQN)


def canonical_algo(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if key in (ALGO_PRIMAL_AVG, ALGO_PRIMAL_CVAR, ALGO_MADQN, ALGO_SPF, ALGO_RANDOM):
        return key
    raise ConfigurationError(f"unknown algorithm '{name}'")


def _architecture(scenario: Scenario) -> nn.Architecture:
    return nn.Architecture(input_dim=OBS_DIM, hidden_dim=scenario.run.hidden_dim,
                           n_actions=4)


def build_learner(scenario: Scenario, algo: str, seed: int):
    arch = _architecture(scenario)
    if algo == ALGO_PRIMAL_AVG:
        cfg = replace(scenario.learner, mode=MODE_AVG)
        return PrimalLearner(arch, cfg, scenario.lagrange_state(), seed=seed)
    if algo == ALGO_PRIMAL_CVAR:
        cfg = replace(scenario.learner, mode=MODE_CVAR)
        return PrimalLearner(arch, cfg, scenario.lagrange_state(), seed=seed)
    if algo == ALGO_MADQN:
        m = scenario.madqn
        return MadqnLearner(arch, scenario.learner, seed=seed,
                            cost_sign=m.cost_sign, eps_start=m.eps_start,
                            eps_end=m.eps_end, eps_decay_steps=m.eps_decay_steps)
    raise ConfigurationError(f"'{algo}' is not a trainable algorithm")


@dataclass
class TrainResult:
    algo: str
    seed: int
    scenario: Scenario
    diagnostics: list[dict]
    report: MetricsReport
    learner: object
    checkpoint_path: Optional[Path] = None
    pending_discarded: int = 0


def run_train(scenario: Scenario, algo: str, seed: Optional[int] = None,
              out_dir: Optional[Union[str, Path]] = None) -> TrainResult:
    """Train one algorithm on the scenario: simulation events interleaved
    with training ticks, metrics every report interval, one checkpoint at
    the end."""
    algo = canonical_algo(algo)
    if algo not in LEARNED_ALGOS:
        raise ConfigurationError(f"'{algo}' cannot be trained; use run_eval")
    seed = scenario.run.seed if seed is None else seed
    ss = np.random.SeedSequence([seed, 17])
    learner_seed, policy_seed, buffer_seed = [
        int(s.generate_state(1)[0]) for s in ss.spawn(3)]

    constellation = build_walker(scenario.walker)
    featurizer = Featurizer(constellation, len(scenario.stations),
                            scenario.sim.ttl_hops, scenario.traffic.max_size_bits)
    learner = build_learner(scenario, algo, learner_seed)
    n_costs = len(scenario.lagrange_thresholds)
    buffer = ReplayBuffer(scenario.learner.buffer_capacity, OBS_DIM,
                          n_costs=n_costs, seed=buffer_seed)
    if algo == ALGO_MADQN:
        policy = EpsilonGreedyPolicy(learner.q, learner.epsilon, policy_seed)
    else:
        policy = ActorPolicy(learner.actor, mode="train", seed=policy_seed)
    collector = TransitionCollector(featurizer, policy, scenario.reward, buffer)

    diagnostics: list[dict] = []
    latest_train: dict = {}
    s_hash = scenario_hash(scenario)
    discarded = 0
    sim = None
    for epoch in range(scenario.run.epochs):
        traffic = replace(scenario.traffic, seed=seed * 1000 + epoch)
        sim = Simulator(constellation, scenario.stations, scenario.sim, traffic,
                        collector, epoch_s=scenario.run.epoch_s,
                        metrics_interval_s=scenario.run.report_interval_s,
                        train_interval_s=scenario.run.train_interval_s)

        def on_train(now_ns, _learner=learner, _buffer=buffer):
            diag = _learner.train_step(_buffer)
            if algo == ALGO_MADQN:
                policy.epsilon = _learner.epsilon   # follow the decay schedule
            if diag is not None:
                latest_train.clear()
                latest_train.update(diag)

        def on_metrics(row, _epoch=epoch):
            diagnostics.append({"epoch": _epoch, **row, **latest_train})

        sim.train_hook = on_train
        sim.metrics_hook = on_metrics
        sim.run()
        discarded += collector.reset_pending()

    report = report_from_sim(sim, scenario.run.dqmax_s, s_hash, seed)
    result = TrainResult(algo=algo, seed=seed, scenario=scenario,
                         diagnostics=diagnostics, report=report,
                         learner=learner, pending_discarded=discarded)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_scenario(scenario, out / "scenario.yaml")
        with open(out / "diagnostics.jsonl", "w") as fh:
            for row in diagnostics:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        ck = out / "checkpoint.npz"
        meta = {"algo": algo, "seed": seed, "scenario": scenario_to_dict(scenario),
                "scenario_hash": s_hash}
        nn.save_checkpoint(ck, learner.blocks(), meta)
        result.checkpoint_path = ck
        payload = {"algo": algo, "kind": "train", **report.to_dict(),
                   "diagnostics": diagnostics}
        (out / "report.json").write_text(json.dumps(payload, sort_keys=True))
    return result


# ---------------------------------------------------------------------------
# evaluation

def _check_policy_block(scenario: Scenario, algo: str, blocks: dict) -> None:
    """Fail unless the block the evaluated policy reads has exactly the
    shapes the scenario's architecture gives it."""
    name = "q" if algo == ALGO_MADQN else "actor"
    arch = _architecture(scenario)
    want = {k: v.shape for k, v in nn.init_mlp(arch, np.random.default_rng(0)).items()}
    block = blocks.get(name)
    got = None if block is None else {k: np.shape(v) for k, v in block.items()}
    if got != want:
        raise ConfigurationError(
            f"checkpoint block '{name}' does not fit the scenario's {arch}: "
            f"expected shapes {want}, found {'no such block' if got is None else got}")


def _eval_router(scenario: Scenario, algo: str, blocks: Optional[dict], seed: int):
    if algo == ALGO_SPF:
        return SpfRouter(ref_size_bits=scenario.traffic.max_size_bits)
    if algo == ALGO_RANDOM:
        return RandomRouter(seed)
    constellation = build_walker(scenario.walker)
    featurizer = Featurizer(constellation, len(scenario.stations),
                            scenario.sim.ttl_hops, scenario.traffic.max_size_bits)
    if algo == ALGO_MADQN:
        policy = EpsilonGreedyPolicy(blocks["q"], epsilon=0.0)
    else:
        policy = ActorPolicy(blocks["actor"], mode="eval")
    return ObsRouter(featurizer, policy)


@dataclass
class EvalResult:
    algo: str
    seeds: list[int]
    per_seed: list[MetricsReport]
    aggregate: MetricsReport
    scenario: Scenario
    report_path: Optional[Path] = None


def run_eval(scenario: Optional[Scenario], policy_source, seeds,
             out_dir: Optional[Union[str, Path]] = None,
             label: Optional[str] = None) -> EvalResult:
    """Greedy evaluation over the given seeds, no learning. ``policy_source``
    is a checkpoint path, a TrainResult, or a baseline name ('spf' or
    'random'). The scenario may be omitted when it is embedded in the
    checkpoint."""
    blocks = None
    if isinstance(policy_source, TrainResult):
        algo = policy_source.algo
        blocks = policy_source.learner.blocks()
        scenario = scenario if scenario is not None else policy_source.scenario
    elif isinstance(policy_source, (str, Path)) and str(policy_source) not in (
            ALGO_SPF, ALGO_RANDOM):
        blocks, meta, _ = nn.load_checkpoint(policy_source)
        algo = meta["algo"]
        if scenario is None:
            scenario = scenario_from_dict(meta["scenario"])
    else:
        algo = canonical_algo(str(policy_source))
        if scenario is None:
            raise ConfigurationError("baseline evaluation needs a scenario")

    if blocks is not None:
        _check_policy_block(scenario, algo, blocks)
    seeds = [int(s) for s in seeds]
    s_hash = scenario_hash(scenario)
    constellation = build_walker(scenario.walker)
    epoch = scenario.run.eval_epoch_s or scenario.run.epoch_s
    per_seed = []
    for sd in seeds:
        router = _eval_router(scenario, algo, blocks, sd)
        traffic = replace(scenario.traffic, seed=sd)
        sim = Simulator(constellation, scenario.stations, scenario.sim, traffic,
                        router, epoch_s=epoch)
        sim.run()
        per_seed.append(report_from_sim(sim, scenario.run.dqmax_s, s_hash, sd))
    agg = aggregate_reports(per_seed)
    result = EvalResult(algo=algo, seeds=seeds, per_seed=per_seed,
                        aggregate=agg, scenario=scenario)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = {"algo": label or algo, "kind": "eval", **agg.to_dict(),
                   "per_seed": [r.to_dict() for r in per_seed]}
        path = out / "report.json"
        path.write_text(json.dumps(payload, sort_keys=True))
        result.report_path = path
    return result


# ---------------------------------------------------------------------------
# comparison

_COLUMNS = (
    ("Throughput", lambda r: f"{r['throughput_bps'] / 1e6:.1f} Mbps"),
    ("Drop Rate", lambda r: f"{100 * r['drop_rate']:.2f}%"),
    ("E2E Delay", lambda r: f"{1e3 * r['e2e_mean_s']:.1f} +/- {1e3 * r['e2e_std_s']:.1f} ms"),
    ("Queuing Delay", lambda r: f"{1e3 * r['queuing_mean_s']:.1f} +/- {1e3 * r['queuing_std_s']:.1f} ms"),
    ("Queuing CVaR(0.25)", lambda r: f"{1e3 * (r['queuing_cvar_s'] or 0.0):.1f} ms"),
    ("Violation Rate", lambda r: f"{100 * r['violation_rate']:.1f}%"),
    ("Violation Magnitude", lambda r: (
        f"{1e3 * r['violation_magnitude_mean_s']:.2f} +/- "
        f"{1e3 * r['violation_magnitude_std_s']:.2f} ms")),
)


def _load_report(item) -> dict:
    if isinstance(item, (str, Path)):
        d = json.loads(Path(item).read_text())
        d.setdefault("algo", Path(item).stem)
        return d
    if isinstance(item, MetricsReport):
        return {"algo": "report", **item.to_dict()}
    return dict(item)


def compare(reports, out_dir: Optional[Union[str, Path]] = None) -> str:
    """Aligned comparison table over >= 2 evaluation/training reports, plus
    columnar plot data (training curves, delay histograms, delay-component
    breakdown). Returns the table as text."""
    loaded = [_load_report(r) for r in reports]
    if len(loaded) < 2:
        raise ConfigurationError("compare needs at least two reports")
    hashes = {d.get("scenario_hash", "") for d in loaded}
    warning = None
    if len(hashes) > 1:
        warning = "WARNING: reports come from different scenarios " + str(sorted(hashes))

    labels = [d.get("algo", f"report{i}") for i, d in enumerate(loaded)]
    width = max(len(x) for x in labels + ["Algorithm"]) + 2
    headers = ["Algorithm"] + [c[0] for c in _COLUMNS]
    cells = []
    for label, d in zip(labels, loaded):
        cells.append([label] + [fmt(d) for _, fmt in _COLUMNS])
    widths = [max(len(row[i]) for row in cells + [headers]) + 2
              for i in range(len(headers))]
    lines = []
    if warning:
        lines.append(warning)
    lines.append("".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-" * sum(widths))
    for row in cells:
        lines.append("".join(x.ljust(w) for x, w in zip(row, widths)))
    table = "\n".join(lines)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "table.txt").write_text(table + "\n")
        comp_lines = ["# algo propagation_ms transmission_ms queuing_ms"]
        for label, d in zip(labels, loaded):
            comps = d.get("delay_components_s") or {}
            if comps:
                comp_lines.append(
                    f"{label} {1e3 * comps['propagation']:.6f} "
                    f"{1e3 * comps['transmission']:.6f} {1e3 * comps['queuing']:.6f}")
        (out / "delay_components.dat").write_text("\n".join(comp_lines) + "\n")
        for label, d in zip(labels, loaded):
            safe = label.replace("/", "_")
            for key in ("e2e", "queuing"):
                hist = (d.get("histograms") or {}).get(key)
                if not hist:
                    continue
                rows = ["# bin_low_s bin_high_s count"]
                edges, counts = hist["edges"], hist["counts"]
                for i, c in enumerate(counts):
                    rows.append(f"{edges[i]:.9f} {edges[i + 1]:.9f} {c}")
                (out / f"hist_{key}_{safe}.dat").write_text("\n".join(rows) + "\n")
            diag = d.get("diagnostics")
            if diag:
                rows = ["# t_s drop_rate mean_e2e_s mean_queue_s queue_cvar_s"]
                for row in diag:
                    rows.append(f"{row['t_s']:.3f} {row['drop_rate']:.6f} "
                                f"{row['mean_e2e_s']:.9f} {row['mean_queue_s']:.9f} "
                                f"{row.get('queue_cvar_s', 0.0):.9f}")
                (out / f"curves_{safe}.dat").write_text("\n".join(rows) + "\n")
    return table
