import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leoroute import nn
from leoroute.errors import ConfigurationError
from leoroute.harness import canonical_algo, compare, run_eval, run_train
from leoroute.metrics import MetricsReport, empirical_cvar, report_from_sim
from leoroute.netsim import run_epoch
from leoroute.scenario import (
    RunConfig,
    Scenario,
    desk_scenario,
    load_scenario,
    paper_scale_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
)
from leoroute.learner import LearnerConfig
from leoroute.netsim import TrafficConfig

STORED_CHECKPOINT = (Path(__file__).resolve().parent.parent / "perfbench" / "data"
                     / "primal_cvar_desk_seed1.npz")


def tiny_scenario(**run_kw) -> Scenario:
    run = dict(epoch_s=2.0, epochs=1, report_interval_s=0.5,
               train_interval_s=0.05, dqmax_s=0.01, hidden_dim=16, seed=0)
    run.update(run_kw)
    return desk_scenario(
        traffic=TrafficConfig(rate_pps=250.0),
        learner=LearnerConfig(batch_size=64, n_quantiles=4, n_target_quantiles=4,
                              n_cvar_samples=8, eta=0.05, buffer_capacity=50_000),
        run=RunConfig(**run),
    )


# -- empirical CVaR ------------------------------------------------------------

def test_empirical_cvar_half_tail():
    assert empirical_cvar([1, 2, 3, 4], 0.5) == 3.5


def test_empirical_cvar_eps_one_is_mean():
    assert empirical_cvar([1, 2, 3, 4], 1.0) == 2.5


def test_empirical_cvar_all_equal():
    for eps in (0.1, 0.25, 0.5, 1.0):
        assert empirical_cvar([7.0] * 10, eps) == 7.0


def test_empirical_cvar_empty_none():
    assert empirical_cvar([], 0.5) is None


def test_empirical_cvar_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        xs = rng.normal(size=n)
        eps = float(rng.uniform(0.05, 1.0))
        k = math.ceil(eps * n)
        want = float(np.sort(xs)[-k:].mean())
        assert empirical_cvar(xs, eps) == pytest.approx(want, rel=1e-12)


def test_empirical_cvar_at_least_mean():
    rng = np.random.default_rng(1)
    for _ in range(30):
        xs = rng.exponential(size=50)
        for eps in (0.1, 0.25, 0.9, 1.0):
            assert empirical_cvar(xs, eps) >= xs.mean() - 1e-12


def test_empirical_cvar_invalid_eps():
    with pytest.raises(ValueError):
        empirical_cvar([1.0], 0.0)


# -- scenario files ----------------------------------------------------------------

def test_scenario_yaml_roundtrip(tmp_path):
    s = desk_scenario()
    path = tmp_path / "s.yaml"
    save_scenario(s, path)
    s2 = load_scenario(path)
    assert scenario_to_dict(s) == scenario_to_dict(s2)
    assert scenario_hash(s) == scenario_hash(s2)


def test_scenario_unknown_keys_rejected():
    d = scenario_to_dict(desk_scenario())
    d["unknown_section"] = {}
    with pytest.raises(ConfigurationError):
        scenario_from_dict(d)
    d2 = scenario_to_dict(desk_scenario())
    d2["walker"]["bogus"] = 1
    with pytest.raises(ConfigurationError):
        scenario_from_dict(d2)


def test_scenario_hash_changes_with_content():
    a = desk_scenario()
    b = desk_scenario(traffic=TrafficConfig(rate_pps=123.0))
    assert scenario_hash(a) != scenario_hash(b)


def test_paper_scale_counts():
    s = paper_scale_scenario()
    assert s.walker.num_satellites == 1584
    assert s.traffic.rate_pps == 10_000.0
    assert s.run.epoch_s == 30.0


# -- metrics from runs ---------------------------------------------------------------

def test_zero_traffic_empty_report():
    s = tiny_scenario()
    report = run_epoch(replace(s, traffic=TrafficConfig(0.0)), duration=1.0)
    assert report.generated == 0 and report.delivered == 0
    assert report.drop_rate == 0.0 and report.throughput_bps == 0.0


def test_report_identities_random_run():
    s = tiny_scenario()
    report = run_epoch(s, duration=2.0, seed=5)
    assert report.generated == report.delivered + report.dropped + (
        report.generated - report.delivered - report.dropped)
    if report.delivered:
        assert report.queuing_cvar_s >= report.queuing_mean_s - 1e-12
        assert 0.0 <= report.drop_rate <= 1.0
        comp = report.delay_components_s
        assert comp["propagation"] + comp["transmission"] + comp["queuing"] == \
            pytest.approx(report.e2e_mean_s, rel=1e-9)


def test_report_violations_include_drops():
    s = tiny_scenario()
    report = run_epoch(s, duration=2.0, seed=6)
    if report.generated:
        assert report.violation_rate * report.generated >= report.dropped - 1e-9


def test_report_json_roundtrip():
    s = tiny_scenario()
    report = run_epoch(s, duration=1.0, seed=7)
    d = json.loads(report.to_json())
    again = MetricsReport.from_dict(d)
    assert again.to_dict() == report.to_dict()


# -- training harness ------------------------------------------------------------------

def test_run_train_smoke_and_outputs(tmp_path):
    s = tiny_scenario()
    result = run_train(s, "PRIMAL-Avg", seed=1, out_dir=tmp_path / "run")
    assert len(result.diagnostics) >= 1
    assert result.learner.steps > 0
    assert (tmp_path / "run" / "checkpoint.npz").exists()
    assert (tmp_path / "run" / "diagnostics.jsonl").exists()
    assert (tmp_path / "run" / "scenario.yaml").exists()
    assert (tmp_path / "run" / "report.json").exists()


def test_run_train_deterministic_diagnostics():
    s = tiny_scenario()
    a = run_train(s, "primal-cvar", seed=3)
    b = run_train(s, "primal-cvar", seed=3)
    assert a.diagnostics == b.diagnostics
    assert a.report.to_dict() == b.report.to_dict()


def test_run_train_rejects_baselines():
    with pytest.raises(ConfigurationError):
        run_train(tiny_scenario(), "spf")


def test_canonical_algo_names():
    assert canonical_algo("PRIMAL-Avg") == "primal-avg"
    assert canonical_algo("PRIMAL-CVaR") == "primal-cvar"
    assert canonical_algo("MADQN") == "madqn"
    assert canonical_algo("SPF") == "spf"
    with pytest.raises(ConfigurationError):
        canonical_algo("dijkstra++")


# -- evaluation ------------------------------------------------------------------------

def test_run_eval_spf_baseline(tmp_path):
    s = tiny_scenario()
    result = run_eval(s, "spf", seeds=[1, 2], out_dir=tmp_path)
    assert len(result.per_seed) == 2
    assert result.aggregate.generated == sum(r.generated for r in result.per_seed)
    assert (tmp_path / "report.json").exists()


def test_run_eval_from_checkpoint_embedded_scenario(tmp_path):
    s = tiny_scenario()
    tr = run_train(s, "madqn", seed=2, out_dir=tmp_path / "train")
    ev = run_eval(None, tr.checkpoint_path, seeds=[5])
    assert ev.algo == "madqn"
    assert ev.per_seed[0].generated > 0


def test_run_eval_train_result_greedy_deterministic():
    s = tiny_scenario()
    tr = run_train(s, "primal-avg", seed=4)
    e1 = run_eval(None, tr, seeds=[9])
    e2 = run_eval(None, tr, seeds=[9])
    assert e1.aggregate.to_dict() == e2.aggregate.to_dict()


def test_run_eval_baseline_requires_scenario():
    with pytest.raises(ConfigurationError):
        run_eval(None, "spf", seeds=[1])


def _reshaped_checkpoint(tmp_path, edit):
    """The stored desk PRIMAL-CVaR checkpoint with its blocks edited."""
    blocks, meta, _ = nn.load_checkpoint(STORED_CHECKPOINT)
    edit(blocks)
    path = tmp_path / "checkpoint.npz"
    nn.save_checkpoint(path, blocks, meta)
    return path


def _head_with(n_actions):
    def edit(blocks):
        actor = blocks["actor"]
        actor["w2"] = np.zeros((actor["w2"].shape[0], n_actions))
        actor["b2"] = np.zeros(n_actions)
    return edit


@pytest.mark.parametrize("n_actions", [3, 5])
def test_run_eval_rejects_checkpoint_head_of_wrong_width(tmp_path, n_actions):
    # a wider head could pick an action that is not a grid direction, a
    # narrower one would silently never route East
    path = _reshaped_checkpoint(tmp_path, _head_with(n_actions))
    with pytest.raises(ConfigurationError,
                       match=rf"'actor'.*'w2': \(64, 4\).*'w2': \(64, {n_actions}\)"):
        run_eval(None, path, seeds=[1])


def test_run_eval_rejects_checkpoint_without_policy_block(tmp_path):
    path = _reshaped_checkpoint(tmp_path, lambda blocks: blocks.pop("actor"))
    with pytest.raises(ConfigurationError, match="'actor'.*no such block"):
        run_eval(None, path, seeds=[1])


# -- comparison -------------------------------------------------------------------------

def test_compare_identical_reports_zero_delta(tmp_path):
    s = tiny_scenario()
    r = run_eval(s, "random", seeds=[1])
    d1 = {"algo": "a", **r.aggregate.to_dict()}
    d2 = {"algo": "b", **r.aggregate.to_dict()}
    table = compare([d1, d2], out_dir=tmp_path)
    lines = [l for l in table.splitlines() if l and not l.startswith("-")]
    a_row = next(l for l in lines if l.startswith("a"))
    b_row = next(l for l in lines if l.startswith("b"))
    assert a_row[1:] == b_row[1:]
    assert (tmp_path / "table.txt").exists()
    assert (tmp_path / "delay_components.dat").exists()


def test_compare_table_columns_match_schema():
    s = tiny_scenario()
    r = run_eval(s, "random", seeds=[1])
    table = compare([{"algo": "x", **r.aggregate.to_dict()},
                     {"algo": "y", **r.aggregate.to_dict()}])
    head = table.splitlines()[0]
    for col in ("Throughput", "Drop Rate", "E2E Delay", "Queuing Delay",
                "Queuing CVaR(0.25)", "Violation Rate", "Violation Magnitude"):
        assert col in head


def test_compare_warns_on_mismatched_scenarios():
    s = tiny_scenario()
    r1 = run_eval(s, "random", seeds=[1]).aggregate.to_dict()
    r2 = dict(r1)
    r2["scenario_hash"] = "deadbeef"
    table = compare([{"algo": "a", **r1}, {"algo": "b", **r2}])
    assert table.startswith("WARNING")


def test_compare_requires_two_reports():
    with pytest.raises(ConfigurationError):
        compare([{"algo": "only", "throughput_bps": 0}])


# -- CLI ---------------------------------------------------------------------------------

def test_cli_train_eval_compare(tmp_path):
    from leoroute.cli import main

    s = tiny_scenario()
    spath = tmp_path / "scenario.yaml"
    save_scenario(s, spath)
    assert main(["train", "--scenario", str(spath), "--algo", "PRIMAL-Avg",
                 "--seed", "1", "--out", str(tmp_path / "t1")]) == 0
    assert main(["eval", "--checkpoint", str(tmp_path / "t1" / "checkpoint.npz"),
                 "--seeds", "1,2", "--out", str(tmp_path / "e1")]) == 0
    assert main(["eval", "--baseline", "spf", "--scenario", str(spath),
                 "--seeds", "1,2", "--out", str(tmp_path / "e2")]) == 0
    assert main(["compare", str(tmp_path / "e1" / "report.json"),
                 str(tmp_path / "e2" / "report.json"),
                 "--out", str(tmp_path / "cmp")]) == 0
    assert (tmp_path / "cmp" / "table.txt").exists()
