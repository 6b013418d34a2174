"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7 and 9 are exact or synthetic-task checks and run in a few
minutes; criterion 8 trains every learning algorithm on the desk scenario
over three seeds (two workers in parallel) and verifies the directional
trends, within its stated runtime budget; it stops at that budget, or as
soon as the finished jobs rule a trend out. Run with ``pytest -v -s``.
"""

import math
import multiprocessing as mp
import time
from dataclasses import replace

import mpmath as mp_math
import numpy as np
import pytest

from leoroute import nn
from leoroute.constellation import GroundStation, WalkerConfig, build_walker, gs_id
from leoroute.harness import run_eval, run_train
from leoroute.learner import (
    Batch,
    LagrangeState,
    LearnerConfig,
    PrimalLearner,
    ReplayBuffer,
    quantile_huber_loss,
)
from leoroute.metrics import empirical_cvar
from leoroute.netsim import NS_PER_S, SimConfig, Simulator, TrafficConfig
from leoroute.routing import GraphSnapshot, SpfRouter, spf_tables
from leoroute.scenario import desk_scenario

mp_math.mp.dps = 50

CITIES = [
    GroundStation(gs_id(0), 49.6116, 6.1319, 10.0, "luxembourg"),
    GroundStation(gs_id(1), 25.2048, 55.2708, 10.0, "dubai"),
    GroundStation(gs_id(2), 39.9042, 116.4074, 10.0, "beijing"),
]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}  {detail}")
    assert ok, f"{criterion}: {detail}"


# =============================================================================
# Criterion 1: link-formula oracle suite (rel err <= 1e-12, runtime < 1 s)

def test_criterion_1_formula_oracles():
    from leoroute.linkmodel import (
        IslParams,
        fspl,
        propagation_delay,
        queuing_delay,
        rate_gsl,
        rate_isl,
        transmission_delay,
    )

    start = time.time()
    c = mp_math.mpf(299_792_458)
    rng = np.random.default_rng(12345)
    worst = 0.0

    def rel(got, want):
        if want == 0.0:
            return abs(got)
        return abs(got - want) / abs(want)

    for _ in range(1000):
        d = float(rng.uniform(1.0, 9e6))
        f = float(rng.uniform(1e9, 40e9))
        bits = float(rng.uniform(1.0, 1e6))
        rate = float(rng.uniform(1e4, 1e10))
        b = float(rng.uniform(1e6, 1e10))
        snr = float(rng.uniform(0.0, 1e6))
        k1 = float(rng.uniform(0.1, 500.0))
        k2 = float(rng.uniform(1e-8, 1e-5))
        md, mf = mp_math.mpf(d), mp_math.mpf(f)
        worst = max(worst, rel(propagation_delay(d), float(md / c)))
        worst = max(worst, rel(fspl(d, f), float((4 * mp_math.pi * md * mf / c) ** 2)))
        worst = max(worst, rel(transmission_delay(bits, rate),
                               float(mp_math.mpf(bits) / mp_math.mpf(rate))))
        worst = max(worst, rel(queuing_delay(bits, rate),
                               float(mp_math.mpf(bits) / mp_math.mpf(rate))))
        worst = max(worst, rel(rate_gsl(b, snr),
                               float(mp_math.mpf(b) * mp_math.log(1 + mp_math.mpf(snr), 2))))
        want = float(mp_math.mpf(b) / 2 *
                     mp_math.log(1 + mp_math.mpf(k1) * mp_math.e ** (-mp_math.mpf(k2) * md), 2))
        worst = max(worst, rel(rate_isl(IslParams(b, k1, k2), d), want))

    anchor1 = transmission_delay(64_800, 50e6)
    anchor2 = propagation_delay(299_792_458.0)
    elapsed = time.time() - start
    ok = (worst <= 1e-12 and anchor1 == 1.296e-3 and anchor2 == 1.0
          and elapsed < 1.0)
    report("criterion 1 (formula oracle suite)", ok,
           f"worst rel err {worst:.2e}, 64.8Kbit@50Mbps={anchor1 * 1e3:.3f} ms, "
           f"runtime {elapsed:.2f} s")


# =============================================================================
# Criterion 2: simulator exactness on a ~1e5-packet run (runtime < 2 min)

def _exactness_sim(seed: int, trace: bool) -> Simulator:
    constellation = build_walker(WalkerConfig(12, 8, 600e3, 53.0, 1))
    sim = Simulator(constellation, CITIES, SimConfig(ttl_hops=24),
                    TrafficConfig(rate_pps=10_000.0, seed=seed),
                    SpfRouter(), epoch_s=10.0,
                    check_invariants=True, trace=trace)
    sim.run()
    return sim


def test_criterion_2_simulator_exactness():
    start = time.time()
    sim = _exactness_sim(seed=7, trace=True)
    n_packets = sim.generated

    conserve = sim.generated == sim.delivered + sim.dropped + sim.in_flight
    decompose = all(rec[2] == rec[3] + rec[4] + rec[5]
                    for rec in sim.delivered_records)
    dq_exact = sim.dq_prediction_mismatches == 0 and sim.uplink_stalls == 0

    sim2 = _exactness_sim(seed=7, trace=True)
    identical = (sim.trace_digest() == sim2.trace_digest()
                 and sim.delivered == sim2.delivered)

    elapsed = time.time() - start
    ok = (n_packets >= 99_000 and conserve and decompose and dq_exact
          and identical and elapsed < 120.0)
    report("criterion 2 (simulator exactness)", ok,
           f"{n_packets} packets, conservation={conserve}, "
           f"delay-identity={decompose}, dq-exact={dq_exact}, "
           f"replay-identical={identical}, runtime {elapsed:.1f} s")


# =============================================================================
# Criterion 3: SPF equals Floyd-Warshall on 100 random snapshots (< 30 s)

def test_criterion_3_spf_floyd_warshall():
    start = time.time()
    rng = np.random.default_rng(99)
    exact = True
    for _ in range(100):
        n = int(rng.integers(10, 101))
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.12:
                    edges.append((u, v, float(rng.integers(1, 1000))))
        e = np.array(edges).reshape(-1, 3)
        snap = GraphSnapshot(n, e[:, 0].astype(np.int64), e[:, 1].astype(np.int64),
                             e[:, 2])
        fw = np.full((n, n), np.inf)
        np.fill_diagonal(fw, 0.0)
        for u, v, w in edges:
            fw[u, v] = min(fw[u, v], w)
        for k in range(n):
            fw = np.minimum(fw, fw[:, k:k + 1] + fw[k:k + 1, :])
        dests = [int(d) for d in rng.choice(n, size=min(5, n), replace=False)]
        tables = spf_tables(snap, dests)
        for d in dests:
            if not np.array_equal(tables[d][1], fw[:, d]):
                exact = False
    elapsed = time.time() - start
    ok = exact and elapsed < 30.0
    report("criterion 3 (SPF vs Floyd-Warshall)", ok,
           f"100 snapshots exact={exact}, runtime {elapsed:.1f} s")


# =============================================================================
# Criterion 4: gradient suite, analytic vs central differences (< 1 min)

def _fd_grad(loss_fn, params, h=1e-5):
    out = {}
    for key, v in params.items():
        g = np.zeros_like(v)
        it = np.nditer(v, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            old = v[i]
            v[i] = old + h
            up = loss_fn()
            v[i] = old - h
            dn = loss_fn()
            v[i] = old
            g[i] = (up - dn) / (2 * h)
            it.iternext()
        out[key] = g
    return out


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for k in analytic:
        denom = np.maximum(1.0, np.maximum(np.abs(analytic[k]), np.abs(numeric[k])))
        worst = max(worst, float((np.abs(analytic[k] - numeric[k]) / denom).max()))
    return worst


def test_criterion_4_gradient_suite():
    start = time.time()
    arch = nn.Architecture(input_dim=5, hidden_dim=6, n_actions=4,
                           quantile_embed_dim=5)
    cfg = LearnerConfig(mode="cvar", batch_size=5, n_quantiles=3,
                        n_target_quantiles=3, n_cvar_samples=4)
    lr = PrimalLearner(arch, cfg, seed=0)
    lr.lagrange.alpha = 0.3
    lr.lagrange.lam[0] = 0.6
    rng = np.random.default_rng(3)
    B = 5
    batch = Batch(o=rng.normal(size=(B, 5)), a=rng.integers(0, 4, size=B),
                  r=rng.normal(size=B), c=np.abs(rng.normal(size=(B, 1))),
                  o2=rng.normal(size=(B, 5)),
                  done=(rng.random(B) < 0.3).astype(float),
                  tau=np.abs(rng.normal(size=B)) + 1e-3)
    errs = {}

    _, _, pi2 = lr._policy(batch.o2)

    # reward critic loss L_phi
    y = lr.td_target_reward(batch, pi2)

    def loss_phi():
        q, _ = nn.mlp_forward(lr.reward_critic, batch.o)
        e = q[np.arange(B), batch.a] - y
        return float(0.5 * np.mean(e * e))

    q, cache = nn.mlp_forward(lr.reward_critic, batch.o)
    e = q[np.arange(B), batch.a] - y
    dq = np.zeros_like(q)
    dq[np.arange(B), batch.a] = e / B
    errs["L_phi"] = _max_rel_err(nn.mlp_backward(lr.reward_critic, cache, dq),
                                 _fd_grad(loss_phi, lr.reward_critic))

    # expected-cost critic loss L_psi (avg)
    yc = lr.td_target_cost_avg(batch, 0, pi2)

    def loss_psi_avg():
        qc, _ = nn.mlp_forward(lr.cost_avg[0], batch.o)
        e = qc[np.arange(B), batch.a] - yc
        return float(0.5 * np.mean(e * e))

    qc, cache = nn.mlp_forward(lr.cost_avg[0], batch.o)
    e = qc[np.arange(B), batch.a] - yc
    dq = np.zeros_like(qc)
    dq[np.arange(B), batch.a] = e / B
    errs["L_psi_avg"] = _max_rel_err(nn.mlp_backward(lr.cost_avg[0], cache, dq),
                                     _fd_grad(loss_psi_avg, lr.cost_avg[0]))

    # quantile-Huber cost critic loss L_psi (distributional)
    zetas = rng.random((B, 3))
    zetas_t = rng.random((B, 3))
    qt, _ = nn.quantile_forward(lr.cost_quant_target[0], batch.o2, zetas_t)
    v2 = np.einsum("bna,ba->bn", qt, pi2)
    yq = batch.c[:, 0, None] + cfg.gamma_c * (1.0 - batch.done)[:, None] * v2

    def loss_psi_quant():
        q_on, _ = nn.quantile_forward(lr.cost_quant[0], batch.o, zetas)
        q_sel = np.take_along_axis(q_on, batch.a[:, None, None], axis=2)[:, :, 0]
        delta = yq[:, None, :] - q_sel[:, :, None]
        loss, _ = quantile_huber_loss(delta, zetas, cfg.huber_kappa)
        return loss

    q_on, cache = nn.quantile_forward(lr.cost_quant[0], batch.o, zetas)
    q_sel = np.take_along_axis(q_on, batch.a[:, None, None], axis=2)[:, :, 0]
    delta = yq[:, None, :] - q_sel[:, :, None]
    _, d_online = quantile_huber_loss(delta, zetas, cfg.huber_kappa)
    dout = np.zeros_like(q_on)
    np.put_along_axis(dout, batch.a[:, None, None], d_online[:, :, None], axis=2)
    errs["L_psi_quant"] = _max_rel_err(
        nn.quantile_backward(lr.cost_quant[0], cache, dout),
        _fd_grad(loss_psi_quant, lr.cost_quant[0]))

    # actor loss, both variants (critic outputs held fixed)
    qr, _ = nn.mlp_forward(lr.reward_critic, batch.o)
    for name, penalty in (
            ("L_theta_avg",
             lr.lagrange.lam[0] * nn.mlp_forward(lr.cost_avg[0], batch.o)[0]),
            ("L_theta_cvar",
             lr.lagrange.lam[0] * lr.cvar_estimate(batch.o, 0))):

        def loss_theta(pen=penalty):
            logits, _ = nn.mlp_forward(lr.actor, batch.o)
            pi = nn.softmax(logits)
            g = lr.lagrange.alpha * np.log(pi) - qr + pen
            return float((pi * g).sum(axis=1).mean())

        logits, cache = nn.mlp_forward(lr.actor, batch.o)
        pi = nn.softmax(logits)
        g = lr.lagrange.alpha * np.log(pi) - qr + penalty
        per_sample = (pi * g).sum(axis=1)
        dlogits = pi * (g - per_sample[:, None]) / B
        errs[name] = _max_rel_err(nn.mlp_backward(lr.actor, cache, dlogits),
                                  _fd_grad(loss_theta, lr.actor))

    elapsed = time.time() - start
    worst = max(errs.values())
    ok = worst < 1e-4 and elapsed < 60.0
    report("criterion 4 (gradient suite)", ok,
           f"max rel err {worst:.2e} over {sorted(errs)} in {elapsed:.1f} s")


# =============================================================================
# Criterion 5: CVaR machinery (< 2 min)

def test_criterion_5_cvar_machinery():
    start = time.time()
    # (a) hand cases, exact
    loss0, _ = quantile_huber_loss(np.zeros((1, 1, 1)), np.array([[0.5]]), 1.0)
    loss_h, _ = quantile_huber_loss(np.array([[[-1.0]]]), np.array([[0.9]]), 1.0)
    hand = loss0 == 0.0 and abs(loss_h - 0.05) < 1e-15

    # (b) quantile critic regressed on the uniform 4-atom return {1, 2, 3, 4}.
    # With kappa = 1 the loss is minimised by the Huber quantile curve, not by
    # the step quantile function: for unit-spaced atoms the first-order
    # condition (1 - z)(1 - q) + z(4 - q) = 0 gives q(z) = 1 + 3z, so the tail
    # mean over U(1 - eps, 1) is 4 - 1.5 eps (3.25 at eps = 0.5, 2.5 at 1).
    rng = np.random.default_rng(0)
    arch = nn.Architecture(input_dim=4, hidden_dim=32, n_actions=1,
                           quantile_embed_dim=32)
    params = nn.init_quantile_net(arch, rng)
    opt = nn.AdamState(params)
    obs = np.ones((64, 4))
    atoms = np.array([1.0, 2.0, 3.0, 4.0])
    for _ in range(2500):
        zetas = rng.random((64, 8))
        targets = rng.choice(atoms, size=(64, 8))
        out, cache = nn.quantile_forward(params, obs, zetas)
        delta = targets[:, None, :] - out[:, :, 0][:, :, None]
        _, d_online = quantile_huber_loss(delta, zetas, 1.0)
        grads = nn.quantile_backward(params, cache, d_online[:, :, None])
        nn.adam_step(params, grads, opt, lr=3e-3)

    def tail_mean(eps, n=4096):
        z = 1.0 - eps * rng.random((1, n))
        q, _ = nn.quantile_forward(params, obs[:1], z)
        return float(q.mean())

    gamma_half = tail_mean(0.5)      # 3.25 for kappa = 1 (true CVaR_0.5 is 3.5)
    gamma_one = tail_mean(1.0)       # eps = 1 is the plain mean, 2.5, either way
    iqn_ok = abs(gamma_half - 3.25) / 3.25 < 0.05 and abs(gamma_one - 2.5) / 2.5 < 0.05

    # (c) empirical CVaR vs brute-force tail means, exact; the anchors pin the
    # true CVaR of {1, 2, 3, 4}
    brute_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 300))
        xs = rng.normal(size=n)
        eps = float(rng.uniform(0.05, 1.0))
        k = math.ceil(eps * n)
        if empirical_cvar(xs, eps) != pytest.approx(float(np.sort(xs)[-k:].mean()),
                                                    rel=1e-12):
            brute_ok = False
    anchors = empirical_cvar([1, 2, 3, 4], 0.5) == 3.5 and \
        empirical_cvar([1, 2, 3, 4], 1.0) == 2.5

    elapsed = time.time() - start
    ok = hand and iqn_ok and brute_ok and anchors and elapsed < 120.0
    report("criterion 5 (CVaR machinery)", ok,
           f"hand={hand}, Gamma_0.5={gamma_half:.3f} (3.25 for kappa=1; true CVaR 3.5), "
           f"Gamma_1.0={gamma_one:.3f} (2.5), empirical exact={brute_ok and anchors}, "
           f"runtime {elapsed:.1f} s")


# =============================================================================
# Criterion 6: entropy control on a stationary bandit (< 1 min)

def test_criterion_6_entropy_control():
    start = time.time()
    arch = nn.Architecture(input_dim=3, hidden_dim=16, n_actions=4,
                           quantile_embed_dim=4)
    cfg = LearnerConfig(mode="avg", batch_size=64, eta=0.05, lr_actor=1e-3,
                        lr_critic=3e-3, lr_lambda=1e-3, lr_alpha=1e-2,
                        buffer_capacity=4096)
    lr = PrimalLearner(arch, cfg, LagrangeState(entropy_target=0.067), seed=1)
    rng = np.random.default_rng(2)
    buf = ReplayBuffer(4096, 3, seed=3)
    rewards = np.array([1.0, 0.6, 0.3, 0.0])
    obs = np.ones(3)
    for _ in range(1024):
        a = int(rng.integers(0, 4))
        buf.add(obs, a, rewards[a], [0.0], np.zeros(3), True, 0.01)

    entropies = []
    for _ in range(10_000):
        diag = lr.train_step(buf)
        entropies.append(diag["entropy"])
    tail = float(np.mean(entropies[-1000:]))
    elapsed = time.time() - start
    ok = abs(tail - 0.067) <= 0.02 and elapsed < 60.0
    report("criterion 6 (entropy control)", ok,
           f"mean entropy over last 1k steps {tail:.4f} "
           f"(target 0.067 +/- 0.02), runtime {elapsed:.1f} s")


# =============================================================================
# Criterion 7: multiplier dynamics on a 1-state 2-action task (< 1 min)

def test_criterion_7_multiplier_dynamics():
    start = time.time()
    arch = nn.Architecture(input_dim=3, hidden_dim=16, n_actions=2,
                           quantile_embed_dim=4)
    cfg = LearnerConfig(mode="avg", batch_size=64, eta=0.05, lr_actor=1e-3,
                        lr_critic=3e-3, lr_lambda=1e-2, lr_alpha=5e-3,
                        buffer_capacity=4096)

    def run_bandit(costs, rewards, steps=8000, seed=4):
        lr = PrimalLearner(arch, cfg, LagrangeState(
            thresholds=np.array([0.1]), entropy_target=0.067), seed=seed)
        buf = ReplayBuffer(4096, 3, seed=seed)
        rng = np.random.default_rng(seed)
        obs = np.ones(3)
        for _ in range(1024):
            a = int(rng.integers(0, 2))
            buf.add(obs, a, rewards[a], [costs[a]], np.zeros(3), True, 0.01)
        lams, probs = [], []
        for _ in range(steps):
            lr.train_step(buf)
            lams.append(float(lr.lagrange.lam[0]))
            logits, _ = nn.mlp_forward(lr.actor, obs[None])
            probs.append(nn.softmax(logits)[0])
        return np.array(lams), np.array(probs)

    # action 0 costs twice the threshold; reward difference is smaller than
    # the penalty the multiplier builds up
    lams, probs = run_bandit(costs=[0.2, 0.0], rewards=[0.02, 0.0])
    p_low_cost = float(np.mean(probs[-2000:, 1]))
    constrained_ok = p_low_cost >= 0.95 and np.all(lams >= 0)

    # all costs below the threshold: lambda never leaves zero
    lams0, _ = run_bandit(costs=[0.04, 0.0], rewards=[0.02, 0.0], steps=4000)
    dormant_ok = np.all(lams0 == 0.0)

    elapsed = time.time() - start
    ok = constrained_ok and dormant_ok and elapsed < 60.0
    report("criterion 7 (multiplier dynamics)", ok,
           f"P(low-cost action) {p_low_cost:.3f} (>= 0.95), "
           f"lambda dormant={dormant_ok}, runtime {elapsed:.1f} s")


# =============================================================================
# Criterion 8: desk-scale trend reproduction (< 30 min, 2 workers)

TREND_SEEDS = [1, 2, 3]
EVAL_SEEDS = [101, 102]
TREND_BUDGET_S = 1800.0


def _trend_worker(job):
    algo, seed = job
    scenario = desk_scenario()
    result = run_train(scenario, algo, seed=seed)
    ev = run_eval(None, result, seeds=EVAL_SEEDS)
    r = ev.aggregate
    return {"algo": algo, "seed": seed, "drop": r.drop_rate,
            "q_mean": r.queuing_mean_s, "q_cvar": r.queuing_cvar_s or 0.0,
            "viol": r.violation_rate}


def _trend_ruled_out(rows, dqmax):
    """Name a condition of criterion 8 that the finished jobs already rule
    out, or return None. Drop rates and queuing tails are non-negative, so
    the sum over the finished seeds, divided by the number of seeds, is a
    lower bound on the seed aggregate."""
    n = len(TREND_SEEDS)
    for algo in sorted({r["algo"] for r in rows}):
        done = [r for r in rows if r["algo"] == algo]
        seeds = sorted(r["seed"] for r in done)
        drop_lb = sum(r["drop"] for r in done) / n
        if drop_lb >= 0.01:
            return (f"(a) ruled out: {algo} seed-aggregate drop >= "
                    f"{100 * drop_lb:.2f}% from seeds {seeds}")
        if algo == "primal-cvar":
            cvar_lb = sum(r["q_cvar"] for r in done) / n
            if cvar_lb > dqmax:
                return (f"(c) ruled out: primal-cvar queuing CVaR >= "
                        f"{1e3 * cvar_lb:.2f} ms from seeds {seeds}")
    return None


def test_criterion_8_desk_trend_reproduction():
    start = time.time()
    scenario = desk_scenario()
    dqmax = scenario.run.dqmax_s
    # cheapest algorithm first, so a ruled-out condition shows soonest; the
    # test stops at its runtime budget or as soon as its outcome is decided
    jobs = [(algo, seed) for seed in TREND_SEEDS
            for algo in ("madqn", "primal-avg", "primal-cvar")]
    rows, stopped = [], None
    with mp.get_context("fork").Pool(2) as pool:
        results = pool.imap_unordered(_trend_worker, jobs)
        for _ in jobs:
            remaining = TREND_BUDGET_S - (time.time() - start)
            try:
                rows.append(results.next(timeout=max(remaining, 0.0)))
            except mp.TimeoutError:
                stopped = f"runtime budget {TREND_BUDGET_S / 60:.0f} min reached"
                break
            stopped = _trend_ruled_out(rows, dqmax)
            if stopped is not None:
                break
    if stopped is not None:
        done = ", ".join(f"{r['algo']}/{r['seed']}: drop {100 * r['drop']:.2f}%, "
                         f"cvar {1e3 * r['q_cvar']:.2f} ms" for r in rows)
        report("criterion 8 (desk-scale trends)", False,
               f"stopped after {len(rows)}/{len(jobs)} jobs: {stopped} "
               f"[{done}], runtime {(time.time() - start) / 60:.1f} min")
    by = {}
    for row in rows:
        by.setdefault(row["algo"], {})[row["seed"]] = row

    spf = run_eval(scenario, "spf", seeds=EVAL_SEEDS).aggregate

    def agg(algo, field):
        return float(np.mean([by[algo][s][field] for s in TREND_SEEDS]))

    # (a) every learned policy reaches a drop rate below 1% (seed aggregate)
    drops = {algo: agg(algo, "drop") for algo in by}
    a_ok = all(d < 0.01 for d in drops.values())

    # (b) per-seed mean queuing ordering cvar < avg < madqn in >= 2 of 3 seeds
    order_hits = sum(
        1 for s in TREND_SEEDS
        if by["primal-cvar"][s]["q_mean"] < by["primal-avg"][s]["q_mean"]
        < by["madqn"][s]["q_mean"])
    b_ok = order_hits >= 2

    # (c) only the cvar variant keeps the queuing tail under the budget
    cvars = {algo: agg(algo, "q_cvar") for algo in by}
    c_ok = (cvars["primal-cvar"] <= dqmax
            and cvars["primal-avg"] > dqmax and cvars["madqn"] > dqmax)

    # (d) SPF drops more than every learned policy under the same load
    d_ok = all(spf.drop_rate > d for d in drops.values())

    elapsed = time.time() - start
    drops_s = ", ".join(f"{a}: {100 * d:.2f}%" for a, d in sorted(drops.items()))
    q_mean_s = ", ".join(f"{a}: {1e3 * agg(a, 'q_mean'):.2f}" for a in sorted(by))
    cvars_s = ", ".join(f"{a}: {1e3 * v:.2f}" for a, v in sorted(cvars.items()))
    detail = (f"drops={{{drops_s}}}, "
              f"q_mean(ms)={{{q_mean_s}}}, "
              f"cvar(ms)={{{cvars_s}}}, "
              f"ordering {order_hits}/3 seeds, spf drop {100 * spf.drop_rate:.1f}%, "
              f"runtime {elapsed / 60:.1f} min")
    print(f"\n  (a) learned drop < 1%: {'PASS' if a_ok else 'FAIL'}")
    print(f"  (b) queuing order cvar < avg < madqn: {'PASS' if b_ok else 'FAIL'} ({order_hits}/3)")
    print(f"  (c) only cvar tail <= {1e3 * dqmax:.0f} ms: {'PASS' if c_ok else 'FAIL'}")
    print(f"  (d) SPF drops exceed learned: {'PASS' if d_ok else 'FAIL'}")
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < TREND_BUDGET_S
    report("criterion 8 (desk-scale trends)", ok, detail)


# =============================================================================
# Criterion 9: training-loop fidelity over a 10k-step run (< 2 min)

def test_criterion_9_algorithm_fidelity():
    start = time.time()
    arch = nn.Architecture(input_dim=4, hidden_dim=8, n_actions=4,
                           quantile_embed_dim=4)
    rng = np.random.default_rng(5)

    def synth_buffer(seed):
        buf = ReplayBuffer(4096, 4, seed=seed)
        r = np.random.default_rng(seed)
        for _ in range(512):
            buf.add(r.normal(size=4), int(r.integers(0, 4)), r.normal(),
                    [abs(r.normal())], r.normal(size=4), bool(r.random() < 0.2),
                    0.01)
        return buf

    nonneg = True
    isolation = True
    for mode in ("avg", "cvar"):
        cfg = LearnerConfig(mode=mode, batch_size=16, n_quantiles=4,
                            n_target_quantiles=4, n_cvar_samples=4, eta=0.02)
        lr = PrimalLearner(arch, cfg, seed=6)
        buf = synth_buffer(7)
        other = nn.params_copy(lr.cost_quant[0] if mode == "avg" else lr.cost_avg[0])
        other_t = nn.params_copy(lr.cost_quant_target[0] if mode == "avg"
                                 else lr.cost_avg_target[0])
        for _ in range(10_000):
            lr.train_step(buf)
            if lr.lagrange.lam[0] < 0 or lr.lagrange.alpha < 0:
                nonneg = False
        untouched = (lr.cost_quant[0], lr.cost_quant_target[0]) if mode == "avg" \
            else (lr.cost_avg[0], lr.cost_avg_target[0])
        if nn.params_max_abs_diff(untouched[0], other) != 0.0 or \
                nn.params_max_abs_diff(untouched[1], other_t) != 0.0:
            isolation = False
        if mode == "avg" and lr.ops["quantile"] != 0:
            isolation = False
        if mode == "cvar" and lr.ops["cost_avg"] != 0:
            isolation = False

    # eta = 1 makes targets exact copies after one step
    cfg = LearnerConfig(mode="avg", batch_size=16, eta=1.0)
    lr = PrimalLearner(arch, cfg, seed=8)
    lr.train_step(synth_buffer(9))
    copy_ok = (nn.params_max_abs_diff(lr.reward_target, lr.reward_critic) == 0.0
               and nn.params_max_abs_diff(lr.cost_avg_target[0], lr.cost_avg[0]) == 0.0)

    elapsed = time.time() - start
    ok = nonneg and isolation and copy_ok and elapsed < 120.0
    report("criterion 9 (training-loop fidelity)", ok,
           f"multipliers nonneg={nonneg}, branch isolation={isolation}, "
           f"eta=1 copy={copy_ok}, runtime {elapsed:.1f} s")
