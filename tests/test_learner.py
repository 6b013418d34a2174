import math

import numpy as np
import pytest

from leoroute import nn
from leoroute.errors import SimulationError
from leoroute.learner import (
    Batch,
    LagrangeState,
    LearnerConfig,
    MadqnLearner,
    PrimalLearner,
    ReplayBuffer,
    quantile_huber_loss,
)

ARCH = nn.Architecture(input_dim=5, hidden_dim=8, n_actions=4, quantile_embed_dim=6)


def small_cfg(mode="avg", **kw):
    defaults = dict(mode=mode, batch_size=16, n_quantiles=4, n_target_quantiles=4,
                    n_cvar_samples=8, eta=0.05, lr_actor=1e-3, lr_critic=1e-3,
                    lr_lambda=1e-2, lr_alpha=1e-2, buffer_capacity=1000)
    defaults.update(kw)
    return LearnerConfig(**defaults)


def random_batch(rng, b=16, k=1, done_frac=0.25):
    return Batch(
        o=rng.normal(size=(b, 5)),
        a=rng.integers(0, 4, size=b),
        r=rng.normal(size=b),
        c=np.abs(rng.normal(size=(b, k))),
        o2=rng.normal(size=(b, 5)),
        done=(rng.random(b) < done_frac).astype(float),
        tau=np.abs(rng.normal(size=b)) + 1e-3,
    )


def fill_buffer(buffer, rng, n=200):
    for _ in range(n):
        b = random_batch(rng, b=1)
        buffer.add(b.o[0], int(b.a[0]), float(b.r[0]), b.c[0], b.o2[0],
                   bool(b.done[0]), float(b.tau[0]))


def policy(lr, obs):
    """The learner's current action probabilities on ``obs``."""
    return lr._policy(obs)[2]


def cost_avg(lr, obs):
    """The expected-cost critics' per-action estimates on ``obs``, one per
    constraint, as a PRIMAL-Avg train step passes them to the actor and
    multiplier steps."""
    return [nn.mlp_forward(params, obs)[0] for params in lr.cost_avg]


# -- replay buffer --------------------------------------------------------------

def test_buffer_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=4, obs_dim=5)
    rng = np.random.default_rng(0)
    fill_buffer(buf, rng, n=6)
    assert len(buf) == 4


def test_buffer_sampling_uniform_over_contents():
    buf = ReplayBuffer(capacity=100, obs_dim=5, seed=1)
    rng = np.random.default_rng(1)
    for i in range(50):
        buf.add(np.full(5, i), i % 4, float(i), [0.0], np.zeros(5), False, 1.0)
    batch = buf.sample(5000)
    seen = batch.r.astype(int)
    counts = np.bincount(seen, minlength=50)
    assert counts.min() > 0.5 * counts.mean()


# -- TD targets -------------------------------------------------------------------

def test_td_target_reward_gamma_zero():
    lr = PrimalLearner(ARCH, small_cfg(gamma_r=1e-12), seed=0)
    rng = np.random.default_rng(2)
    batch = random_batch(rng)
    y = lr.td_target_reward(batch, policy(lr, batch.o2))
    assert np.allclose(y, batch.r, atol=1e-9)


def test_td_target_reward_done_no_bootstrap():
    lr = PrimalLearner(ARCH, small_cfg(), seed=0)
    rng = np.random.default_rng(3)
    batch = random_batch(rng, done_frac=1.0)
    assert np.array_equal(lr.td_target_reward(batch, policy(lr, batch.o2)), batch.r)


def test_td_target_reward_hand_case():
    # hand-built case: uniform policy and constant target critic
    lr = PrimalLearner(ARCH, small_cfg(), seed=0)
    lr.lagrange.alpha = 0.5
    for k, v in lr.actor.items():
        v[...] = 0.0                      # uniform policy
    for k, v in lr.reward_target.items():
        v[...] = 0.0
    lr.reward_target["b2"][...] = 2.0     # Q'(o', a) = 2 for every action
    rng = np.random.default_rng(4)
    batch = random_batch(rng, done_frac=0.0)
    y = lr.td_target_reward(batch, policy(lr, batch.o2))
    want = batch.r + lr.cfg.gamma_r * (2.0 - 0.5 * math.log(0.25))
    assert np.allclose(y, want, rtol=1e-12)


def test_td_target_cost_avg_mirrors_reward_without_entropy():
    lr = PrimalLearner(ARCH, small_cfg(), seed=0)
    for k, v in lr.actor.items():
        v[...] = 0.0
    for k, v in lr.cost_avg_target[0].items():
        v[...] = 0.0
    lr.cost_avg_target[0]["b2"][...] = 3.0
    rng = np.random.default_rng(5)
    batch = random_batch(rng, done_frac=0.0)
    y = lr.td_target_cost_avg(batch, 0, policy(lr, batch.o2))
    assert np.allclose(y, batch.c[:, 0] + lr.cfg.gamma_c * 3.0, rtol=1e-12)


# -- critic updates ----------------------------------------------------------------

def test_critic_update_reward_zero_error_zero_gradient():
    lr = PrimalLearner(ARCH, small_cfg(), seed=0)
    rng = np.random.default_rng(6)
    batch = random_batch(rng)
    pi2 = policy(lr, batch.o2)
    y = lr.td_target_reward(batch, pi2)
    # overwrite the critic so Q(o, a) == y by construction is impossible for
    # a generic net; instead verify that loss is non-negative and decreases
    before = lr.critic_update_reward(batch, pi2)
    for _ in range(50):
        after = lr.critic_update_reward(batch, pi2)
    assert before >= 0 and after >= 0
    assert after < before


def _fd_check(loss_fn, params, analytic, tol=1e-4, h=1e-5):
    for key, g in analytic.items():
        v = params[key]
        it = np.nditer(v, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            old = v[i]
            v[i] = old + h
            up = loss_fn()
            v[i] = old - h
            dn = loss_fn()
            v[i] = old
            num = (up - dn) / (2 * h)
            denom = max(1.0, abs(num), abs(g[i]))
            assert abs(g[i] - num) / denom < tol, f"{key}{i}: {g[i]} vs {num}"
            it.iternext()


def test_reward_critic_gradient_finite_difference():
    lr = PrimalLearner(ARCH, small_cfg(batch_size=6), seed=1)
    rng = np.random.default_rng(7)
    batch = random_batch(rng, b=6)
    y = lr.td_target_reward(batch, policy(lr, batch.o2))
    params = lr.reward_critic

    def loss_fn():
        q, _ = nn.mlp_forward(params, batch.o)
        err = q[np.arange(6), batch.a] - y
        return float(0.5 * np.mean(err * err))

    q, cache = nn.mlp_forward(params, batch.o)
    err = q[np.arange(6), batch.a] - y
    dq = np.zeros_like(q)
    dq[np.arange(6), batch.a] = err / 6
    grads = nn.mlp_backward(params, cache, dq)
    _fd_check(loss_fn, params, grads)


def test_actor_gradient_finite_difference_avg():
    lr = PrimalLearner(ARCH, small_cfg(batch_size=6), seed=2)
    lr.lagrange.alpha = 0.3
    lr.lagrange.lam[0] = 0.7
    rng = np.random.default_rng(8)
    batch = random_batch(rng, b=6)
    qr, _ = nn.mlp_forward(lr.reward_critic, batch.o)
    qc, _ = nn.mlp_forward(lr.cost_avg[0], batch.o)
    penalty = lr.lagrange.lam[0] * qc
    params = lr.actor

    def loss_fn():
        logits, _ = nn.mlp_forward(params, batch.o)
        pi = nn.softmax(logits)
        g = lr.lagrange.alpha * np.log(pi) - qr + penalty
        return float((pi * g).sum(axis=1).mean())

    logits, cache = nn.mlp_forward(params, batch.o)
    pi = nn.softmax(logits)
    g = lr.lagrange.alpha * np.log(pi) - qr + penalty
    per_sample = (pi * g).sum(axis=1)
    dlogits = pi * (g - per_sample[:, None]) / 6
    grads = nn.mlp_backward(params, cache, dlogits)
    _fd_check(loss_fn, params, grads)


def test_actor_update_no_preference_zero_gradient():
    # lambda = 0, alpha = 0, constant reward critic: every action equal
    lr = PrimalLearner(ARCH, small_cfg(), seed=3)
    lr.lagrange.alpha = 0.0
    lr.lagrange.lam[0] = 0.0
    for k, v in lr.reward_critic.items():
        v[...] = 0.0
    before = nn.params_copy(lr.actor)
    rng = np.random.default_rng(9)
    batch = random_batch(rng)
    lr.actor_update(batch, cost_avg(lr, batch.o))
    assert nn.params_max_abs_diff(lr.actor, before) == 0.0


def test_actor_update_avoids_high_cost_action():
    # single observed state; action 0 has high estimated cost, large lambda
    lr = PrimalLearner(ARCH, small_cfg(lr_actor=0.05), seed=4)
    lr.lagrange.alpha = 0.0
    lr.lagrange.lam[0] = 10.0
    for k, v in lr.reward_critic.items():
        v[...] = 0.0
    for k, v in lr.cost_avg[0].items():
        v[...] = 0.0
    lr.cost_avg[0]["b2"][...] = np.array([5.0, 0.0, 0.0, 0.0])
    obs = np.ones((16, 5))
    batch = Batch(obs, np.zeros(16, dtype=int), np.zeros(16), np.zeros((16, 1)),
                  obs, np.ones(16), np.ones(16))
    logits0, _ = nn.mlp_forward(lr.actor, obs[:1])
    p0 = nn.softmax(logits0)[0, 0]
    lr.actor_update(batch, cost_avg(lr, batch.o))
    logits1, _ = nn.mlp_forward(lr.actor, obs[:1])
    p1 = nn.softmax(logits1)[0, 0]
    assert p1 < p0


# -- multipliers and temperature -----------------------------------------------------

def _constant_cost_learner(cost_value, seed=5):
    lr = PrimalLearner(ARCH, small_cfg(), seed=seed)
    for k, v in lr.cost_avg[0].items():
        v[...] = 0.0
    lr.cost_avg[0]["b2"][...] = cost_value
    return lr


def test_multiplier_unchanged_at_threshold():
    lr = _constant_cost_learner(cost_value=0.1)   # equals default threshold
    rng = np.random.default_rng(10)
    lam0 = lr.lagrange.lam[0]
    batch = random_batch(rng)
    lr.multiplier_update(policy(lr, batch.o), cost_avg(lr, batch.o))
    assert lr.lagrange.lam[0] == pytest.approx(lam0, abs=1e-15)


def test_multiplier_increases_when_cost_exceeds_threshold():
    lr = _constant_cost_learner(cost_value=1.0)
    rng = np.random.default_rng(11)
    lam0 = lr.lagrange.lam[0]
    batch = random_batch(rng)
    lr.multiplier_update(policy(lr, batch.o), cost_avg(lr, batch.o))
    assert lr.lagrange.lam[0] > lam0


def test_multiplier_projection_at_zero():
    lr = _constant_cost_learner(cost_value=0.0)
    lr.lagrange.lam[0] = 0.0
    rng = np.random.default_rng(12)
    batch = random_batch(rng)
    lr.multiplier_update(policy(lr, batch.o), cost_avg(lr, batch.o))
    assert lr.lagrange.lam[0] == 0.0


def test_temperature_fixed_point_and_signs():
    lr = PrimalLearner(ARCH, small_cfg(), seed=6)
    rng = np.random.default_rng(13)
    batch = random_batch(rng)
    # near-uniform policy: entropy far above target, alpha decreases
    a0 = lr.lagrange.alpha
    lr.temperature_update(policy(lr, batch.o))
    assert lr.lagrange.alpha < a0
    # projection at zero
    lr.lagrange.alpha = 0.0
    lr.temperature_update(policy(lr, batch.o))
    assert lr.lagrange.alpha == 0.0


# -- quantile machinery ------------------------------------------------------------------

def test_quantile_huber_zero_errors_zero_loss():
    delta = np.zeros((2, 3, 4))
    zetas = np.full((2, 3), 0.5)
    loss, grad = quantile_huber_loss(delta, zetas, 1.0)
    assert loss == 0.0 and np.all(grad == 0.0)


def test_quantile_huber_hand_case():
    # zeta = 0.9, delta = -1, kappa = 1: weight 0.1, huber 0.5 -> 0.05
    delta = np.array([[[-1.0]]])
    zetas = np.array([[0.9]])
    loss, _ = quantile_huber_loss(delta, zetas, 1.0)
    assert loss == pytest.approx(0.05, rel=1e-12)


def test_quantile_huber_nonnegative_and_monotone():
    zetas = np.array([[0.3]])
    prev = 0.0
    for d in np.linspace(0.0, 3.0, 20):
        loss, _ = quantile_huber_loss(np.array([[[d]]]), zetas, 1.0)
        assert loss >= prev - 1e-15
        prev = loss


def test_quantile_td_errors_shapes_and_gamma_zero():
    lr = PrimalLearner(ARCH, small_cfg(mode="cvar", gamma_c=1e-12), seed=7)
    rng = np.random.default_rng(14)
    batch = random_batch(rng, b=6)
    zetas = rng.random((6, 4))
    zetas_t = rng.random((6, 5))
    delta, _, _ = lr.quantile_td_errors(batch, zetas, zetas_t, 0, policy(lr, batch.o2))
    assert delta.shape == (6, 4, 5)
    # with gamma ~ 0 the error is c - Q(o, a, zeta_i), independent of j
    assert np.allclose(delta, delta[:, :, :1], atol=1e-9)


def test_quantile_critic_fixed_point_delta_zero():
    # constant critic q and cost c = q * (1 - gamma): delta == 0 everywhere
    lr = PrimalLearner(ARCH, small_cfg(mode="cvar"), seed=8)
    q_const = 2.0
    for blk in (lr.cost_quant[0], lr.cost_quant_target[0]):
        for k, v in blk.items():
            v[...] = 0.0
        blk["qb1"][...] = q_const
    rng = np.random.default_rng(15)
    batch = random_batch(rng, b=6, done_frac=0.0)
    batch = batch._replace(c=np.full((6, 1), q_const * (1 - lr.cfg.gamma_c)))
    zetas = rng.random((6, 4))
    zetas_t = rng.random((6, 4))
    delta, _, _ = lr.quantile_td_errors(batch, zetas, zetas_t, 0, policy(lr, batch.o2))
    assert np.allclose(delta, 0.0, atol=1e-12)


def test_quantile_critic_gradient_finite_difference():
    lr = PrimalLearner(ARCH, small_cfg(mode="cvar", batch_size=4), seed=9)
    rng = np.random.default_rng(16)
    batch = random_batch(rng, b=4)
    zetas = rng.random((4, 3))
    zetas_t = rng.random((4, 3))
    # fixed targets: compute y once from the target net
    _, _, pi2 = lr._policy(batch.o2)
    qt, _ = nn.quantile_forward(lr.cost_quant_target[0], batch.o2, zetas_t)
    v2 = np.einsum("bna,ba->bn", qt, pi2)
    y = batch.c[:, 0, None] + lr.cfg.gamma_c * (1.0 - batch.done)[:, None] * v2
    params = lr.cost_quant[0]

    def loss_fn():
        q_on, _ = nn.quantile_forward(params, batch.o, zetas)
        q_sel = np.take_along_axis(q_on, batch.a[:, None, None], axis=2)[:, :, 0]
        delta = y[:, None, :] - q_sel[:, :, None]
        loss, _ = quantile_huber_loss(delta, zetas, lr.cfg.huber_kappa)
        return loss

    q_on, cache = nn.quantile_forward(params, batch.o, zetas)
    q_sel = np.take_along_axis(q_on, batch.a[:, None, None], axis=2)[:, :, 0]
    delta = y[:, None, :] - q_sel[:, :, None]
    _, d_online = quantile_huber_loss(delta, zetas, lr.cfg.huber_kappa)
    dout = np.zeros_like(q_on)
    np.put_along_axis(dout, batch.a[:, None, None], d_online[:, :, None], axis=2)
    grads = nn.quantile_backward(params, cache, dout)
    _fd_check(loss_fn, params, grads)


def test_actor_gradient_finite_difference_cvar():
    lr = PrimalLearner(ARCH, small_cfg(mode="cvar", batch_size=5), seed=10)
    lr.lagrange.alpha = 0.2
    lr.lagrange.lam[0] = 0.5
    rng = np.random.default_rng(17)
    batch = random_batch(rng, b=5)
    qr, _ = nn.mlp_forward(lr.reward_critic, batch.o)
    gam = lr.cvar_estimate(batch.o, 0)     # fixed per-step evaluation
    penalty = lr.lagrange.lam[0] * gam
    params = lr.actor

    def loss_fn():
        logits, _ = nn.mlp_forward(params, batch.o)
        pi = nn.softmax(logits)
        g = lr.lagrange.alpha * np.log(pi) - qr + penalty
        return float((pi * g).sum(axis=1).mean())

    logits, cache = nn.mlp_forward(params, batch.o)
    pi = nn.softmax(logits)
    g = lr.lagrange.alpha * np.log(pi) - qr + penalty
    per_sample = (pi * g).sum(axis=1)
    dlogits = pi * (g - per_sample[:, None]) / 5
    grads = nn.mlp_backward(params, cache, dlogits)
    _fd_check(loss_fn, params, grads)


def test_cvar_estimate_constant_critic():
    lr = PrimalLearner(ARCH, small_cfg(mode="cvar"), seed=11)
    for k, v in lr.cost_quant[0].items():
        v[...] = 0.0
    lr.cost_quant[0]["qb1"][...] = np.array([1.0, 2.0, 3.0, 4.0])
    obs = np.random.default_rng(18).normal(size=(3, 5))
    gam = lr.cvar_estimate(obs, 0)
    assert np.allclose(gam, [1.0, 2.0, 3.0, 4.0], atol=1e-12)


def test_cvar_estimate_eps_one_is_full_mean():
    lr = PrimalLearner(ARCH, small_cfg(mode="cvar"), seed=12)
    lr.lagrange.risk_levels[0] = 1.0
    obs = np.random.default_rng(19).normal(size=(2, 5))
    # with eps=1 fractions are U(0,1); against a large sample the estimator
    # approaches the critic's mean over the full unit interval
    got = lr.cvar_estimate(obs, 0, n_samples=20_000)
    zet = np.linspace(1e-4, 1 - 1e-4, 4001)
    want, _ = nn.quantile_forward(lr.cost_quant[0], obs, np.tile(zet, (2, 1)))
    assert np.allclose(got, want.mean(axis=1), atol=0.02)


# -- full steps -------------------------------------------------------------------------

def test_train_step_underfull_buffer_is_noop():
    lr = PrimalLearner(ARCH, small_cfg(), seed=13)
    buf = ReplayBuffer(100, 5)
    before = nn.params_copy(lr.actor)
    assert lr.train_step(buf) is None
    assert nn.params_max_abs_diff(lr.actor, before) == 0.0


def test_train_step_branch_isolation():
    rng = np.random.default_rng(20)
    for mode, touched, untouched in (("avg", "cost_avg", "quantile"),
                                     ("cvar", "quantile", "cost_avg")):
        lr = PrimalLearner(ARCH, small_cfg(mode=mode), seed=14)
        buf = ReplayBuffer(500, 5, seed=2)
        fill_buffer(buf, rng, n=64)
        other_params = nn.params_copy(
            lr.cost_quant[0] if mode == "avg" else lr.cost_avg[0])
        other_target = nn.params_copy(
            lr.cost_quant_target[0] if mode == "avg" else lr.cost_avg_target[0])
        for _ in range(10):
            assert lr.train_step(buf) is not None
        assert lr.ops[touched] > 0
        assert lr.ops[untouched] == 0
        now = lr.cost_quant[0] if mode == "avg" else lr.cost_avg[0]
        now_t = lr.cost_quant_target[0] if mode == "avg" else lr.cost_avg_target[0]
        assert nn.params_max_abs_diff(now, other_params) == 0.0
        assert nn.params_max_abs_diff(now_t, other_target) == 0.0


@pytest.mark.parametrize("mode", ["avg", "cvar"])
def test_train_step_runs_three_actor_forwards(mode, monkeypatch):
    # on o' for the critic targets, on o in the actor step, and once on o
    # after it for both the multiplier and the temperature step
    lr = PrimalLearner(ARCH, small_cfg(mode=mode), seed=14)
    buf = ReplayBuffer(500, 5, seed=2)
    fill_buffer(buf, np.random.default_rng(20), n=64)
    calls = []
    forward = lr._policy
    monkeypatch.setattr(lr, "_policy", lambda obs: calls.append(obs) or forward(obs))
    assert lr.train_step(buf) is not None
    assert len(calls) == 3


def test_primal_avg_step_runs_nine_batch_forwards(monkeypatch):
    # one cost_avg forward per constraint serves both the actor and the
    # multiplier step (10 when the multiplier step ran its own)
    lr = PrimalLearner(ARCH, small_cfg(mode="avg"), seed=14)
    buf = ReplayBuffer(500, 5, seed=2)
    fill_buffer(buf, np.random.default_rng(20), n=64)
    calls = []
    forward = nn.mlp_forward
    monkeypatch.setattr(nn, "mlp_forward",
                        lambda params, x: calls.append(x) or forward(params, x))
    assert lr.train_step(buf) is not None
    assert len(calls) == 9


def test_train_step_multipliers_stay_nonnegative():
    rng = np.random.default_rng(21)
    lr = PrimalLearner(ARCH, small_cfg(mode="cvar"), seed=15)
    buf = ReplayBuffer(500, 5, seed=3)
    fill_buffer(buf, rng, n=64)
    for _ in range(30):
        lr.train_step(buf)
        assert lr.lagrange.lam[0] >= 0.0
        assert lr.lagrange.alpha >= 0.0


def test_train_step_deterministic():
    def run():
        rng = np.random.default_rng(22)
        lr = PrimalLearner(ARCH, small_cfg(mode="cvar"), seed=16)
        buf = ReplayBuffer(500, 5, seed=4)
        fill_buffer(buf, rng, n=64)
        return [lr.train_step(buf) for _ in range(5)]

    assert run() == run()


def _buffer_with_one_nan(seed, field):
    """A filled buffer whose row 17 holds a NaN reward or a NaN
    observation feature."""
    buf = ReplayBuffer(500, 5, seed=seed)
    fill_buffer(buf, np.random.default_rng(seed), n=64)
    if field == "reward":
        buf.r[17] = np.nan
    else:
        buf.o[17, 0] = np.nan
    return buf


@pytest.mark.parametrize("mode, field", [("avg", "reward"), ("cvar", "reward"),
                                         ("avg", "obs"), ("cvar", "obs")],
                         ids=["avg", "cvar", "avg-obs", "cvar-obs"])
def test_train_step_nan_reward_raises(mode, field):
    lr = PrimalLearner(ARCH, small_cfg(mode=mode), seed=23)
    buf = _buffer_with_one_nan(7, field)
    with pytest.raises(SimulationError, match=r"train step \d+: loss_reward is nan"):
        for _ in range(50):   # until a batch draws the NaN row
            lr.train_step(buf)


@pytest.mark.parametrize("field", ["reward", "obs"])
def test_madqn_train_step_nan_reward_raises(field):
    lr = MadqnLearner(ARCH, small_cfg(), seed=24)
    buf = _buffer_with_one_nan(8, field)
    with pytest.raises(SimulationError, match=r"train step \d+: loss_q is nan"):
        for _ in range(50):
            lr.train_step(buf)


def test_soft_update_eta_one_copies_targets():
    lr = PrimalLearner(ARCH, small_cfg(eta=1.0), seed=17)
    rng = np.random.default_rng(23)
    buf = ReplayBuffer(500, 5, seed=5)
    fill_buffer(buf, rng, n=64)
    lr.train_step(buf)
    assert nn.params_max_abs_diff(lr.reward_target, lr.reward_critic) == 0.0
    assert nn.params_max_abs_diff(lr.cost_avg_target[0], lr.cost_avg[0]) == 0.0


# -- MADQN baseline --------------------------------------------------------------------------

def test_madqn_zero_cost_matches_plain_reward():
    lr = MadqnLearner(ARCH, small_cfg(), seed=18)
    rng = np.random.default_rng(24)
    batch = random_batch(rng)
    batch = batch._replace(c=np.zeros_like(batch.c))
    assert np.array_equal(lr.shaped_reward(batch), batch.r)


def test_madqn_gamma_zero_targets_equal_shaped_reward():
    lr = MadqnLearner(ARCH, small_cfg(gamma_r=1e-300), seed=19)
    rng = np.random.default_rng(25)
    batch = random_batch(rng)
    rbar = lr.shaped_reward(batch)
    q2, _ = nn.mlp_forward(lr.q_target, batch.o2)
    y = rbar + lr.cfg.gamma_r * (1 - batch.done) * q2.max(axis=1)
    assert np.allclose(y, rbar, atol=1e-12)


def test_madqn_gradient_finite_difference():
    lr = MadqnLearner(ARCH, small_cfg(batch_size=5), seed=20)
    rng = np.random.default_rng(26)
    batch = random_batch(rng, b=5)
    rbar = lr.shaped_reward(batch)
    q2, _ = nn.mlp_forward(lr.q_target, batch.o2)
    y = rbar + lr.cfg.gamma_r * (1 - batch.done) * q2.max(axis=1)
    params = lr.q

    def loss_fn():
        q, _ = nn.mlp_forward(params, batch.o)
        err = q[np.arange(5), batch.a] - y
        return float(0.5 * np.mean(err * err))

    q, cache = nn.mlp_forward(params, batch.o)
    err = q[np.arange(5), batch.a] - y
    dq = np.zeros_like(q)
    dq[np.arange(5), batch.a] = err / 5
    grads = nn.mlp_backward(params, cache, dq)
    _fd_check(loss_fn, params, grads)


def test_madqn_epsilon_decays():
    lr = MadqnLearner(ARCH, small_cfg(), seed=21, eps_start=1.0, eps_end=0.1,
                      eps_decay_steps=10)
    rng = np.random.default_rng(27)
    buf = ReplayBuffer(500, 5, seed=6)
    fill_buffer(buf, rng, n=64)
    assert lr.epsilon == 1.0
    for _ in range(10):
        lr.train_step(buf)
    assert lr.epsilon == pytest.approx(0.1)
