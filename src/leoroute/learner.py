"""Risk-constrained multi-agent learner and the risk-oblivious baseline.

Two constraint modes share one training loop: "avg" bounds expected
discounted cost-returns with scalar critics, "cvar" bounds the expected
worst-tail cost (CVaR at a configured risk level) using a quantile critic
trained by asymmetric Huber regression. With kappa > 0 that critic learns
Huber quantiles, which equal the true quantiles only as kappa -> 0, so its
tail estimate lies between the mean cost and the true CVaR. Lagrange
multipliers and the entropy temperature adapt online: multipliers rise while
the estimated (tail) cost exceeds its threshold, the temperature falls while
policy entropy exceeds its target, and both are projected back to
non-negative values after every step. A shared replay buffer feeds uniform
mini-batches to all updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import nn
from .errors import ConfigurationError, SimulationError

MODE_AVG = "avg"
MODE_CVAR = "cvar"


@dataclass
class LagrangeState:
    """Multipliers and constraint targets. Thresholds are in cost units
    (normalized queuing delay), risk levels are tail masses in (0, 1]."""

    lam: np.ndarray = field(default_factory=lambda: np.zeros(1))
    alpha: float = 0.1
    thresholds: np.ndarray = field(default_factory=lambda: np.array([0.1]))
    risk_levels: np.ndarray = field(default_factory=lambda: np.array([0.25]))
    entropy_target: float = 0.067

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        self.risk_levels = np.asarray(self.risk_levels, dtype=float)
        if np.any(self.lam < 0) or self.alpha < 0:
            raise ConfigurationError("multipliers must start non-negative")
        if np.any((self.risk_levels <= 0) | (self.risk_levels > 1)):
            raise ConfigurationError("risk levels must lie in (0, 1]")

    @property
    def num_constraints(self) -> int:
        return len(self.lam)


@dataclass(frozen=True)
class LearnerConfig:
    mode: str = MODE_AVG
    gamma_r: float = 0.99
    gamma_c: float = 0.97
    batch_size: int = 1024
    n_quantiles: int = 64            # online fractions per transition
    n_target_quantiles: int = 64     # target fractions per transition
    n_cvar_samples: int = 64         # tail fractions for the CVaR estimate
    eta: float = 0.005               # soft target update rate
    huber_kappa: float = 1.0
    lr_actor: float = 3e-4
    lr_critic: float = 3e-4
    lr_lambda: float = 1e-3
    lr_alpha: float = 1e-3
    buffer_capacity: int = 300_000

    def __post_init__(self):
        if self.mode not in (MODE_AVG, MODE_CVAR):
            raise ConfigurationError("mode must be 'avg' or 'cvar'")
        if not (0.0 < self.gamma_r <= 1.0 and 0.0 < self.gamma_c <= 1.0):
            raise ConfigurationError("discount factors must lie in (0, 1]")
        if min(self.n_quantiles, self.n_target_quantiles, self.n_cvar_samples) < 1:
            raise ConfigurationError("quantile sample counts must be >= 1")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigurationError("eta must lie in (0, 1]")
        if self.huber_kappa <= 0:
            raise ConfigurationError("huber_kappa must be positive")


class Batch(NamedTuple):
    o: np.ndarray        # (B, D)
    a: np.ndarray        # (B,) int
    r: np.ndarray        # (B,)
    c: np.ndarray        # (B, K)
    o2: np.ndarray       # (B, D)
    done: np.ndarray     # (B,) float 0/1
    tau: np.ndarray      # (B,) sojourn seconds


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling over current
    contents."""

    def __init__(self, capacity: int, obs_dim: int, n_costs: int = 1, seed: int = 0):
        self.capacity = capacity
        self.o = np.zeros((capacity, obs_dim))
        self.a = np.zeros(capacity, dtype=np.int64)
        self.r = np.zeros(capacity)
        self.c = np.zeros((capacity, n_costs))
        self.o2 = np.zeros((capacity, obs_dim))
        self.done = np.zeros(capacity)
        self.tau = np.zeros(capacity)
        self.size = 0
        self.head = 0
        self.rng = np.random.default_rng(seed)

    def __len__(self):
        return self.size

    def add(self, o, a, r, c, o2, done, tau) -> None:
        i = self.head
        self.o[i] = o
        self.a[i] = a
        self.r[i] = r
        self.c[i] = c
        self.o2[i] = o2
        self.done[i] = 1.0 if done else 0.0
        self.tau[i] = tau
        self.head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        idx = self.rng.integers(0, self.size, size=batch_size)
        return Batch(self.o[idx], self.a[idx], self.r[idx], self.c[idx],
                     self.o2[idx], self.done[idx], self.tau[idx])


def quantile_huber_loss(delta: np.ndarray, zetas: np.ndarray, kappa: float):
    """Asymmetric Huber loss over TD errors delta (B, N, N') at online
    fractions zetas (B, N). Over- and under-estimation are weighted by
    |zeta - 1(delta < 0)|. Returns (scalar loss, d loss / d online_value)
    where the gradient is with respect to the (B, N) online quantile values
    entering delta = target - online.

    Total: mean over the batch of sum_i (1/N') sum_j rho.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    B, N, NP = delta.shape
    abs_d = np.abs(delta)
    quad = abs_d <= kappa
    huber = np.where(quad, 0.5 * delta * delta, kappa * (abs_d - 0.5 * kappa))
    weight = np.abs(zetas[:, :, None] - (delta < 0))
    rho = weight * huber
    loss = float(rho.sum(axis=(1, 2)).mean() / NP)
    huber_grad = np.where(quad, delta, kappa * np.sign(delta))
    d_online = -(weight * huber_grad).sum(axis=2) / (B * NP)
    return loss, d_online


def _take_action(values: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """values (B, A) or (B, N, A) indexed by per-row action."""
    if values.ndim == 2:
        return values[np.arange(len(actions)), actions]
    return np.take_along_axis(values, actions[:, None, None], axis=2)[:, :, 0]


def _log_probs(probs: np.ndarray) -> np.ndarray:
    return np.log(np.clip(probs, 1e-300, 1.0))


class PrimalLearner:
    """Actor, soft reward critic, cost critics (scalar and quantile) with
    target copies, plus the Lagrange state. One logical owner mutates the
    parameters; policies read them in place between steps."""

    def __init__(self, arch: nn.Architecture, cfg: LearnerConfig,
                 lagrange: Optional[LagrangeState] = None, seed: int = 0):
        self.arch = arch
        self.cfg = cfg
        self.lagrange = lagrange if lagrange is not None else LagrangeState()
        ss = np.random.SeedSequence(seed)
        init_rng, self.rng = [np.random.default_rng(s) for s in ss.spawn(2)]
        K = self.lagrange.num_constraints

        self.actor = nn.init_mlp(arch, init_rng)
        self.reward_critic = nn.init_mlp(arch, init_rng)
        self.reward_target = nn.params_copy(self.reward_critic)
        self.cost_avg = [nn.init_mlp(arch, init_rng) for _ in range(K)]
        self.cost_avg_target = [nn.params_copy(p) for p in self.cost_avg]
        self.cost_quant = [nn.init_quantile_net(arch, init_rng) for _ in range(K)]
        self.cost_quant_target = [nn.params_copy(p) for p in self.cost_quant]

        self.opt_actor = nn.AdamState(self.actor)
        self.opt_reward = nn.AdamState(self.reward_critic)
        self.opt_cost_avg = [nn.AdamState(p) for p in self.cost_avg]
        self.opt_cost_quant = [nn.AdamState(p) for p in self.cost_quant]

        self.steps = 0
        # branch-isolation instrumentation
        self.ops = {"quantile": 0, "cost_avg": 0}

    # -- policy terms ------------------------------------------------------
    def _policy(self, obs: np.ndarray):
        logits, cache = nn.mlp_forward(self.actor, obs)
        probs = nn.softmax(logits)
        return logits, cache, probs

    # -- reward critic -------------------------------------------------------
    def td_target_reward(self, batch: Batch, pi2: np.ndarray) -> np.ndarray:
        """Soft TD target: r + gamma_r * pi(o')^T (Q_target(o') - alpha log pi(o')),
        with the bootstrap term removed on terminal transitions; ``pi2`` is
        the policy on ``batch.o2``."""
        q2, _ = nn.mlp_forward(self.reward_target, batch.o2)
        soft_v = (pi2 * (q2 - self.lagrange.alpha * _log_probs(pi2))).sum(axis=1)
        return batch.r + self.cfg.gamma_r * (1.0 - batch.done) * soft_v

    def critic_update_reward(self, batch: Batch, pi2: np.ndarray) -> float:
        y = self.td_target_reward(batch, pi2)
        q, cache = nn.mlp_forward(self.reward_critic, batch.o)
        err = _take_action(q, batch.a) - y
        dq = np.zeros_like(q)
        dq[np.arange(len(batch.a)), batch.a] = err / len(batch.a)
        grads = nn.mlp_backward(self.reward_critic, cache, dq)
        nn.adam_step(self.reward_critic, grads, self.opt_reward, self.cfg.lr_critic)
        return float(0.5 * np.mean(err * err))

    # -- expected-cost critics --------------------------------------------------
    def td_target_cost_avg(self, batch: Batch, k: int, pi2: np.ndarray) -> np.ndarray:
        q2, _ = nn.mlp_forward(self.cost_avg_target[k], batch.o2)
        v = (pi2 * q2).sum(axis=1)
        return batch.c[:, k] + self.cfg.gamma_c * (1.0 - batch.done) * v

    def critic_update_cost_avg(self, batch: Batch, pi2: np.ndarray) -> float:
        self.ops["cost_avg"] += 1
        total = 0.0
        for k in range(self.lagrange.num_constraints):
            y = self.td_target_cost_avg(batch, k, pi2)
            q, cache = nn.mlp_forward(self.cost_avg[k], batch.o)
            err = _take_action(q, batch.a) - y
            dq = np.zeros_like(q)
            dq[np.arange(len(batch.a)), batch.a] = err / len(batch.a)
            grads = nn.mlp_backward(self.cost_avg[k], cache, dq)
            nn.adam_step(self.cost_avg[k], grads, self.opt_cost_avg[k],
                         self.cfg.lr_critic)
            total += float(0.5 * np.mean(err * err))
        return total

    # -- quantile cost critics -----------------------------------------------------
    def quantile_td_errors(self, batch: Batch, zetas: np.ndarray,
                           zetas_t: np.ndarray, k: int, pi2: np.ndarray):
        """Pairwise distributional TD errors, shape (B, N, N'). Returns the
        errors together with the online forward cache for the gradient step."""
        self.ops["quantile"] += 1
        qt, _ = nn.quantile_forward(self.cost_quant_target[k], batch.o2, zetas_t)
        v2 = np.einsum("bna,ba->bn", qt, pi2)                     # (B, N')
        y = batch.c[:, k, None] + self.cfg.gamma_c * (1.0 - batch.done)[:, None] * v2
        q_on, cache = nn.quantile_forward(self.cost_quant[k], batch.o, zetas)
        q_sel = _take_action(q_on, batch.a)                       # (B, N)
        delta = y[:, None, :] - q_sel[:, :, None]
        return delta, cache, q_on

    def critic_update_cost_quantile(self, batch: Batch, pi2: np.ndarray) -> float:
        total = 0.0
        B = len(batch.a)
        for k in range(self.lagrange.num_constraints):
            zetas = self.rng.random((B, self.cfg.n_quantiles))
            zetas_t = self.rng.random((B, self.cfg.n_target_quantiles))
            delta, cache, q_on = self.quantile_td_errors(batch, zetas, zetas_t, k, pi2)
            loss, d_online = quantile_huber_loss(delta, zetas, self.cfg.huber_kappa)
            dout = np.zeros_like(q_on)
            np.put_along_axis(dout, batch.a[:, None, None],
                              d_online[:, :, None], axis=2)
            grads = nn.quantile_backward(self.cost_quant[k], cache, dout)
            nn.adam_step(self.cost_quant[k], grads, self.opt_cost_quant[k],
                         self.cfg.lr_critic)
            total += loss
        return total

    def cvar_estimate(self, obs: np.ndarray, k: int,
                      n_samples: Optional[int] = None) -> np.ndarray:
        """Per-action tail expectation: average of the quantile critic over
        fractions drawn from U(1 - eps_k, 1). Shape (B, A)."""
        self.ops["quantile"] += 1
        eps = float(self.lagrange.risk_levels[k])
        if not 0.0 < eps <= 1.0:
            raise ConfigurationError("risk level must lie in (0, 1]")
        n = n_samples if n_samples is not None else self.cfg.n_cvar_samples
        zetas = 1.0 - eps * self.rng.random((obs.shape[0], n))
        q, _ = nn.quantile_forward(self.cost_quant[k], obs, zetas)
        return q.mean(axis=1)

    # -- actor ------------------------------------------------------------------------
    def actor_update(self, batch: Batch, estimates: list[np.ndarray]) -> float:
        """Minimize E[pi^T (alpha log pi - Q_r + sum_k lambda_k estimates[k])]
        with critic outputs treated as constants. ``estimates[k]`` is the
        (B, A) per-action cost estimate of constraint k on ``batch.o``: the
        expected-cost critic in PRIMAL-Avg, ``cvar_estimate`` in
        PRIMAL-CVaR."""
        penalty = np.zeros((len(batch.a), self.arch.n_actions))
        for k, est in enumerate(estimates):
            penalty += self.lagrange.lam[k] * est
        logits, cache, pi = self._policy(batch.o)
        qr, _ = nn.mlp_forward(self.reward_critic, batch.o)
        g = self.lagrange.alpha * _log_probs(pi) - qr + penalty
        per_sample = (pi * g).sum(axis=1)
        dlogits = pi * (g - per_sample[:, None]) / len(batch.a)
        grads = nn.mlp_backward(self.actor, cache, dlogits)
        nn.adam_step(self.actor, grads, self.opt_actor, self.cfg.lr_actor)
        return float(per_sample.mean())

    # -- multipliers and temperature ------------------------------------------------------
    def multiplier_update(self, pi: np.ndarray, estimates: list[np.ndarray]) -> np.ndarray:
        """Dual ascent: lambda_k rises while the policy's estimated cost
        J_k = E[pi^T estimates[k]] exceeds its threshold, then projects back
        to >= 0. ``pi`` is the policy on the batch and ``estimates`` the
        ones the actor step used. Returns J per constraint."""
        lam = self.lagrange.lam
        j = np.array([float((pi * est).sum(axis=1).mean()) for est in estimates])
        for k in range(len(estimates)):
            lam[k] = max(0.0, lam[k] + self.cfg.lr_lambda *
                         (j[k] - self.lagrange.thresholds[k]))
        return j

    def temperature_update(self, pi: np.ndarray) -> tuple[float, float]:
        """Gradient descent on alpha * (H(pi) - H_target), projected to >= 0:
        the temperature falls while entropy sits above target and rises when
        the policy over-commits. Returns the new alpha and the entropy."""
        h = float(nn.entropy(pi).mean())
        self.lagrange.alpha = max(
            0.0, self.lagrange.alpha - self.cfg.lr_alpha *
            (h - self.lagrange.entropy_target))
        return self.lagrange.alpha, h

    # -- targets ------------------------------------------------------------------------
    def soft_update_targets(self) -> None:
        nn.soft_update(self.reward_target, self.reward_critic, self.cfg.eta)
        if self.cfg.mode == MODE_AVG:
            for tgt, src in zip(self.cost_avg_target, self.cost_avg):
                nn.soft_update(tgt, src, self.cfg.eta)
        else:
            for tgt, src in zip(self.cost_quant_target, self.cost_quant):
                nn.soft_update(tgt, src, self.cfg.eta)

    # -- one full step --------------------------------------------------------------------
    def train_step(self, buffer: ReplayBuffer) -> Optional[dict]:
        """One pass of the per-event training block: sample, update reward
        critic, branch on the risk mode for cost critic / actor / multipliers,
        update the temperature, soft-update targets."""
        if len(buffer) < self.cfg.batch_size:
            return None
        batch = buffer.sample(self.cfg.batch_size)
        _, _, pi2 = self._policy(batch.o2)   # theta is fixed until the actor step
        loss_r = self.critic_update_reward(batch, pi2)
        # the cost critic is fixed after its step, so one per-action estimate
        # per constraint serves both the actor and the multiplier step
        ks = range(self.lagrange.num_constraints)
        if self.cfg.mode == MODE_AVG:
            loss_c = self.critic_update_cost_avg(batch, pi2)
            estimates = [nn.mlp_forward(self.cost_avg[k], batch.o)[0] for k in ks]
        else:
            loss_c = self.critic_update_cost_quantile(batch, pi2)
            estimates = [self.cvar_estimate(batch.o, k) for k in ks]
        loss_a = self.actor_update(batch, estimates)
        # the actor is fixed from here on, so one policy on batch.o serves
        # both the multiplier and the temperature step
        _, _, pi = self._policy(batch.o)
        self.multiplier_update(pi, estimates)
        alpha, entropy = self.temperature_update(pi)
        self.soft_update_targets()
        self.steps += 1
        return _checked({
            "step": self.steps,
            "loss_reward": loss_r,
            "loss_cost": loss_c,
            "loss_actor": loss_a,
            "lambda": self.lagrange.lam.copy().tolist(),
            "alpha": alpha,
            "entropy": entropy,
            "buffer": len(buffer),
        })

    # -- checkpointing -------------------------------------------------------------------
    def blocks(self) -> dict:
        out = {"actor": self.actor, "reward_critic": self.reward_critic,
               "reward_target": self.reward_target}
        for k in range(self.lagrange.num_constraints):
            out[f"cost_avg_{k}"] = self.cost_avg[k]
            out[f"cost_avg_target_{k}"] = self.cost_avg_target[k]
            out[f"cost_quant_{k}"] = self.cost_quant[k]
            out[f"cost_quant_target_{k}"] = self.cost_quant_target[k]
        return out


def _checked(info: dict) -> dict:
    """Raise when a train step returned a NaN or infinite loss, so a run
    does not go on learning from garbage."""
    for key, value in info.items():
        if key.startswith("loss_") and not math.isfinite(value):
            raise SimulationError(f"train step {info['step']}: {key} is {value}")
    return info


class MadqnLearner:
    """Asynchronous DQN baseline on the hand-shaped reward r + sum_k c_k
    (the shaping that a fixed unit multiplier would produce); epsilon-greedy
    behavior with a linear decay, no constraints, no multipliers."""

    def __init__(self, arch: nn.Architecture, cfg: LearnerConfig, seed: int = 0,
                 cost_sign: float = 1.0, eps_start: float = 1.0,
                 eps_end: float = 0.05, eps_decay_steps: int = 2000):
        self.arch = arch
        self.cfg = cfg
        self.cost_sign = cost_sign
        ss = np.random.SeedSequence(seed)
        init_rng, self.rng = [np.random.default_rng(s) for s in ss.spawn(2)]
        self.q = nn.init_mlp(arch, init_rng)
        self.q_target = nn.params_copy(self.q)
        self.opt = nn.AdamState(self.q)
        self.steps = 0
        self.eps_start, self.eps_end = eps_start, eps_end
        self.eps_decay_steps = eps_decay_steps

    @property
    def epsilon(self) -> float:
        frac = min(1.0, self.steps / max(1, self.eps_decay_steps))
        return self.eps_start + (self.eps_end - self.eps_start) * frac

    def shaped_reward(self, batch: Batch) -> np.ndarray:
        return batch.r + self.cost_sign * batch.c.sum(axis=1)

    def madqn_baseline_update(self, batch: Batch) -> float:
        rbar = self.shaped_reward(batch)
        q2, _ = nn.mlp_forward(self.q_target, batch.o2)
        y = rbar + self.cfg.gamma_r * (1.0 - batch.done) * q2.max(axis=1)
        q, cache = nn.mlp_forward(self.q, batch.o)
        err = _take_action(q, batch.a) - y
        dq = np.zeros_like(q)
        dq[np.arange(len(batch.a)), batch.a] = err / len(batch.a)
        grads = nn.mlp_backward(self.q, cache, dq)
        nn.adam_step(self.q, grads, self.opt, self.cfg.lr_critic)
        return float(0.5 * np.mean(err * err))

    def train_step(self, buffer: ReplayBuffer) -> Optional[dict]:
        if len(buffer) < self.cfg.batch_size:
            return None
        batch = buffer.sample(self.cfg.batch_size)
        loss = self.madqn_baseline_update(batch)
        nn.soft_update(self.q_target, self.q, self.cfg.eta)
        self.steps += 1
        return _checked({"step": self.steps, "loss_q": loss,
                         "epsilon": self.epsilon, "buffer": len(buffer)})

    def blocks(self) -> dict:
        return {"q": self.q, "q_target": self.q_target}
