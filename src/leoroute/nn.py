"""Minimal float64 neural-network kernel: two-hidden-layer MLPs with a
per-action output head, a quantile-conditioned critic variant, exact
reverse-mode gradients, an Adam optimizer, and checkpoint round-tripping.

Everything operates on parameter blocks: plain dicts of named float64
arrays. Forward passes return caches that the matching backward passes
consume; all functions are deterministic given parameters and inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Architecture:
    """Shapes shared by every network in one experiment: a two-hidden-layer
    trunk over the observation plus one linear head per component. The
    quantile critic adds a cosine embedding merged into the trunk feature."""

    input_dim: int
    hidden_dim: int = 512
    n_actions: int = 4
    quantile_embed_dim: int = 64

    def __post_init__(self):
        if min(self.input_dim, self.hidden_dim, self.n_actions,
               self.quantile_embed_dim) < 1:
            raise ConfigurationError("architecture dims must be positive")


# ---------------------------------------------------------------------------
# activation

def silu(x):
    return x / (1.0 + np.exp(-x))


def silu_grad(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def _uniform_init(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# plain MLP: obs -> per-action values / logits

def init_mlp(arch: Architecture, rng: np.random.Generator) -> dict:
    h, d, a = arch.hidden_dim, arch.input_dim, arch.n_actions
    return {
        "w0": _uniform_init(rng, d, (d, h)), "b0": _uniform_init(rng, d, (h,)),
        "w1": _uniform_init(rng, h, (h, h)), "b1": _uniform_init(rng, h, (h,)),
        "w2": _uniform_init(rng, h, (h, a)), "b2": _uniform_init(rng, h, (a,)),
    }


def mlp_forward(params: dict, x: np.ndarray):
    """Batched forward pass; x is (B, input_dim). Returns (out, cache) with
    out of shape (B, n_actions)."""
    if x.ndim != 2 or x.shape[1] != params["w0"].shape[0]:
        raise ValueError(f"input shape {x.shape} does not match architecture")
    z0 = x @ params["w0"] + params["b0"]
    a0 = silu(z0)
    z1 = a0 @ params["w1"] + params["b1"]
    a1 = silu(z1)
    out = a1 @ params["w2"] + params["b2"]
    return out, (x, z0, a0, z1, a1)


def mlp_forward_single(params: dict, x: np.ndarray) -> np.ndarray:
    """Unbatched fast path for per-packet decisions."""
    a0 = silu(x @ params["w0"] + params["b0"])
    a1 = silu(a0 @ params["w1"] + params["b1"])
    return a1 @ params["w2"] + params["b2"]


def mlp_backward(params: dict, cache, dout: np.ndarray) -> dict:
    """Exact gradients of sum(dout * out) with respect to every parameter."""
    x, z0, a0, z1, a1 = cache
    grads = {}
    grads["w2"] = a1.T @ dout
    grads["b2"] = dout.sum(axis=0)
    da1 = dout @ params["w2"].T
    dz1 = da1 * silu_grad(z1)
    grads["w1"] = a0.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    da0 = dz1 @ params["w1"].T
    dz0 = da0 * silu_grad(z0)
    grads["w0"] = x.T @ dz0
    grads["b0"] = dz0.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# quantile-conditioned critic: (obs, zeta) -> per-action quantile values

def init_quantile_net(arch: Architecture, rng: np.random.Generator) -> dict:
    h, d, a, e = arch.hidden_dim, arch.input_dim, arch.n_actions, arch.quantile_embed_dim
    return {
        "w0": _uniform_init(rng, d, (d, h)), "b0": _uniform_init(rng, d, (h,)),
        "w1": _uniform_init(rng, h, (h, h)), "b1": _uniform_init(rng, h, (h,)),
        "ew": _uniform_init(rng, e, (e, h)), "eb": _uniform_init(rng, e, (h,)),
        "qw0": _uniform_init(rng, h, (h, h)), "qb0": _uniform_init(rng, h, (h,)),
        "qw1": _uniform_init(rng, h, (h, a)), "qb1": _uniform_init(rng, h, (a,)),
    }


def quantile_features(zetas: np.ndarray, embed_dim: int) -> np.ndarray:
    """Cosine features cos(pi * i * zeta), i = 0..embed_dim-1. zetas can be
    any shape; one trailing axis of size embed_dim is appended."""
    i = np.arange(embed_dim)
    return np.cos(np.pi * np.asarray(zetas)[..., None] * i)


def quantile_forward(params: dict, x: np.ndarray, zetas: np.ndarray):
    """x is (B, input_dim), zetas is (B, N) in [0, 1]. Returns (out, cache)
    with out of shape (B, N, n_actions): per-action values at each quantile
    fraction. The embedding merges into the trunk feature by elementwise
    product."""
    if x.ndim != 2 or zetas.ndim != 2 or x.shape[0] != zetas.shape[0]:
        raise ValueError("x must be (B, D) and zetas (B, N)")
    z0 = x @ params["w0"] + params["b0"]
    a0 = silu(z0)
    z1 = a0 @ params["w1"] + params["b1"]
    a1 = silu(z1)                                    # (B, H)
    feats = quantile_features(zetas, params["ew"].shape[0])   # (B, N, E)
    proj = feats @ params["ew"] + params["eb"]       # (B, N, H)
    merged = a1[:, None, :] * proj                   # (B, N, H)
    zq = merged @ params["qw0"] + params["qb0"]
    aq = silu(zq)
    out = aq @ params["qw1"] + params["qb1"]         # (B, N, A)
    return out, (x, z0, a0, z1, a1, feats, proj, merged, zq, aq)


def quantile_backward(params: dict, cache, dout: np.ndarray) -> dict:
    x, z0, a0, z1, a1, feats, proj, merged, zq, aq = cache
    B, N, H = merged.shape
    E = feats.shape[-1]
    A = dout.shape[-1]
    grads = {}
    aq2 = aq.reshape(B * N, H)
    dout2 = dout.reshape(B * N, A)
    grads["qw1"] = aq2.T @ dout2
    grads["qb1"] = dout2.sum(axis=0)
    daq = dout @ params["qw1"].T
    dzq = daq * silu_grad(zq)
    grads["qw0"] = merged.reshape(B * N, H).T @ dzq.reshape(B * N, H)
    grads["qb0"] = dzq.reshape(B * N, H).sum(axis=0)
    dmerged = dzq @ params["qw0"].T
    dproj = dmerged * a1[:, None, :]
    da1 = (dmerged * proj).sum(axis=1)
    grads["ew"] = feats.reshape(B * N, E).T @ dproj.reshape(B * N, H)
    grads["eb"] = dproj.reshape(B * N, H).sum(axis=0)
    dz1 = da1 * silu_grad(z1)
    grads["w1"] = a0.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    da0 = dz1 @ params["w1"].T
    dz0 = da0 * silu_grad(z0)
    grads["w0"] = x.T @ dz0
    grads["b0"] = dz0.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# softmax / entropy

def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(probs: np.ndarray) -> np.ndarray:
    p = np.clip(probs, 1e-300, 1.0)
    return -(p * np.log(p)).sum(axis=-1)


def softmax_entropy(logits: np.ndarray):
    p = softmax(logits)
    return p, entropy(p)


# ---------------------------------------------------------------------------
# optimizer and parameter-block utilities

class AdamState:
    """First/second moment accumulators for one parameter block."""

    def __init__(self, params: dict, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One in-place adaptive-moment update with bias correction."""
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for k, g in grads.items():
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        params[k] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def params_copy(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}


def soft_update(target: dict, online: dict, eta: float) -> None:
    """target <- eta * online + (1 - eta) * target, in place."""
    if not 0.0 < eta <= 1.0:
        raise ConfigurationError("eta must be in (0, 1]")
    for k in target:
        target[k] *= (1.0 - eta)
        target[k] += eta * online[k]


def params_max_abs_diff(a: dict, b: dict) -> float:
    return max(float(np.max(np.abs(a[k] - b[k]))) for k in a)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, blocks: dict[str, dict], meta: dict,
                    rng_state: dict | None = None) -> None:
    """Self-describing container: named arrays per block, a JSON metadata
    record, and optionally a serialized RNG state. Round-trips exactly."""
    arrays = {}
    for block_name, block in blocks.items():
        for k, v in block.items():
            arrays[f"{block_name}/{k}"] = v
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    if rng_state is not None:
        arrays["__rng__"] = np.frombuffer(
            json.dumps(rng_state, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (blocks, meta, rng_state)."""
    data = np.load(path)
    blocks: dict[str, dict] = {}
    meta = None
    rng_state = None
    for key in data.files:
        if key == "__meta__":
            meta = json.loads(bytes(data[key]).decode())
        elif key == "__rng__":
            rng_state = json.loads(bytes(data[key]).decode())
        else:
            block_name, k = key.split("/", 1)
            blocks.setdefault(block_name, {})[k] = data[key]
    return blocks, meta, rng_state
