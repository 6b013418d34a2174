"""Decision-process face of the simulator: local observations, per-hop
rewards and costs, and transition assembly into a shared replay buffer.

Observations are strictly local: geometry toward the packet's destination,
the four neighbor queues, TTL budget and packet size. The cost signal is the
normalized queuing delay accumulated since the previous decision, so summing
a packet's costs recovers its total queuing delay exactly; the queuing spent
on the up- and down-links is charged to the first and final decision
respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constellation import Constellation
from .errors import SimulationError
from .netsim import NS_PER_S, Packet, Router, Simulator

OBS_DIM = 17


@dataclass(frozen=True)
class RewardConfig:
    delay_norm_s: float = 0.1                    # normalization constant
    delay_sign: float = -1.0                     # -1 penalizes sojourn time
    progress_scale: float = 1.0 / (math.pi * 6_371_000.0)   # per meter
    delivered_bonus_base: float = 1.0
    ttl_penalty_scale: float = 5.0
    size_unit_bits: float = 1e6                  # delivered bonus counts Mbits

    def __post_init__(self):
        if self.delay_norm_s <= 0:
            raise ValueError("delay_norm_s must be positive")
        if self.delay_sign not in (-1.0, 1.0):
            raise ValueError("delay_sign must be +1 or -1")


def hop_cost(queue_delay_s: float, cfg: RewardConfig) -> float:
    """Normalized queuing delay of one hop (the congestion signal)."""
    return queue_delay_s / cfg.delay_norm_s


def hop_reward(tau_s: float, cost: float, progress: float, bonus: float,
               cfg: RewardConfig) -> float:
    """Per-hop reward: signed sojourn time, minus the congestion cost, plus
    normalized geographic progress and any terminal bonus."""
    return cfg.delay_sign * tau_s / cfg.delay_norm_s - cost + progress + bonus


def delivered_bonus(size_bits: float, cfg: RewardConfig) -> float:
    return cfg.delivered_bonus_base + size_bits / cfg.size_unit_bits


def dropped_penalty(ttl_remaining: int, sum_progress: float, cfg: RewardConfig) -> float:
    """Terminal penalty on a drop: proportional to the wasted TTL budget and
    returning all progress reward the packet collected."""
    return -cfg.ttl_penalty_scale * ttl_remaining / cfg.delay_norm_s - sum_progress


class Featurizer:
    """Builds fixed-length local feature vectors from per-refresh geometry
    tables (sub-satellite great-circle distances and bearings toward every
    station)."""

    def __init__(self, constellation: Constellation, num_stations: int,
                 ttl_hops: int, max_size_bits: int):
        cfg = constellation.cfg
        self.earth_radius = cfg.earth_radius_m
        self.ttl_hops = ttl_hops
        self.max_size_bits = max_size_bits
        # normalization for per-hop progress features: the wider of the
        # in-plane and inter-plane grid spacings, as ground arc
        self.hop_scale = 2 * math.pi * self.earth_radius * max(
            1.0 / cfg.sats_per_plane, 1.0 / cfg.num_planes)
        self.gcd = np.zeros((constellation.num_satellites, num_stations))
        self.bearing_sin = np.zeros_like(self.gcd)
        self.bearing_cos = np.zeros_like(self.gcd)
        self.sim: Optional[Simulator] = None
        # plain-python copies for the per-decision fast path
        self._nbr_list = constellation.neighbors.tolist()
        self._gcd_list: list[list[float]] = []
        self._bsin_list: list[list[float]] = []
        self._bcos_list: list[list[float]] = []

    def refresh(self, sim: Simulator) -> None:
        """Recompute geometry tables from the simulator's position caches."""
        self.sim = sim
        sat_u = sim.positions / np.linalg.norm(sim.positions, axis=1, keepdims=True)
        gs_u = sim.gs_positions / np.linalg.norm(sim.gs_positions, axis=1, keepdims=True)
        dots = np.clip(sat_u @ gs_u.T, -1.0, 1.0)          # (S, G)
        self.gcd = self.earth_radius * np.arccos(dots)
        # local east/north at each sub-satellite point
        z = np.array([0.0, 0.0, 1.0])
        east = np.cross(np.broadcast_to(z, sat_u.shape), sat_u)
        east_norm = np.linalg.norm(east, axis=1, keepdims=True)
        east = east / np.maximum(east_norm, 1e-12)
        north = np.cross(sat_u, east)
        # direction to each station projected into the tangent plane
        d = gs_u[None, :, :] - sat_u[:, None, :] * dots[:, :, None]
        dn = np.linalg.norm(d, axis=2)
        d = d / np.maximum(dn, 1e-12)[:, :, None]
        self.bearing_sin = np.einsum("sgk,sk->sg", d, east)
        self.bearing_cos = np.einsum("sgk,sk->sg", d, north)
        at_target = dn < 1e-9          # over the station: direction undefined
        self.bearing_sin[at_target] = 0.0
        self.bearing_cos[at_target] = 0.0
        self._gcd_list = self.gcd.tolist()
        self._bsin_list = self.bearing_sin.tolist()
        self._bcos_list = self.bearing_cos.tolist()

    def observe(self, packet: Packet, sat: int) -> np.ndarray:
        """Deterministic featurization of (packet, satellite) from local and
        one-hop-neighbor state of the simulator attached by ``refresh``;
        returns an ``OBS_DIM`` vector."""
        sim = self.sim
        if sim is None:
            raise SimulationError("featurizer has no simulator attached")
        g = packet.dst_gs
        here = self._gcd_list[sat][g]
        cap = float(sim.cfg.link_buffer_bits)
        queues = sim.isl_queues
        nbrs = self._nbr_list[sat]
        f = [self._bsin_list[sat][g], self._bcos_list[sat][g],
             here / (math.pi * self.earth_radius),
             0.0, 0.0, 0.0, 0.0,       # per-direction progress
             0.0, 0.0, 0.0, 0.0,       # per-direction queue occupancy
             packet.ttl / self.ttl_hops,
             packet.size_bits / self.max_size_bits,
             0.0, 0.0, 0.0, 0.0]       # link availability
        for k in range(4):
            nbr = nbrs[k]
            if nbr == sat:
                continue               # degenerate self-link stays masked
            d = (here - self._gcd_list[nbr][g]) / self.hop_scale
            f[3 + k] = -1.0 if d < -1.0 else (1.0 if d > 1.0 else d)
            q = queues.get((sat, nbr))
            if q is not None:
                f[7 + k] = q.queued_bits / cap
            f[13 + k] = 1.0
        return np.array(f)


class ObsRouter(Router):
    """Adapter that feeds each decision's feature vector to a policy, any
    object with ``decide(features) -> int``; used for evaluation runs."""

    def __init__(self, featurizer: Featurizer, policy):
        self.featurizer = featurizer
        self.policy = policy

    def on_topology_refresh(self, sim: Simulator) -> None:
        self.featurizer.refresh(sim)

    def choose(self, packet: Packet, sat: int, now_ns: int) -> int:
        return self.policy.decide(self.featurizer.observe(packet, sat))


class _Pending:
    __slots__ = ("features", "action", "decision_ns", "gcd_m")

    def __init__(self, features, action, decision_ns, gcd_m):
        self.features = features
        self.action = action
        self.decision_ns = decision_ns
        self.gcd_m = gcd_m


class TransitionCollector(Router):
    """Wraps a behavior policy (``decide(features) -> int``) and assembles
    one learning transition per decision: (o, a, r, costs, o', done,
    sojourn). Terminal next-observations follow the all-zeros convention.
    Every queuing nanosecond a packet accumulates is charged to exactly one
    transition."""

    def __init__(self, featurizer: Featurizer, policy, reward_cfg: RewardConfig,
                 buffer, validate_obs: bool = False):
        self.featurizer = featurizer
        self.policy = policy
        self.reward_cfg = reward_cfg
        self.buffer = buffer
        self.validate_obs = validate_obs
        self.pending: dict[int, _Pending] = {}
        self._settled_queue_ns: dict[int, int] = {}
        self._sum_progress: dict[int, float] = {}
        self._obs_cache: dict[int, np.ndarray] = {}
        self.decisions = 0
        self.transitions = 0

    # -- router hooks ------------------------------------------------------
    def on_topology_refresh(self, sim: Simulator) -> None:
        self.featurizer.refresh(sim)

    def notify_step(self, packet: Packet, sat: int, now_ns: int) -> None:
        obs = self.featurizer.observe(packet, sat)
        if self.validate_obs and not np.all(np.isfinite(obs)):
            raise SimulationError(f"non-finite observation for packet {packet.id}")
        self._obs_cache[packet.id] = obs
        p = self.pending.pop(packet.id, None)
        if p is not None:
            self._emit(packet, p, obs, now_ns, done=False,
                       gcd_now=self.featurizer.gcd[sat, packet.dst_gs], bonus=0.0)

    def choose(self, packet: Packet, sat: int, now_ns: int) -> int:
        obs = self._obs_cache.pop(packet.id, None)
        if obs is None:
            obs = self.featurizer.observe(packet, sat)
        action = self.policy.decide(obs)
        self.decisions += 1
        self.pending[packet.id] = _Pending(
            obs, action, now_ns,
            float(self.featurizer.gcd[sat, packet.dst_gs]))
        return action

    def notify_terminal(self, packet: Packet, node: Optional[int], now_ns: int,
                        delivered: bool) -> None:
        p = self.pending.pop(packet.id, None)
        if p is None:
            self._cleanup(packet.id)
            return
        cfg = self.reward_cfg
        if delivered:
            gcd_now = 0.0
            bonus = delivered_bonus(packet.size_bits, cfg)
            self._emit(packet, p, None, now_ns, done=True, gcd_now=gcd_now,
                       bonus=bonus)
        else:
            gcd_now = (self.featurizer.gcd[node, packet.dst_gs]
                       if node is not None else p.gcd_m)
            progress = (p.gcd_m - gcd_now) * cfg.progress_scale
            total_progress = self._sum_progress.get(packet.id, 0.0) + progress
            bonus = dropped_penalty(packet.ttl, total_progress, cfg)
            self._emit(packet, p, None, now_ns, done=True, gcd_now=gcd_now,
                       bonus=bonus)
        self._cleanup(packet.id)

    # -- assembly ------------------------------------------------------------
    def _emit(self, packet: Packet, p: _Pending, next_features, now_ns: int,
              done: bool, gcd_now: float, bonus: float) -> None:
        cfg = self.reward_cfg
        settled = self._settled_queue_ns.get(packet.id, 0)
        dq_ns = packet.cum_queue_ns - settled
        self._settled_queue_ns[packet.id] = packet.cum_queue_ns
        cost = hop_cost(dq_ns / NS_PER_S, cfg)
        tau = (now_ns - p.decision_ns) / NS_PER_S
        progress = (p.gcd_m - gcd_now) * cfg.progress_scale
        self._sum_progress[packet.id] = self._sum_progress.get(packet.id, 0.0) + progress
        r = hop_reward(tau, cost, progress, bonus, cfg)
        o2 = next_features if next_features is not None else np.zeros(OBS_DIM)
        self.buffer.add(p.features, p.action, r, [cost], o2, done, tau)
        self.transitions += 1

    def _cleanup(self, pid: int) -> None:
        self._settled_queue_ns.pop(pid, None)
        self._sum_progress.pop(pid, None)
        self._obs_cache.pop(pid, None)

    def reset_pending(self) -> int:
        """Discard unresolved decisions (e.g. packets still in flight at an
        epoch cutoff); returns how many were discarded."""
        n = len(self.pending)
        self.pending.clear()
        self._settled_queue_ns.clear()
        self._sum_progress.clear()
        self._obs_cache.clear()
        return n
