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
        # per-refresh (S, G) tables as plain nested lists [sat][station],
        # the form the per-decision path reads; zero until the first refresh
        self.gcd: list[list[float]] = np.zeros(
            (constellation.num_satellites, num_stations)).tolist()
        self._bsin = self._bcos = self.gcd
        self.sim: Optional[Simulator] = None
        self._nbr_list = constellation.neighbors.tolist()

    def refresh(self, sim: Simulator) -> None:
        """Recompute geometry tables from the simulator's position caches."""
        self.sim = sim
        sat_u = sim.positions / np.linalg.norm(sim.positions, axis=1, keepdims=True)
        gs_u = sim.gs_positions / np.linalg.norm(sim.gs_positions, axis=1, keepdims=True)
        dots = np.clip(sat_u @ gs_u.T, -1.0, 1.0)          # (S, G)
        self.gcd = (self.earth_radius * np.arccos(dots)).tolist()
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
        bsin = np.einsum("sgk,sk->sg", d, east)
        bcos = np.einsum("sgk,sk->sg", d, north)
        at_target = dn < 1e-9          # over the station: direction undefined
        bsin[at_target] = 0.0
        bcos[at_target] = 0.0
        self._bsin = bsin.tolist()
        self._bcos = bcos.tolist()

    def observe(self, packet: Packet, sat: int) -> np.ndarray:
        """Deterministic featurization of (packet, satellite) from local and
        one-hop-neighbor state of the simulator attached by ``refresh``;
        returns an ``OBS_DIM`` vector."""
        sim = self.sim
        if sim is None:
            raise SimulationError("featurizer has no simulator attached")
        g = packet.dst_gs
        here = self.gcd[sat][g]
        cap = float(sim.cfg.link_buffer_bits)
        queues = sim.isl_queues
        nbrs = self._nbr_list[sat]
        f = [self._bsin[sat][g], self._bcos[sat][g],
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
            d = (here - self.gcd[nbr][g]) / self.hop_scale
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


class _InFlight:
    """One in-flight packet's open decision (features, action, decision
    time and distance to go at that decision) plus the queuing already
    charged to its transitions and the progress reward collected so far."""

    __slots__ = ("features", "action", "decision_ns", "gcd_m", "settled_ns",
                 "progress")

    def __init__(self):
        self.settled_ns = 0
        self.progress = 0.0


class TransitionCollector(Router):
    """Wraps a behavior policy (``decide(features) -> int``) and assembles
    one learning transition per decision: (o, a, r, costs, o', done,
    sojourn). Terminal next-observations follow the all-zeros convention.
    Every queuing nanosecond a packet accumulates is charged to exactly one
    transition.

    ``pending`` holds one record per packet from its first decision until
    its terminal event. ``notify_step`` closes the packet's previous
    decision and stores the new features, which the ``choose`` that the
    simulator calls right after it reads."""

    def __init__(self, featurizer: Featurizer, policy, reward_cfg: RewardConfig,
                 buffer):
        self.featurizer = featurizer
        self.policy = policy
        self.reward_cfg = reward_cfg
        self.buffer = buffer
        self.pending: dict[int, _InFlight] = {}
        self.decisions = 0
        self.transitions = 0

    # -- router hooks ------------------------------------------------------
    def on_topology_refresh(self, sim: Simulator) -> None:
        self.featurizer.refresh(sim)

    def notify_step(self, packet: Packet, sat: int, now_ns: int) -> None:
        obs = self.featurizer.observe(packet, sat)
        gcd_now = self.featurizer.gcd[sat][packet.dst_gs]
        rec = self.pending.get(packet.id)
        if rec is None:
            rec = self.pending[packet.id] = _InFlight()
        else:
            self._emit(packet, rec, obs, now_ns, gcd_now, 0.0)
        rec.features = obs
        rec.decision_ns = now_ns
        rec.gcd_m = gcd_now

    def choose(self, packet: Packet, sat: int, now_ns: int) -> int:
        rec = self.pending[packet.id]
        rec.action = self.policy.decide(rec.features)
        self.decisions += 1
        return rec.action

    def notify_terminal(self, packet: Packet, node: Optional[int], now_ns: int,
                        delivered: bool) -> None:
        rec = self.pending.pop(packet.id, None)
        if rec is None:
            return
        cfg = self.reward_cfg
        if delivered:
            self._emit(packet, rec, None, now_ns, 0.0,
                       delivered_bonus(packet.size_bits, cfg))
        else:
            gcd_now = (self.featurizer.gcd[node][packet.dst_gs]
                       if node is not None else rec.gcd_m)
            progress = (rec.gcd_m - gcd_now) * cfg.progress_scale
            self._emit(packet, rec, None, now_ns, gcd_now,
                       dropped_penalty(packet.ttl, rec.progress + progress, cfg))

    # -- assembly ------------------------------------------------------------
    def _emit(self, packet: Packet, rec: _InFlight, next_features, now_ns: int,
              gcd_now: float, bonus: float) -> None:
        """Close the open decision of ``rec``: a terminal transition when
        ``next_features`` is None."""
        cfg = self.reward_cfg
        cost = hop_cost((packet.cum_queue_ns - rec.settled_ns) / NS_PER_S, cfg)
        rec.settled_ns = packet.cum_queue_ns
        tau = (now_ns - rec.decision_ns) / NS_PER_S
        progress = (rec.gcd_m - gcd_now) * cfg.progress_scale
        rec.progress += progress
        r = hop_reward(tau, cost, progress, bonus, cfg)
        done = next_features is None
        o2 = np.zeros(OBS_DIM) if done else next_features
        self.buffer.add(rec.features, rec.action, r, [cost], o2, done, tau)
        self.transitions += 1

    def reset_pending(self) -> int:
        """Discard unresolved decisions (e.g. packets still in flight at an
        epoch cutoff); returns how many were discarded."""
        n = len(self.pending)
        self.pending.clear()
        return n
