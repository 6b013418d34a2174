"""Routing strategies behind the simulator's one decision interface,
``Router.choose(packet, sat, now_ns) -> action``.

Routers are the shortest-path-first baseline (min-plus shortest paths over
propagation + transmission weights, deliberately queuing-oblivious) and a
uniform random walk. Learned routers hand a local feature vector to a policy:
any object with ``decide(features) -> int``. Policies here map the vector to
a categorical action over the four grid directions (sampled while training,
argmax in evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linkmodel, nn
from .netsim import Packet, Router, Simulator


@dataclass
class GraphSnapshot:
    """Directed graph at one instant as edge arrays; nodes are dense ints
    (satellites first, then ground stations), and edge ``i`` runs from
    ``src[i]`` to ``dst[i]`` with propagation + transmission weight
    ``weight[i]``."""

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray


def _link_weights(sim: Simulator, dists: np.ndarray, rate_fn, model: linkmodel.RateModel,
                  params, bits: int) -> np.ndarray:
    """Propagation delay plus the transmission delay of ``bits`` on each
    link; a fixed rate gives one delay for all, else one rate call per link."""
    if model.mode == "fixed":
        tx = bits / model.fixed_rate_bps
    else:
        tx = np.array([bits / rate_fn(model, params, float(d)) for d in dists])
    return dists / sim.light_speed + tx


def build_snapshot(sim: Simulator, ref_size_bits: int = 64_800) -> GraphSnapshot:
    """Snapshot of the live topology: all grid ISLs but self-loops (a
    one-plane grid links W and E to the satellite itself), plus an up and a
    down link for every station that currently has an access satellite.
    Edge weight is the propagation delay plus the transmission delay of a
    reference packet."""
    cfg = sim.cfg
    src = np.repeat(np.arange(sim.num_sats), 4)
    dst = sim.neighbors.reshape(-1)
    isl = src != dst
    w_isl = _link_weights(sim, sim.isl_dist.reshape(-1)[isl], linkmodel.isl_rate,
                          cfg.isl_rate_model, cfg.isl_params, ref_size_bits)
    up = [(g, acc) for g, acc in enumerate(sim.access) if acc is not None]
    gs, acc = np.array(up, dtype=np.int64).reshape(-1, 2).T
    w_gsl = _link_weights(sim, sim.gsl_dist[acc, gs], linkmodel.gsl_rate,
                          cfg.gsl_rate_model, cfg.gsl_params, ref_size_bits)
    gs_node = sim.num_sats + gs
    return GraphSnapshot(sim.num_sats + sim.num_gs, np.concatenate([src[isl], gs_node, acc]),
                         np.concatenate([dst[isl], acc, gs_node]),
                         np.concatenate([w_isl, w_gsl, w_gsl]))


UNREACHABLE = -1


def _check_weights(snapshot: GraphSnapshot) -> None:
    """A NaN weight never compares equal and a negative cycle never
    settles: reject either, naming the edge."""
    bad = np.flatnonzero(~(snapshot.weight >= 0))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"edge {i} ({snapshot.src[i]} -> {snapshot.dst[i]}) has "
                         f"weight {snapshot.weight[i]}; weights must be >= 0")


def spf_tables(snapshot: GraphSnapshot,
               destinations: list[int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Next-hop table and path cost toward each destination.

    One min-plus (Bellman-Ford) relaxation serves all destinations at once:
    each pass lowers every node's cost to the least ``weight + cost[dst]``
    over its out-edges, until no cost falls. A node's next hop is the
    out-neighbor attaining its cost, breaking exact ties by the smallest
    neighbor id. Destinations and unreachable nodes get next hop
    UNREACHABLE; unreachable nodes get infinite cost. Out-edges sit in a
    (max out-degree, node) table padded with edges to a phantom node of
    infinite cost, so a pass is one gather and one min over the table.

    Raises ValueError, naming the edge, when a weight is NaN or negative,
    and when the relaxation has not settled after ``num_nodes`` passes.
    """
    _check_weights(snapshot)
    n = snapshot.num_nodes
    order = np.argsort(snapshot.src)
    src = snapshot.src[order]
    slot = np.arange(len(src)) - np.searchsorted(src, src)  # rank among src's edges
    to = np.full((slot.max(initial=-1) + 1, n), n)
    to[slot, src] = snapshot.dst[order]
    w = np.full(to.shape, np.inf)
    w[slot, src] = snapshot.weight[order]
    dests = np.asarray(destinations, dtype=np.int64)
    rows = np.arange(len(dests))
    dist = np.full((len(dests), n + 1), np.inf)
    dist[rows, dests] = 0.0
    cost = dist[:, :n]                      # a view; the phantom stays infinite
    for _ in range(max(n, 1)):               # an empty graph settles in one pass
        via = w + np.take(dist, to, axis=1)
        best = via.min(axis=1, initial=np.inf)
        if not (best < cost).any():
            break                           # via is from the settled costs
        np.minimum(cost, best, out=cost)
    else:
        raise ValueError(f"relaxation has not settled after {n} passes")
    hop = np.where((via == cost[:, None, :]) & np.isfinite(via), to, n).min(axis=1, initial=n)
    nxt = np.where(hop < n, hop, UNREACHABLE)
    nxt[rows, dests] = UNREACHABLE
    return {int(d): (nxt[g], cost[g]) for g, d in enumerate(dests)}


class ActorPolicy:
    """Categorical policy over a learned actor network. Samples during
    training, takes the argmax during evaluation."""

    def __init__(self, params: dict, mode: str = "eval", seed: int = 0):
        if mode not in ("train", "eval"):
            raise ValueError("mode must be 'train' or 'eval'")
        self.params = params
        self.mode = mode
        self.rng = np.random.default_rng(seed)

    def decide(self, features: np.ndarray) -> int:
        logits = nn.mlp_forward_single(self.params, features)
        if self.mode != "train":
            return int(np.argmax(logits))
        z = logits - logits.max()
        e = np.exp(z)
        cum = np.cumsum(e)
        a = int(np.searchsorted(cum, self.rng.random() * cum[-1], side="right"))
        return min(a, len(logits) - 1)


class EpsilonGreedyPolicy:
    """Q-network policy with epsilon exploration (zero epsilon in eval).
    Every decision draws one uniform number, whatever epsilon is, so the
    random stream does not depend on the exploration schedule; the owner
    may change ``epsilon`` between decisions."""

    def __init__(self, params: dict, epsilon: float = 0.0, seed: int = 0):
        self.params = params
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)

    def decide(self, features: np.ndarray) -> int:
        if self.rng.random() < self.epsilon:
            return int(self.rng.integers(0, 4))
        return int(np.argmax(nn.mlp_forward_single(self.params, features)))


class RandomRouter(Router):
    """Simulator-facing random walk (no observation needed)."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def choose(self, packet: Packet, sat: int, now_ns: int) -> int:
        return int(self.rng.integers(0, 4))


class SpfRouter(Router):
    """Simulator-facing SPF baseline: shortest-path tables toward every
    station, recomputed on each topology refresh and kept as one grid
    direction per (station, satellite), -1 where the next hop is not one of
    the four ISLs."""

    def __init__(self, ref_size_bits: int = 64_800):
        self.ref_size_bits = ref_size_bits
        self.dirs: list[list[int]] = []

    def on_topology_refresh(self, sim: Simulator) -> None:
        stations = [sim.num_sats + g for g in range(sim.num_gs)]
        tables = spf_tables(build_snapshot(sim, self.ref_size_bits), stations)
        hops = np.array([tables[d][0][:sim.num_sats] for d in stations])
        match = sim.neighbors == hops.reshape(len(stations), sim.num_sats, 1)
        self.dirs = np.where(match.any(axis=2), match.argmax(axis=2), -1).tolist()

    def choose(self, packet: Packet, sat: int, now_ns: int) -> int:
        return self.dirs[packet.dst_gs][sat]
