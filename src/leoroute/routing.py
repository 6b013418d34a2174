"""Routing strategies behind the simulator's one decision interface,
``Router.choose(packet, sat, now_ns) -> action``.

Routers are the shortest-path-first baseline (Dijkstra over propagation +
transmission weights, deliberately queuing-oblivious) and a uniform random
walk. Learned routers hand a local feature vector to a policy: any object
with ``decide(features) -> int``. Policies here map the vector to a
categorical action over the four grid directions (sampled while training,
argmax in evaluation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linkmodel, nn
from .netsim import Packet, Router, Simulator


@dataclass
class GraphSnapshot:
    """Directed graph at one instant; nodes are dense ints (satellites first,
    then ground stations), edges carry propagation + transmission weights."""

    num_nodes: int
    edges: list[tuple[int, int, float]]

    def adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.num_nodes)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
        return adj

    def reverse_adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.num_nodes)]
        for u, v, w in self.edges:
            adj[v].append((u, w))
        return adj


def build_snapshot(sim: Simulator, ref_size_bits: int = 64_800) -> GraphSnapshot:
    """Snapshot of the live topology: all grid ISLs plus up/down links for
    every station that currently has an access satellite. Edge weight is the
    propagation delay plus the transmission delay of a reference packet."""
    cfg = sim.cfg
    edges: list[tuple[int, int, float]] = []
    for i in range(sim.num_sats):
        for k in range(4):
            j = int(sim.neighbors[i, k])
            if i == j:
                continue
            d = float(sim.isl_dist[i, k])
            rate = linkmodel.isl_rate(cfg.isl_rate_model, cfg.isl_params, d)
            w = d / sim.light_speed + ref_size_bits / rate
            edges.append((i, j, w))
    for g in range(sim.num_gs):
        acc = sim.access[g]
        if acc is None:
            continue
        d = float(sim.gsl_dist[acc, g])
        rate = linkmodel.gsl_rate(cfg.gsl_rate_model, cfg.gsl_params, d)
        w = d / sim.light_speed + ref_size_bits / rate
        gs_node = sim.num_sats + g
        edges.append((gs_node, acc, w))
        edges.append((acc, gs_node, w))
    return GraphSnapshot(sim.num_sats + sim.num_gs, edges)


UNREACHABLE = -1


def spf_tables(snapshot: GraphSnapshot,
               destinations: list[int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Next-hop table and path cost toward each destination.

    Runs Dijkstra from the destination over reversed edges, then picks each
    node's next hop as the out-neighbor minimizing edge weight + remaining
    cost, breaking exact ties by the smallest neighbor id. Unreachable nodes
    get next hop UNREACHABLE and infinite cost.
    """
    radj = snapshot.reverse_adjacency()
    adj = snapshot.adjacency()
    out = {}
    for dest in destinations:
        dist = np.full(snapshot.num_nodes, np.inf)
        dist[dest] = 0.0
        heap = [(0.0, dest)]
        done = np.zeros(snapshot.num_nodes, dtype=bool)
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w in radj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        nxt = np.full(snapshot.num_nodes, UNREACHABLE, dtype=np.int64)
        for u in range(snapshot.num_nodes):
            if u == dest or not np.isfinite(dist[u]):
                continue
            best = None
            for v, w in adj[u]:
                if not np.isfinite(dist[v]):
                    continue
                cost = w + dist[v]
                if best is None or cost < best[0] or (cost == best[0] and v < best[1]):
                    best = (cost, v)
            if best is not None:
                nxt[u] = best[1]
        out[dest] = (nxt, dist)
    return out


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
    """Simulator-facing SPF baseline: next hop from shortest-path tables
    toward every station, recomputed on each topology refresh."""

    def __init__(self, ref_size_bits: int = 64_800):
        self.ref_size_bits = ref_size_bits
        self.tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.neighbors: Optional[np.ndarray] = None
        self.num_sats = 0

    def on_topology_refresh(self, sim: Simulator) -> None:
        snap = build_snapshot(sim, self.ref_size_bits)
        self.tables = spf_tables(snap, [sim.num_sats + g for g in range(sim.num_gs)])
        self.neighbors = sim.neighbors
        self.num_sats = sim.num_sats

    def choose(self, packet: Packet, sat: int, now_ns: int) -> int:
        nxt, _ = self.tables[self.num_sats + packet.dst_gs]
        hop = int(nxt[sat])
        if hop == UNREACHABLE:
            return -1
        nbrs = self.neighbors[sat]
        for k in range(4):
            if int(nbrs[k]) == hop:
                return k
        return -1                   # next hop is not one of the four ISLs
