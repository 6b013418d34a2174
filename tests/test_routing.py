import heapq
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from leoroute import linkmodel, nn, routing
from leoroute.constellation import GroundStation, WalkerConfig, build_walker, gs_id, propagate
from leoroute.netsim import SimConfig, Simulator, TrafficConfig
from leoroute.routing import (
    UNREACHABLE,
    ActorPolicy,
    EpsilonGreedyPolicy,
    GraphSnapshot,
    RandomRouter,
    SpfRouter,
    build_snapshot,
    spf_tables,
)
from leoroute.scenario import desk_scenario, paper_scale_scenario

CITIES = [
    GroundStation(gs_id(0), 49.6116, 6.1319, 10.0, "luxembourg"),
    GroundStation(gs_id(1), 25.2048, 55.2708, 10.0, "dubai"),
    GroundStation(gs_id(2), 39.9042, 116.4074, 10.0, "beijing"),
]


def snapshot(num_nodes, edges):
    """GraphSnapshot from a list of (src, dst, weight) edges."""
    e = np.array(edges, dtype=float).reshape(-1, 3)
    return GraphSnapshot(num_nodes, e[:, 0].astype(np.int64), e[:, 1].astype(np.int64),
                         e[:, 2])


def edges_of(snap):
    return list(zip(snap.src.tolist(), snap.dst.tolist(), snap.weight.tolist()))


def dijkstra_tables(snap, destinations):
    """Oracle for ``spf_tables``: one heapq Dijkstra per destination over
    reversed edges, then each node's next hop is the out-neighbor minimizing
    edge weight + remaining cost, exact ties going to the smallest id."""
    adj = [[] for _ in range(snap.num_nodes)]
    radj = [[] for _ in range(snap.num_nodes)]
    for u, v, w in edges_of(snap):
        adj[u].append((v, w))
        radj[v].append((u, w))
    out = {}
    for dest in destinations:
        dist = np.full(snap.num_nodes, np.inf)
        dist[dest] = 0.0
        heap = [(0.0, dest)]
        done = np.zeros(snap.num_nodes, dtype=bool)
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
        nxt = np.full(snap.num_nodes, UNREACHABLE, dtype=np.int64)
        for u in range(snap.num_nodes):
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


def assert_tables_match_oracle(snap, destinations):
    got = spf_tables(snap, destinations)
    want = dijkstra_tables(snap, destinations)
    assert got.keys() == want.keys()
    for d in want:
        assert np.array_equal(got[d][0], want[d][0]), f"next hops toward {d}"
        assert got[d][1].tobytes() == want[d][1].tobytes(), f"costs toward {d}"


def floyd_warshall(num_nodes, edges):
    dist = np.full((num_nodes, num_nodes), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in edges:
        dist[u, v] = min(dist[u, v], w)
    for k in range(num_nodes):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def random_graph(rng, n, p=0.15, integer_weights=True):
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                w = float(rng.integers(1, 1000)) if integer_weights else float(rng.uniform(0.1, 10))
                edges.append((u, v, w))
    return snapshot(n, edges)


def test_spf_two_node_graph():
    snap = snapshot(2, [(0, 1, 3.0)])
    tables = spf_tables(snap, [1])
    nxt, dist = tables[1]
    assert nxt[0] == 1 and dist[0] == 3.0
    assert nxt[1] == UNREACHABLE and dist[1] == 0.0


def test_spf_matches_floyd_warshall_exactly():
    # integer weights keep float sums exact, so equality is bitwise
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(5, 101))
        snap = random_graph(rng, n)
        fw = floyd_warshall(n, edges_of(snap))
        dests = rng.choice(n, size=min(3, n), replace=False)
        tables = spf_tables(snap, [int(d) for d in dests])
        for d, (nxt, dist) in tables.items():
            assert np.array_equal(dist, fw[:, d])


def test_spf_unreachable_marked():
    snap = snapshot(3, [(0, 1, 1.0)])  # node 2 isolated
    nxt, dist = spf_tables(snap, [1])[1]
    assert nxt[2] == UNREACHABLE and np.isinf(dist[2])


def test_spf_equal_cost_ties_choose_lowest_id():
    # two parallel two-hop paths with identical cost: 0->1->3 and 0->2->3
    snap = snapshot(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    nxt, _ = spf_tables(snap, [3])[3]
    assert nxt[0] == 1


def test_spf_next_hops_never_cycle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(10, 80))
        snap = random_graph(rng, n, p=0.2)
        dest = int(rng.integers(0, n))
        nxt, dist = spf_tables(snap, [dest])[dest]
        for start in range(n):
            if not np.isfinite(dist[start]):
                continue
            u, steps = start, 0
            while u != dest:
                u = int(nxt[u])
                steps += 1
                assert steps <= n, "next-hop table cycled"


def test_spf_path_cost_telescopes():
    rng = np.random.default_rng(2)
    snap = random_graph(rng, 40, p=0.25)
    adj = {(u, v): w for u, v, w in edges_of(snap)}
    dest = 7
    nxt, dist = spf_tables(snap, [dest])[dest]
    for start in range(40):
        if not np.isfinite(dist[start]) or start == dest:
            continue
        u, total = start, 0.0
        while u != dest:
            v = int(nxt[u])
            total += adj[(u, v)]
            u = v
        assert total == dist[start]


def test_spf_matches_dijkstra_on_random_float_graphs():
    rng = np.random.default_rng(3)
    for _ in range(150):
        n = int(rng.integers(2, 60))
        snap = random_graph(rng, n, p=float(rng.uniform(0.05, 0.3)), integer_weights=False)
        assert_tables_match_oracle(snap, [int(d) for d in rng.choice(n, min(4, n), replace=False)])


def test_spf_matches_dijkstra_with_forced_exact_ties():
    # weights drawn from a few tenths make many equal-cost paths (and sums
    # such as 0.1 + 0.2 that differ from 0.3 only in the last bit); parallel
    # edges and zero weights are allowed too
    rng = np.random.default_rng(4)
    choices = np.array([0.0, 0.1, 0.2, 0.3, 0.7])
    for _ in range(150):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, 4 * n))
        edges = [(int(u), int(v), float(w)) for u, v, w in zip(
            rng.integers(0, n, m), rng.integers(0, n, m), rng.choice(choices, m))]
        snap = snapshot(n, edges)
        assert_tables_match_oracle(snap, list(range(n)))


@pytest.mark.parametrize("weight", [np.nan, -1.0, -np.inf])
def test_spf_rejects_nan_and_negative_weights(weight):
    snap = snapshot(3, [(0, 1, 1.0), (1, 2, weight), (2, 0, 1.0)])
    with pytest.raises(ValueError, match=r"edge 1 \(1 -> 2\)"):
        spf_tables(snap, [0])


def test_spf_settles_within_num_nodes_passes(monkeypatch):
    # a chain needs every one of its num_nodes passes: n - 1 that lower a
    # cost and one that finds nothing left to lower
    n = 30
    snap = snapshot(n, [(u + 1, u, 1.0) for u in range(n - 1)])
    nxt, dist = spf_tables(snap, [0])[0]
    assert dist[n - 1] == n - 1 and nxt[n - 1] == n - 2
    # a negative cycle never settles; with the weight check bypassed, the
    # pass bound stops the relaxation instead of looping forever
    cycle = snapshot(3, [(1, 0, 1.0), (1, 2, -3.0), (2, 1, 1.0)])
    monkeypatch.setattr(routing, "_check_weights", lambda snap: None)
    with pytest.raises(ValueError, match="not settled after 3 passes"):
        spf_tables(cycle, [0])


def test_spf_empty_graph_has_no_tables():
    # zero nodes and no destinations: one pass finds nothing to lower
    assert spf_tables(snapshot(0, []), []) == {}


def test_decide_random_policy_uniform():
    # the random walk, and an epsilon-greedy policy that always explores
    arch = nn.Architecture(input_dim=4, hidden_dim=8, n_actions=4)
    params = nn.init_mlp(arch, np.random.default_rng(0))
    walk = RandomRouter(seed=0)
    explore = EpsilonGreedyPolicy(params, epsilon=1.0, seed=0)
    features = np.zeros(4)
    n = 100_000
    for choose in (lambda: walk.choose(None, 0, 0), lambda: explore.decide(features)):
        counts = np.zeros(4)
        for _ in range(n):
            counts[choose()] += 1
        assert np.all(np.abs(counts / n - 0.25) < 0.01)


def test_decide_actor_policy_eval_is_argmax():
    arch = nn.Architecture(input_dim=6, hidden_dim=8, n_actions=4)
    params = nn.init_mlp(arch, np.random.default_rng(0))
    policy = ActorPolicy(params, mode="eval")
    features = np.random.default_rng(1).normal(size=6)
    logits = nn.mlp_forward_single(params, features)
    for _ in range(5):
        assert policy.decide(features) == int(np.argmax(logits))


def test_decide_actor_policy_train_samples_all_actions():
    arch = nn.Architecture(input_dim=6, hidden_dim=8, n_actions=4)
    params = {k: np.zeros_like(v) for k, v in nn.init_mlp(arch, np.random.default_rng(0)).items()}
    policy = ActorPolicy(params, mode="train", seed=3)
    seen = {policy.decide(np.zeros(6)) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def make_sim(router, rate=150.0, epoch=2.0, seed=0):
    c = build_walker(WalkerConfig(12, 8, 600e3, 53.0, 1))
    return Simulator(c, CITIES, SimConfig(), TrafficConfig(rate, seed=seed),
                     router, epoch_s=epoch)


def test_spf_router_delivers_under_light_load():
    sim = make_sim(SpfRouter(), rate=100.0, epoch=2.0, seed=6)
    sim.run()
    assert sim.generated > 0
    assert sim.delivered / sim.generated > 0.8
    assert sim.drop_by_cause["ttl_expired"] == 0


def test_spf_router_beats_random_walk():
    spf = make_sim(SpfRouter(), rate=100.0, epoch=2.0, seed=6)
    rnd = make_sim(RandomRouter(0), rate=100.0, epoch=2.0, seed=6)
    spf.run()
    rnd.run()
    assert spf.delivered > rnd.delivered


def test_snapshot_from_live_sim_has_gsl_edges():
    sim = make_sim(RandomRouter(0), rate=0.0)
    snap = build_snapshot(sim)
    gs_nodes = {sim.num_sats + g for g in range(sim.num_gs)}
    ups = [e for e in edges_of(snap) if e[0] in gs_nodes]
    downs = [e for e in edges_of(snap) if e[1] in gs_nodes]
    assert len(ups) == 3 and len(downs) == 3
    # every satellite contributes its grid ISLs
    isl = [e for e in edges_of(snap) if e[0] < sim.num_sats and e[1] < sim.num_sats]
    assert len(isl) == sim.num_sats * 4


# -- live grids: build_snapshot and SpfRouter against the per-edge loops -------

def loop_snapshot_edges(sim, ref_size_bits=64_800):
    """Oracle for ``build_snapshot``: one rate call per link, self-loops
    skipped, an up and a down link per station with access."""
    cfg = sim.cfg
    edges = []
    for i in range(sim.num_sats):
        for k in range(4):
            j = int(sim.neighbors[i, k])
            if i == j:
                continue
            d = float(sim.isl_dist[i, k])
            rate = linkmodel.isl_rate(cfg.isl_rate_model, cfg.isl_params, d)
            edges.append((i, j, d / sim.light_speed + ref_size_bits / rate))
    for g in range(sim.num_gs):
        acc = sim.access[g]
        if acc is None:
            continue
        d = float(sim.gsl_dist[acc, g])
        rate = linkmodel.gsl_rate(cfg.gsl_rate_model, cfg.gsl_params, d)
        w = d / sim.light_speed + ref_size_bits / rate
        edges.append((sim.num_sats + g, acc, w))
        edges.append((acc, sim.num_sats + g, w))
    return edges


def linear_scan(nxt, neighbors, sat):
    """Oracle for ``SpfRouter.choose``: the first grid direction whose
    neighbor is the next hop, -1 when there is none."""
    hop = int(nxt[sat])
    if hop == UNREACHABLE:
        return -1
    for k in range(4):
        if int(neighbors[sat, k]) == hop:
            return k
    return -1


def stations_under(walker, sats):
    """Stations at the sub-satellite points of ``sats`` at t = 0."""
    pos = propagate(build_walker(walker), 0.0)
    out = []
    for i, s in enumerate(sats):
        x, y, z = pos[s]
        lat = np.degrees(np.arcsin(z / np.linalg.norm(pos[s])))
        out.append(GroundStation(gs_id(i), round(float(lat), 3),
                                 round(float(np.degrees(np.arctan2(y, x))), 3), 10.0))
    return out


def _desk(**sim_overrides):
    sc = desk_scenario()
    return sc.walker, sc.stations, replace(sc.sim, **sim_overrides)


def _paper():
    sc = paper_scale_scenario()
    return sc.walker, sc.stations, sc.sim


def _degenerate(planes, slots):
    walker = WalkerConfig(planes, slots, 600e3, 53.0, 0)
    return walker, stations_under(walker, [0, planes * slots // 2 + 1]), SimConfig()


GRIDS = {
    "desk-fixed": _desk,
    "desk-physical": lambda: _desk(isl_rate_model=linkmodel.RateModel("physical"),
                                   gsl_rate_model=linkmodel.RateModel("physical")),
    "paper": _paper,
    "one-plane": lambda: _degenerate(1, 12),     # W and E are the satellite itself
    "two-planes": lambda: _degenerate(2, 8),     # W and E are the same satellite
    "two-slots": lambda: _degenerate(8, 2),      # N and S are the same satellite
}


def at_refreshes(grid, check, instants=10, spacing_s=60.0):
    """Run a zero-traffic SPF simulation of ``grid`` whose topology
    refreshes every ``spacing_s`` and call ``check(sim, router)`` at each of
    its ``instants`` refreshes. Returns the access tuples seen."""
    walker, stations, sim_cfg = GRIDS[grid]()
    seen = []

    class Probe(SpfRouter):
        def on_topology_refresh(self, sim):
            super().on_topology_refresh(sim)
            check(sim, self)
            seen.append(tuple(sim.access))

    sim = Simulator(build_walker(walker), stations,
                    replace(sim_cfg, refresh_interval_s=spacing_s), TrafficConfig(0.0),
                    Probe(), epoch_s=spacing_s * (instants - 1))
    sim.run()
    assert len(seen) == instants
    assert any(a is not None for access in seen for a in access)
    return seen


@pytest.mark.parametrize("grid", ["desk-fixed", "desk-physical", "paper"])
def test_spf_tables_match_dijkstra_on_live_grids(grid):
    def check(sim, router):
        snap = build_snapshot(sim)
        assert sorted(edges_of(snap)) == sorted(loop_snapshot_edges(sim))
        assert_tables_match_oracle(snap, [sim.num_sats + g for g in range(sim.num_gs)])

    assert len(set(at_refreshes(grid, check))) > 1      # access handovers covered


@pytest.mark.parametrize("grid,self_loops", [("one-plane", 2), ("two-planes", 0),
                                             ("two-slots", 0)])
def test_build_snapshot_drops_self_loops(grid, self_loops):
    def check(sim, router):
        snap = build_snapshot(sim)
        sats = np.arange(sim.num_sats)
        assert np.all((sim.neighbors == sats[:, None]).sum(axis=1) == self_loops)
        assert not np.any(snap.src == snap.dst)
        isl = (snap.src < sim.num_sats) & (snap.dst < sim.num_sats)
        assert isl.sum() == sim.num_sats * (4 - self_loops)
        assert sorted(edges_of(snap)) == sorted(loop_snapshot_edges(sim))

    at_refreshes(grid, check)


@pytest.mark.parametrize("grid", ["desk-fixed", "paper", "one-plane", "two-planes",
                                  "two-slots"])
def test_spf_router_directions_match_linear_scan(grid):
    def check(sim, router):
        stations = [sim.num_sats + g for g in range(sim.num_gs)]
        tables = spf_tables(build_snapshot(sim), stations)
        for g in range(sim.num_gs):
            packet = SimpleNamespace(dst_gs=g)
            nxt = tables[sim.num_sats + g][0]
            for sat in range(sim.num_sats):
                assert router.choose(packet, sat, 0) == linear_scan(nxt, sim.neighbors, sat)

    at_refreshes(grid, check)
