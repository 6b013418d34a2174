import numpy as np
import pytest

from leoroute import nn
from leoroute.constellation import GroundStation, WalkerConfig, build_walker, gs_id
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

CITIES = [
    GroundStation(gs_id(0), 49.6116, 6.1319, 10.0, "luxembourg"),
    GroundStation(gs_id(1), 25.2048, 55.2708, 10.0, "dubai"),
    GroundStation(gs_id(2), 39.9042, 116.4074, 10.0, "beijing"),
]


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
    return GraphSnapshot(n, edges)


def test_spf_two_node_graph():
    snap = GraphSnapshot(2, [(0, 1, 3.0)])
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
        fw = floyd_warshall(n, snap.edges)
        dests = rng.choice(n, size=min(3, n), replace=False)
        tables = spf_tables(snap, [int(d) for d in dests])
        for d, (nxt, dist) in tables.items():
            assert np.array_equal(dist, fw[:, d])


def test_spf_unreachable_marked():
    snap = GraphSnapshot(3, [(0, 1, 1.0)])  # node 2 isolated
    nxt, dist = spf_tables(snap, [1])[1]
    assert nxt[2] == UNREACHABLE and np.isinf(dist[2])


def test_spf_equal_cost_ties_choose_lowest_id():
    # two parallel two-hop paths with identical cost: 0->1->3 and 0->2->3
    snap = GraphSnapshot(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
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
    adj = {(u, v): w for u, v, w in snap.edges}
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
    ups = [e for e in snap.edges if e[0] in gs_nodes]
    downs = [e for e in snap.edges if e[1] in gs_nodes]
    assert len(ups) == 3 and len(downs) == 3
    # every satellite contributes its grid ISLs
    isl = [e for e in snap.edges if e[0] < sim.num_sats and e[1] < sim.num_sats]
    assert len(isl) == sim.num_sats * 4
