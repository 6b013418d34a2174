import math

import numpy as np
import pytest

from leoroute.constellation import GroundStation, WalkerConfig, build_walker, gs_id
from leoroute.env import (
    OBS_DIM,
    Featurizer,
    ObsRouter,
    RewardConfig,
    TransitionCollector,
    delivered_bonus,
    dropped_penalty,
    hop_cost,
    hop_reward,
)
from leoroute import nn
from leoroute.learner import ReplayBuffer
from leoroute.netsim import NS_PER_S, SimConfig, Simulator, TrafficConfig
from leoroute.routing import EpsilonGreedyPolicy

CITIES = [
    GroundStation(gs_id(0), 49.6116, 6.1319, 10.0, "luxembourg"),
    GroundStation(gs_id(1), 25.2048, 55.2708, 10.0, "dubai"),
    GroundStation(gs_id(2), 39.9042, 116.4074, 10.0, "beijing"),
]

CFG = RewardConfig()


def uniform_policy(seed):
    """Uniform over the four grid directions: an epsilon-greedy policy that
    always explores."""
    arch = nn.Architecture(input_dim=OBS_DIM, hidden_dim=8, n_actions=4)
    return EpsilonGreedyPolicy(nn.init_mlp(arch, np.random.default_rng(0)),
                               epsilon=1.0, seed=seed)


def build_setup(rate=150.0, epoch=2.0, seed=0, ttl=24, collector=True):
    c = build_walker(WalkerConfig(12, 8, 600e3, 53.0, 1))
    traffic = TrafficConfig(rate, seed=seed)
    feat = Featurizer(c, len(CITIES), ttl, traffic.max_size_bits)
    buf = ReplayBuffer(100_000, OBS_DIM, seed=seed)
    router = TransitionCollector(feat, uniform_policy(seed), CFG, buf,
                                 validate_obs=True)
    sim = Simulator(c, CITIES, SimConfig(ttl_hops=ttl), traffic, router,
                    epoch_s=epoch)
    return sim, router, buf, feat


# -- reward / cost functions -------------------------------------------------

def test_hop_cost_zero_queue():
    assert hop_cost(0.0, CFG) == 0.0


def test_hop_cost_100ms_is_unit():
    assert hop_cost(0.1, CFG) == 1.0


def test_hop_cost_derived_case():
    assert hop_cost(2.592e-3, CFG) == pytest.approx(0.02592, rel=1e-12)


def test_hop_reward_zero_everything():
    assert hop_reward(0.0, 0.0, 0.0, 0.0, CFG) == 0.0


def test_hop_reward_delay_sign_default_penalizes():
    r = hop_reward(0.05, 0.0, 0.0, 0.0, CFG)
    assert r == pytest.approx(-0.5)
    plus = RewardConfig(delay_sign=1.0)
    assert hop_reward(0.05, 0.0, 0.0, 0.0, plus) == pytest.approx(0.5)


def test_delivered_bonus_in_mbits():
    assert delivered_bonus(64_800, CFG) == pytest.approx(1.0648)
    assert delivered_bonus(16_200, CFG) == pytest.approx(1.0162)


def test_dropped_penalty_scales_with_remaining_ttl():
    p = dropped_penalty(10, 0.3, CFG)
    assert p == pytest.approx(-5 * 10 / 0.1 - 0.3)


# -- featurizer ---------------------------------------------------------------

def test_observation_shape_and_ranges():
    sim, router, _, feat = build_setup(rate=0.0)
    from leoroute.netsim import Packet
    pkt = Packet(id=0, src_gs=0, dst_gs=1, size_bits=64_800, created_ns=0, ttl=24)
    obs = feat.observe(pkt, sat=13)
    assert obs.shape == (OBS_DIM,)
    assert np.all(np.isfinite(obs))
    assert -1.0 <= obs[0] <= 1.0 and -1.0 <= obs[1] <= 1.0
    assert 0.0 <= obs[2] <= 1.0
    assert np.all(np.abs(obs[3:7]) <= 1.0)
    assert np.all(obs[7:11] == 0.0)    # empty queues
    assert obs[11] == 1.0              # fresh ttl
    assert obs[12] == 1.0              # largest size class
    assert np.all(obs[13:17] == 1.0)   # full grid


def test_observation_gcd_zero_at_access_satellite():
    sim, router, _, feat = build_setup(rate=0.0)
    from leoroute.netsim import Packet
    g = 2
    acc = sim.access[g]
    pkt = Packet(id=0, src_gs=0, dst_gs=g, size_bits=16_200, created_ns=0, ttl=24)
    obs = feat.observe(pkt, sat=acc)
    # over the destination's access satellite the remaining distance is small
    assert obs[2] < 0.02


def test_observation_queue_occupancy_reflected():
    sim, router, _, feat = build_setup(rate=0.0)
    from leoroute.netsim import Packet
    q = sim._isl_queue(5, 0)
    pkt = Packet(id=1, src_gs=0, dst_gs=1, size_bits=64_800, created_ns=0, ttl=24)
    sim._try_enqueue(q, pkt, 0)
    obs = feat.observe(pkt, sat=5)
    assert obs[7] == pytest.approx(64_800 / sim.cfg.link_buffer_bits)


# -- transitions -----------------------------------------------------------------

def test_transitions_match_decisions_no_leaks():
    sim, router, buf, _ = build_setup(rate=200.0, epoch=2.0, seed=1)
    sim.run()
    assert router.decisions == sim.decisions
    assert router.transitions + len(router.pending) == router.decisions
    assert len(buf) == router.transitions
    assert router.transitions > 0


def test_cost_identity_sums_to_total_queuing():
    """Sum of per-transition costs times the normalizer equals the packet's
    cumulative queuing delay, exactly in integer nanoseconds."""
    sim, router, buf, _ = build_setup(rate=250.0, epoch=2.0, seed=2)
    per_packet_cost: dict[int, float] = {}
    done_packets = {}

    class Tap(TransitionCollector):
        def _emit(self, packet, p, next_features, now_ns, done, gcd_now, bonus):
            super()._emit(packet, p, next_features, now_ns, done, gcd_now, bonus)
            per_packet_cost[packet.id] = per_packet_cost.get(packet.id, 0.0) + \
                buf.c[(buf.head - 1) % buf.capacity][0]
            if done:
                done_packets[packet.id] = packet

    router.__class__ = Tap
    sim.run()
    assert done_packets
    for pid, pkt in done_packets.items():
        if pkt.status != "delivered":
            continue
        want = pkt.cum_queue_ns / NS_PER_S / CFG.delay_norm_s
        assert per_packet_cost[pid] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_terminal_transitions_have_zero_next_obs():
    sim, router, buf, _ = build_setup(rate=150.0, epoch=1.5, seed=3)
    sim.run()
    done_idx = np.nonzero(buf.done[:len(buf)])[0]
    assert len(done_idx) > 0
    assert np.all(buf.o2[done_idx] == 0.0)


def test_delivered_transition_reward_contains_bonus():
    sim, router, buf, _ = build_setup(rate=120.0, epoch=2.0, seed=4)
    rewards_done = []

    class Tap(TransitionCollector):
        def notify_terminal(self, packet, node, now_ns, delivered):
            had = packet.id in self.pending
            super().notify_terminal(packet, node, now_ns, delivered)
            if delivered and had:
                rewards_done.append(buf.r[(buf.head - 1) % buf.capacity])

    router.__class__ = Tap
    sim.run()
    assert rewards_done
    # delivered bonus dominates: rewards on delivery are near or above 1
    assert np.mean(np.array(rewards_done) > 0.5) > 0.9


def test_ttl_drop_penalty_cancels_progress():
    # at TTL expiry the remaining budget is zero, so the terminal penalty is
    # the refund of all collected progress; no delivery bonus ever appears
    sim, router, buf, _ = build_setup(rate=150.0, epoch=2.0, seed=5, ttl=4)
    drop_rewards = []

    class Tap(TransitionCollector):
        def notify_terminal(self, packet, node, now_ns, delivered):
            had = packet.id in self.pending
            super().notify_terminal(packet, node, now_ns, delivered)
            if not delivered and had:
                drop_rewards.append(buf.r[(buf.head - 1) % buf.capacity])

    router.__class__ = Tap
    sim.run()
    assert drop_rewards
    assert np.mean(drop_rewards) < 0.0
    assert np.max(drop_rewards) < 1.0


def test_buffer_drop_penalty_scales_with_remaining_ttl():
    # one-packet link buffers force buffer-full drops while TTL is high;
    # the penalty -5 * ttl_remaining / 0.1 dominates everything else
    c = build_walker(WalkerConfig(12, 8, 600e3, 53.0, 1))
    traffic = TrafficConfig(400.0, seed=13)
    feat = Featurizer(c, len(CITIES), 24, traffic.max_size_bits)
    buf = ReplayBuffer(100_000, OBS_DIM, seed=0)
    drop_rewards = []

    class Tap(TransitionCollector):
        def notify_terminal(self, packet, node, now_ns, delivered):
            had = packet.id in self.pending
            super().notify_terminal(packet, node, now_ns, delivered)
            if not delivered and had and packet.drop_cause == "buffer_full":
                drop_rewards.append(buf.r[(buf.head - 1) % buf.capacity])

    router = Tap(feat, uniform_policy(0), CFG, buf)
    sim = Simulator(c, CITIES, SimConfig(ttl_hops=24, link_buffer_bits=64_800),
                    traffic, router, epoch_s=2.0)
    sim.run()
    assert drop_rewards
    assert np.all(np.array(drop_rewards) < -40.0)


def test_observations_finite_over_full_epoch():
    sim, router, buf, _ = build_setup(rate=200.0, epoch=2.0, seed=6)
    sim.run()   # validate_obs=True raises on any non-finite feature
    n = len(buf)
    assert np.all(np.isfinite(buf.o[:n])) and np.all(np.isfinite(buf.o2[:n]))
    assert np.all(np.isfinite(buf.r[:n])) and np.all(np.isfinite(buf.c[:n]))


def test_sojourn_positive_for_real_hops():
    sim, router, buf, _ = build_setup(rate=150.0, epoch=1.5, seed=7)
    sim.run()
    n = len(buf)
    nonterminal = buf.done[:n] == 0.0
    assert np.all(buf.tau[:n][nonterminal] > 0.0)


def test_obs_router_eval_mode_runs():
    c = build_walker(WalkerConfig(12, 8, 600e3, 53.0, 1))
    traffic = TrafficConfig(100.0, seed=8)
    feat = Featurizer(c, len(CITIES), 24, traffic.max_size_bits)
    router = ObsRouter(feat, uniform_policy(0))
    sim = Simulator(c, CITIES, SimConfig(ttl_hops=24), traffic, router, epoch_s=1.0)
    sim.run()
    assert sim.generated > 0 and sim.decisions > 0


def test_reset_pending_between_epochs():
    sim, router, buf, _ = build_setup(rate=200.0, epoch=1.0, seed=9)
    sim.run()
    n = len(router.pending)
    assert router.reset_pending() == n
    assert not router.pending and not router._settled_queue_ns
