from dataclasses import replace

import numpy as np
import pytest

import leoroute.netsim as ns
from leoroute import linkmodel
from leoroute.constellation import (
    GroundStation,
    WalkerConfig,
    access_satellite,
    build_walker,
    gs_id,
    sat_id,
)
from leoroute.errors import ConfigurationError, SimulationError
from leoroute.netsim import (
    DROP_NO_ROUTE,
    EventQueue,
    Packet,
    Router,
    SimConfig,
    Simulator,
    TrafficConfig,
    generate_traffic,
    to_ns,
    to_s,
)
from leoroute.routing import RandomRouter
from leoroute.scenario import desk_scenario, paper_scale_scenario

CITIES = [
    GroundStation(gs_id(0), 49.6116, 6.1319, 10.0, "luxembourg"),
    GroundStation(gs_id(1), 25.2048, 55.2708, 10.0, "dubai"),
    GroundStation(gs_id(2), 39.9042, 116.4074, 10.0, "beijing"),
]


def make_sim(rate=200.0, epoch=2.0, seed=0, planes=12, per_plane=8, **kw):
    c = build_walker(WalkerConfig(planes, per_plane, 600e3, 53.0, 1))
    return Simulator(c, CITIES, kw.pop("sim_cfg", SimConfig()),
                     TrafficConfig(rate, seed=seed), kw.pop("router", RandomRouter(seed)),
                     epoch_s=epoch, **kw)


# -- event queue -------------------------------------------------------------

def test_event_queue_orders_by_time():
    q = EventQueue()
    q.schedule(300, ns.TRAFFIC_TICK)
    q.schedule(100, ns.TRAFFIC_TICK)
    q.schedule(200, ns.TRAFFIC_TICK)
    assert [q.pop()[0] for _ in range(3)] == [100, 200, 300]


def test_event_queue_equal_times_insertion_order():
    q = EventQueue()
    a = q.schedule(50, ns.TRAFFIC_TICK, "a")
    b = q.schedule(50, ns.TRAFFIC_TICK, "b")
    assert q.pop() is a and q.pop() is b


def test_event_queue_schedule_at_current_time():
    q = EventQueue()
    q.schedule(10, ns.TRAFFIC_TICK)
    q.pop()
    now = q.schedule(10, ns.METRICS_TICK)
    later = q.schedule(11, ns.METRICS_TICK)
    assert q.pop() is now and q.pop() is later


def test_event_queue_rejects_past():
    q = EventQueue()
    q.schedule(10, ns.TRAFFIC_TICK)
    q.pop()
    with pytest.raises(SimulationError):
        q.schedule(9, ns.TRAFFIC_TICK)


def test_event_queue_sorting_oracle_100k():
    rng = np.random.default_rng(0)
    times = rng.integers(0, 10_000_000, size=100_000)
    q = EventQueue()
    for t in times:
        q.schedule(int(t), ns.TRAFFIC_TICK)
    popped = [q.pop() for _ in range(len(times))]
    keys = [(time_ns, seq) for time_ns, seq, _, _ in popped]
    assert keys == sorted(keys)
    assert sorted(ev[0] for ev in popped) == sorted(times.tolist())


# -- geometry ------------------------------------------------------------------

@pytest.mark.parametrize("preset,epoch", [(desk_scenario, 120.0),
                                          (paper_scale_scenario, 30.0)])
def test_refresh_access_matches_access_satellite(preset, epoch):
    """At every topology refresh, the simulator's access satellites are the
    ones ``access_satellite`` picks from the same satellite positions."""
    sc = preset()
    c = build_walker(sc.walker)
    seen = []

    class Check(RandomRouter):
        def on_topology_refresh(self, sim):
            t = ns.to_s(sim.now_ns)
            want = [access_satellite(gs, c, t, positions=sim.positions)
                    for gs in sim.stations]
            assert want == [None if a is None else sat_id(a) for a in sim.access]
            seen.append(tuple(sim.access))

    sim = Simulator(c, sc.stations, sc.sim, TrafficConfig(0.0), Check(),
                    epoch_s=epoch)
    sim.run()
    assert len(seen) == round(epoch / sc.sim.refresh_interval_s) + 1
    assert len(set(seen)) > 1          # the run covers access handovers


# -- traffic -------------------------------------------------------------------

def test_traffic_zero_rate_empty():
    assert generate_traffic(TrafficConfig(0.0), 10.0, 3) == []


def test_traffic_poisson_count():
    # 10k pkts/s for 30 s: within 3 sigma of 300k
    stream = generate_traffic(TrafficConfig(10_000.0, seed=1), 30.0, 3)
    assert abs(len(stream) - 300_000) <= 3 * np.sqrt(300_000)


def test_traffic_size_mix_fraction():
    stream = generate_traffic(TrafficConfig(10_000.0, seed=2), 10.0, 3)
    frac = np.mean([s.size_bits == 64_800 for s in stream])
    assert abs(frac - 0.8) < 0.01


def test_traffic_pairs_distinct_and_uniform():
    stream = generate_traffic(TrafficConfig(5_000.0, seed=3), 10.0, 3)
    assert all(s.src_gs != s.dst_gs for s in stream)
    counts = np.zeros((3, 3))
    for s in stream:
        counts[s.src_gs, s.dst_gs] += 1
    off = counts[~np.eye(3, dtype=bool)]
    assert off.min() > 0.9 * off.mean()


def test_traffic_reproducible():
    a = generate_traffic(TrafficConfig(1000.0, seed=7), 5.0, 3)
    b = generate_traffic(TrafficConfig(1000.0, seed=7), 5.0, 3)
    assert a == b


def test_traffic_single_station_rejected():
    with pytest.raises(ConfigurationError):
        generate_traffic(TrafficConfig(10.0), 1.0, 1)


# -- queue admission -------------------------------------------------------------

def _manual_packet(pid, size=64_800):
    return Packet(id=pid, src_gs=0, dst_gs=1, size_bits=size, created_ns=0, ttl=64)


def test_enqueue_empty_buffer_zero_wait():
    sim = make_sim(rate=0.0)
    q = sim._isl_queue(0, 0)
    assert sim._try_enqueue(q, _manual_packet(0), 0)
    assert q.in_service is not None
    assert q.in_service.predicted_queue_ns == 0


def test_enqueue_capacity_246_packets():
    # floor(16e6 / 64800) = 246 packets fit, the 247th is refused
    sim = make_sim(rate=0.0)
    q = sim._isl_queue(0, 0)
    results = [sim._try_enqueue(q, _manual_packet(i), 0) for i in range(247)]
    assert all(results[:246]) and not results[246]
    assert q.queued_bits == 246 * 64_800 <= q.capacity_bits


def test_node_aggregate_cap_shared_across_links():
    sim = make_sim(rate=0.0)
    qa = sim._isl_queue(0, 0)
    qb = sim._isl_queue(0, 1)
    for i in range(123):
        assert sim._try_enqueue(qa, _manual_packet(i), 0)
    for i in range(123):
        assert sim._try_enqueue(qb, _manual_packet(1000 + i), 0)
    # node total is 246 packets; one more does not fit on either link
    assert not sim._try_enqueue(qa, _manual_packet(5000), 0)
    assert not sim._try_enqueue(qb, _manual_packet(5001), 0)


def test_tx_complete_schedules_arrival_with_exact_delays():
    sim = make_sim(rate=0.0)
    q = sim._isl_queue(0, 0)
    dist = float(sim.isl_dist[0, 0])
    sim._try_enqueue(q, _manual_packet(0), 0)
    # service starts immediately: tx completes at L/R, arrival adds d/c
    time_ns, _, kind, _ = sim.events.pop()
    assert kind == ns.TX_COMPLETE
    expect_tx = to_ns(64_800 / 50e6)
    assert time_ns == expect_tx == 1_296_000  # 1.296 ms at 50 Mbps
    sim._handle_tx_complete(q, time_ns)
    time_ns, _, kind, _ = sim.events.pop()
    assert kind == ns.PACKET_ARRIVAL
    assert time_ns == expect_tx + to_ns(dist / sim.light_speed)


def test_fifo_service_order():
    sim = make_sim(rate=0.0)
    q = sim._isl_queue(0, 0)
    pkts = [_manual_packet(i) for i in range(3)]
    for p in pkts:
        sim._try_enqueue(q, p, 0)
    served = []
    for _ in range(3):
        time_ns = sim.events.pop()[0]
        served.append(q.in_service.packet.id)
        sim._handle_tx_complete(q, time_ns)
    assert served == [0, 1, 2]


def test_queue_wait_prediction_exact_under_fixed_rates():
    sim = make_sim(rate=0.0)
    q = sim._isl_queue(0, 0)
    for i in range(5):
        sim._try_enqueue(q, _manual_packet(i), 0)
    # second packet waits exactly one transmission, third two, ...
    preds = [e.predicted_queue_ns for e in list(q.waiting)]
    tx = to_ns(64_800 / 50e6)
    assert preds == [tx, 2 * tx, 3 * tx, 4 * tx]
    while len(sim.events):
        time_ns, _, kind, _ = sim.events.pop()
        if kind == ns.TX_COMPLETE:
            sim._handle_tx_complete(q, time_ns)
    assert sim.dq_prediction_mismatches == 0


# -- link resolution across topology refreshes ------------------------------------

PHYSICAL = linkmodel.RateModel("physical")


class _NoRoute(Router):
    def choose(self, packet, sat, now_ns):
        return -1


def test_isl_wait_across_refresh_uses_new_geometry():
    """Five packets queue on a cross-plane ISL just before a refresh that
    falls inside the second transmission. The three that start service
    after it are sent at the rate and over the length of the new geometry;
    their waits were predicted from the old rate, so the two whose wait
    includes a new-rate transmission count as mismatches."""
    cfg = SimConfig(refresh_interval_s=10.0, isl_rate_model=PHYSICAL)
    sim = make_sim(rate=0.0, epoch=20.0, sim_cfg=cfg, router=_NoRoute())
    sat, west, bits = 0, 2, 3_000_000

    def link_ns():
        d = float(sim.isl_dist[sat, west])
        rate = linkmodel.isl_rate(cfg.isl_rate_model, cfg.isl_params, d)
        return to_ns(bits / rate), to_ns(d / sim.light_speed)

    tx_old, prop_old = link_ns()
    refresh_ns = to_ns(cfg.refresh_interval_s)
    t0 = refresh_ns - tx_old * 3 // 2
    sim.run(until_s=to_s(t0))
    assert sim.now_ns == t0
    q = sim._isl_queue(sat, west)
    pkts = [_manual_packet(i, size=bits) for i in range(5)]
    assert all(sim._try_enqueue(q, p, t0) for p in pkts)
    assert [e.est_tx_ns for e in q.waiting] == [tx_old] * 4

    sim.run(until_s=15.0)
    tx_new, prop_new = link_ns()
    assert tx_new != tx_old and prop_new != prop_old
    assert [p.drop_cause for p in pkts] == [DROP_NO_ROUTE] * 5    # one hop each
    assert [(p.cum_tx_ns, p.cum_prop_ns) for p in pkts] == (
        [(tx_old, prop_old)] * 2 + [(tx_new, prop_new)] * 3)
    assert [p.cum_queue_ns for p in pkts] == [
        0, tx_old, 2 * tx_old, 2 * tx_old + tx_new, 2 * tx_old + 2 * tx_new]
    assert sim.dq_prediction_mismatches == 2


def test_uplink_stall_resumes_on_new_access_satellite():
    """At a 30-degree minimum elevation Luxembourg's access goes satellite
    73 -> none -> satellite 80 on 25 s refreshes. An uplink used under 73
    stalls while the station has no access, once at enqueue and once per
    refresh that finds none, and resumes on 80 at the refresh that finds
    it, with that link's rate and length."""
    stations = [replace(CITIES[0], min_elevation_deg=30.0), CITIES[1]]
    cfg = SimConfig(refresh_interval_s=25.0, gsl_rate_model=PHYSICAL,
                    isl_rate_model=PHYSICAL)
    sim = Simulator(build_walker(WalkerConfig(12, 8, 600e3, 53.0, 1)), stations,
                    cfg, TrafficConfig(0.0), _NoRoute(), epoch_s=600.0)
    q = sim.up_queues[0]
    sim.run(until_s=150.0)
    assert sim.access[0] == 73
    assert sim._try_enqueue(q, _manual_packet(0), sim.now_ns)
    assert q.service_meta[2] == 73
    sim.run(until_s=375.0)
    assert sim.access[0] is None and q.in_service is None
    assert sim._try_enqueue(q, _manual_packet(1), sim.now_ns)
    assert sim.uplink_stalls == 1 and q.in_service is None
    sim.run(until_s=475.0)                   # 400, 425, 450, 475: still none
    assert sim.access[0] is None
    assert sim.uplink_stalls == 5 and q.in_service is None
    sim.run(until_s=500.0)
    assert sim.access[0] == 80 and q.in_service is not None
    d = float(sim.gsl_dist[80, 0])
    rate = linkmodel.gsl_rate(cfg.gsl_rate_model, cfg.gsl_params, d)
    assert q.service_meta == (to_ns(64_800 / rate), to_ns(d / sim.light_speed),
                              80, to_ns(125.0))
    assert sim.uplink_stalls == 5 and sim.dq_prediction_mismatches == 0


# -- epoch runs ---------------------------------------------------------------

def test_run_zero_traffic():
    sim = make_sim(rate=0.0, epoch=1.0)
    sim.run()
    assert sim.generated == sim.delivered == sim.dropped == 0


def test_run_conservation_and_delay_identity():
    sim = make_sim(rate=300.0, epoch=2.0, seed=11, check_invariants=True)
    sim.run()
    assert sim.generated > 0
    assert sim.generated == sim.delivered + sim.dropped + sim.in_flight
    assert sim.paused == 0 and sim.uplink_stalls == 0
    assert sim.dq_prediction_mismatches == 0
    # E2E delay decomposes exactly into per-hop components
    for rec in sim.delivered_records:
        _, created, e2e, q_ns, p_ns, t_ns, _, _ = rec
        assert e2e == q_ns + p_ns + t_ns


def test_run_ttl_expiry_under_random_walk():
    cfg = SimConfig(ttl_hops=4)
    sim = make_sim(rate=100.0, epoch=2.0, seed=5, sim_cfg=cfg)
    sim.run()
    assert sim.drop_by_cause["ttl_expired"] > 0
    # ttl + hop_count stayed glued together
    for pid, cause, _, _, hops in sim.dropped_records:
        if cause == "ttl_expired":
            assert hops == cfg.ttl_hops


def test_run_identical_seeds_identical_traces():
    d1 = make_sim(rate=150.0, epoch=1.5, seed=9, trace=True)
    d2 = make_sim(rate=150.0, epoch=1.5, seed=9, trace=True)
    d1.run()
    d2.run()
    assert d1.trace_digest() == d2.trace_digest()
    assert d1.delivered == d2.delivered and d1.dropped == d2.dropped


def test_run_different_seeds_different_traces():
    d1 = make_sim(rate=150.0, epoch=1.5, seed=9, trace=True)
    d2 = make_sim(rate=150.0, epoch=1.5, seed=10, trace=True)
    d1.run()
    d2.run()
    assert d1.trace_digest() != d2.trace_digest()


def test_metrics_interval_rows():
    sim = make_sim(rate=100.0, epoch=2.0, seed=3, metrics_interval_s=0.5)
    sim.run()
    assert len(sim.interval_rows) == 4
    assert all(r["generated"] >= 0 for r in sim.interval_rows)


def test_train_hook_called_on_schedule():
    sim = make_sim(rate=0.0, epoch=1.0, train_interval_s=0.1)
    calls = []
    sim.train_hook = calls.append
    sim.run()
    assert len(calls) == 10
