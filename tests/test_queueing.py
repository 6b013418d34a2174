"""Queueing-theory oracles: the simulator's queuing delay against closed
forms, in absolute terms (the goldens only pin what the code does today).

Reference: L. Kleinrock, *Queueing Systems, Vol. 1: Theory* (1975), ch. 5,
the Pollaczek-Khinchine mean-value formula for the M/G/1 queue.
"""

from dataclasses import replace

import numpy as np

from leoroute.constellation import build_walker
from leoroute.linkmodel import RateModel
from leoroute.netsim import Simulator, TrafficConfig
from leoroute.routing import SpfRouter
from leoroute.scenario import desk_scenario

SIZE_BITS = 64_800
ISL_BPS = 10e6
RATE_PPS = 200.0
EPOCH_S = 300.0
BATCHES = 30          # 10 s batches, far longer than the queue's memory
BOUND_SE = 4.0        # two-sided miss chance about 6e-5 for a right simulator


def _md1_run(seed: int) -> tuple[Simulator, np.ndarray]:
    """Luxembourg <-> Dubai under SPF on the frozen desk grid: the topology
    never refreshes, up- and downlinks at 1e15 b/s take 0 ns, and every
    packet is 64,800 bits on 10 Mb/s ISLs. Returns the simulator and each
    delivered packet's total queuing delay in seconds, in delivery order."""
    sc = desk_scenario()
    stations = [gs for gs in sc.stations if gs.name in ("luxembourg", "dubai")]
    sim_cfg = replace(sc.sim, refresh_interval_s=1e6,
                      gsl_rate_model=RateModel("fixed", 1e15),
                      isl_rate_model=RateModel("fixed", ISL_BPS))
    traffic = TrafficConfig(RATE_PPS, size_mix=((SIZE_BITS, 1.0),), seed=seed)
    sim = Simulator(build_walker(sc.walker), stations, sim_cfg, traffic,
                    SpfRouter(SIZE_BITS), epoch_s=EPOCH_S)
    sim.run()
    queue_ns = np.array([rec[3] for rec in sim.delivered_records], dtype=float)
    return sim, queue_ns / 1e9


def _batch_means(x: np.ndarray, batches: int) -> tuple[float, float]:
    """Mean and batch-means standard error of a correlated series."""
    means = np.array([b.mean() for b in np.array_split(x, batches)])
    return float(x.mean()), float(means.std(ddof=1) / np.sqrt(batches))


def test_md1_mean_queuing_matches_pollaczek_khinchine():
    """Each direction carries half the Poisson stream, so its first ISL is
    an M/D/1 queue at rho = 0.648. Equal deterministic servers in tandem
    never make a packet wait after the first, so a packet's whole queuing
    delay is that first wait, whose mean is rho * S / (2 (1 - rho)) =
    5.965 ms. Seeds 1-3 are pooled; the bound is BOUND_SE pooled
    batch-means standard errors (about 0.09 ms each)."""
    service_s = SIZE_BITS / ISL_BPS
    rho = RATE_PPS / 2 * service_s
    expected = rho * service_s / (2 * (1 - rho))
    assert round(expected * 1e3, 3) == 5.965

    means, ses = [], []
    for seed in (1, 2, 3):
        sim, wait_s = _md1_run(seed)
        assert sim.dropped == 0 and sim.paused == 0 and sim.uplink_stalls == 0
        assert sim.dq_prediction_mismatches == 0
        assert len(wait_s) > 0.95 * RATE_PPS * EPOCH_S
        mean, se = _batch_means(wait_s, BATCHES)
        means.append(mean)
        ses.append(se)
    pooled = float(np.mean(means))
    pooled_se = float(np.sqrt(np.sum(np.square(ses)))) / len(ses)
    assert abs(pooled - expected) <= BOUND_SE * pooled_se, (
        f"mean queuing {pooled * 1e3:.3f} ms, P-K {expected * 1e3:.3f} ms, "
        f"pooled SE {pooled_se * 1e3:.3f} ms")
