"""Deterministic event-driven packet network simulation core.

Time is integer nanoseconds internally so event ordering and the per-hop
delay decomposition are exact and reproducible; delay formulas are evaluated
in float seconds at the boundary and rounded once. Events are plain
``(time_ns, seq, kind, payload)`` heap tuples processed in
(time, insertion-sequence) order. Packets move store-and-forward through
FIFO output queues with finite per-link and per-node buffers; a drop is a
modeled outcome, never an error.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import linkmodel
from .constellation import (
    Constellation,
    GroundStation,
    build_walker,
    propagate,
    station_geometry,
)
from .errors import ConfigurationError, SimulationError

NS_PER_S = 1_000_000_000


def to_ns(seconds: float) -> int:
    return round(seconds * NS_PER_S)


def to_s(ns: int) -> float:
    return ns / NS_PER_S


# ---------------------------------------------------------------------------
# Events

# event kinds; the trace digest hashes these ints
PACKET_ARRIVAL = 0     # payload (packet, node, wait_ns, tx_ns, prop_ns)
TX_COMPLETE = 1        # payload: the OutputQueue
TRAFFIC_TICK = 2       # payload: index into the traffic stream
TOPOLOGY_REFRESH = 3
TRAIN_TICK = 4
METRICS_TICK = 5


class EventQueue:
    """Min-heap of ``(time_ns, seq, kind, payload)`` tuples. The unique seq
    orders equal times by insertion, so payloads are never compared.
    Scheduling into the past is a bug in the caller, not a modeled
    outcome."""

    def __init__(self):
        self.heap: list[tuple] = []
        self._seq = 0
        self.now_ns = 0

    def __len__(self):
        return len(self.heap)

    def schedule(self, time_ns: int, kind: int, payload=None) -> tuple:
        if time_ns < self.now_ns:
            raise SimulationError(
                f"past-dated event: t={time_ns} < now={self.now_ns} (kind {kind})")
        self._seq += 1
        ev = (time_ns, self._seq, kind, payload)
        heapq.heappush(self.heap, ev)
        return ev

    def pop(self) -> tuple:
        ev = heapq.heappop(self.heap)
        self.now_ns = ev[0]
        return ev


# ---------------------------------------------------------------------------
# Traffic

class PacketSpec(NamedTuple):
    time_ns: int
    src_gs: int
    dst_gs: int
    size_bits: int


@dataclass(frozen=True)
class TrafficConfig:
    rate_pps: float
    size_mix: tuple[tuple[int, float], ...] = ((64_800, 0.8), (16_200, 0.2))
    seed: int = 0

    def __post_init__(self):
        if self.rate_pps < 0:
            raise ConfigurationError("traffic rate must be >= 0")
        if abs(sum(p for _, p in self.size_mix) - 1.0) > 1e-9:
            raise ConfigurationError("size_mix probabilities must sum to 1")
        if any(bits <= 0 for bits, _ in self.size_mix):
            raise ConfigurationError("packet sizes must be positive")

    @property
    def max_size_bits(self) -> int:
        return max(bits for bits, _ in self.size_mix)


def generate_traffic(cfg: TrafficConfig, epoch_s: float,
                     num_stations: int) -> list[PacketSpec]:
    """Poisson arrivals over [0, epoch) with source/destination drawn
    uniformly over ordered distinct station pairs; fully determined by the
    seed."""
    if epoch_s <= 0:
        raise ConfigurationError("epoch must be positive")
    if cfg.rate_pps == 0:
        return []
    if num_stations < 2:
        raise ConfigurationError("traffic needs at least two stations")
    rng = np.random.default_rng(cfg.seed)
    times: list[float] = []
    t = 0.0
    chunk = max(int(cfg.rate_pps * epoch_s * 1.1) + 16, 64)
    while t < epoch_s:
        for g in rng.exponential(1.0 / cfg.rate_pps, size=chunk):
            t += g
            if t >= epoch_s:
                break
            times.append(t)
    n = len(times)
    pair_idx = rng.integers(0, num_stations * (num_stations - 1), size=n)
    src = pair_idx // (num_stations - 1)
    rem = pair_idx % (num_stations - 1)
    dst = np.where(rem < src, rem, rem + 1)
    sizes = np.array([bits for bits, _ in cfg.size_mix])
    cum = np.cumsum([p for _, p in cfg.size_mix])
    size = sizes[np.searchsorted(cum, rng.random(n), side="right").clip(0, len(sizes) - 1)]
    return [PacketSpec(to_ns(times[i]), int(src[i]), int(dst[i]), int(size[i]))
            for i in range(n)]


# ---------------------------------------------------------------------------
# Packets and queues

@dataclass(slots=True)
class Packet:
    id: int
    src_gs: int
    dst_gs: int
    size_bits: int
    created_ns: int
    ttl: int
    hop_count: int = 0
    cum_queue_ns: int = 0
    cum_prop_ns: int = 0
    cum_tx_ns: int = 0
    status: str = "in_flight"      # in_flight | delivered | dropped
    drop_cause: str = ""


class _QueueEntry:
    __slots__ = ("packet", "enqueue_ns", "est_tx_ns", "predicted_queue_ns")

    def __init__(self, packet, enqueue_ns, est_tx_ns, predicted_queue_ns):
        self.packet = packet
        self.enqueue_ns = enqueue_ns
        self.est_tx_ns = est_tx_ns
        self.predicted_queue_ns = predicted_queue_ns


class OutputQueue:
    """FIFO output buffer for one outgoing link. Bits of the in-service
    packet occupy the buffer until its transmission completes. An ISL queue
    records its grid direction, a ground link queue its station (the other
    field is -1). Uplink queues carry dst_node = -1.

    The link is resolved once per topology refresh, the first time the
    queue is used after it, and cached: ``target`` (for an uplink, the
    station's access satellite, None while it has none), the link ``rate``
    in bits/s and ``prop_ns``. ``refresh`` is the refresh they belong to."""

    __slots__ = ("src_node", "dst_node", "direction", "station", "capacity_bits",
                 "waiting", "queued_bits", "pending_tx_ns", "busy_until_ns",
                 "in_service", "service_meta", "refresh", "target", "rate", "prop_ns")

    def __init__(self, src_node: int, dst_node: int, direction: int, station: int,
                 capacity_bits: int):
        self.src_node = src_node
        self.dst_node = dst_node
        self.direction = direction
        self.station = station
        self.capacity_bits = capacity_bits
        self.refresh = -1                 # stale until first resolved
        self.target: Optional[int] = None
        self.rate = 0.0
        self.prop_ns = 0
        self.waiting: deque[_QueueEntry] = deque()
        self.queued_bits = 0
        self.pending_tx_ns = 0            # estimated tx time of waiting packets
        self.busy_until_ns = 0
        self.in_service: Optional[_QueueEntry] = None
        self.service_meta = None          # (tx_ns, prop_ns, dst, wait)


# ---------------------------------------------------------------------------
# Simulation config and router interface

@dataclass(frozen=True)
class SimConfig:
    ttl_hops: int = 64
    link_buffer_bits: int = 16_000_000
    node_buffer_bits: int = 16_000_000
    refresh_interval_s: float = 0.1
    gsl_params: linkmodel.GslParams = linkmodel.GslParams()
    isl_params: linkmodel.IslParams = linkmodel.IslParams()
    gsl_rate_model: linkmodel.RateModel = linkmodel.RateModel("fixed", 1000e6)
    isl_rate_model: linkmodel.RateModel = linkmodel.RateModel("fixed", 50e6)

    def __post_init__(self):
        if self.ttl_hops < 1:
            raise ConfigurationError("ttl_hops must be >= 1")
        if self.link_buffer_bits <= 0 or self.node_buffer_bits <= 0:
            raise ConfigurationError("buffer sizes must be positive")
        if self.refresh_interval_s <= 0:
            raise ConfigurationError("refresh interval must be positive")


class Router:
    """Decision interface the simulator drives. ``choose`` must return an
    action in 0..3 (N, S, W, E) or -1 when it has no route. The notify hooks
    let learning components observe packet outcomes; defaults are no-ops.
    The simulator calls ``notify_step`` immediately before each ``choose``,
    with the same arguments, and a learning router may rely on that."""

    def choose(self, packet: Packet, sat: int, now_ns: int) -> int:
        raise NotImplementedError

    def notify_step(self, packet: Packet, sat: int, now_ns: int) -> None:
        pass

    def notify_terminal(self, packet: Packet, node: Optional[int], now_ns: int,
                        delivered: bool) -> None:
        pass

    def on_topology_refresh(self, sim: "Simulator") -> None:
        pass


DROP_TTL = "ttl_expired"
DROP_BUFFER = "buffer_full"
DROP_NO_ROUTE = "link_refused"


class _IntervalAccumulator:
    __slots__ = ("generated", "delivered", "dropped", "delivered_bits",
                 "sum_e2e_ns", "sum_queue_ns", "queue_samples_ns")

    def __init__(self):
        self.generated = 0
        self.delivered = 0
        self.dropped = 0
        self.delivered_bits = 0
        self.sum_e2e_ns = 0
        self.sum_queue_ns = 0
        self.queue_samples_ns: list[int] = []

    def row(self, now_ns: int) -> dict:
        n = max(self.delivered, 1)
        cvar = 0.0
        if self.queue_samples_ns:
            q = np.sort(np.array(self.queue_samples_ns, dtype=float))
            k = int(np.ceil(0.25 * len(q)))
            cvar = float(q[len(q) - k:].mean()) / NS_PER_S
        return {
            "t_s": to_s(now_ns),
            "generated": self.generated,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "drop_rate": self.dropped / max(self.generated, 1),
            "mean_e2e_s": to_s(self.sum_e2e_ns) / n,
            "mean_queue_s": to_s(self.sum_queue_ns) / n,
            "queue_cvar_s": cvar,
        }


class Simulator:
    """Single-threaded deterministic event loop over one constellation, one
    set of ground stations and one traffic stream.

    Geometry changes only at a topology refresh, which bumps ``refreshes``.
    Each output queue resolves its link (target node, rate, propagation
    delay) once per refresh, on its first use after it, so a hop costs no
    rate or distance evaluation of its own."""

    def __init__(self, constellation: Constellation, stations: list[GroundStation],
                 sim_cfg: SimConfig, traffic_cfg: TrafficConfig, router: Router,
                 epoch_s: float, check_invariants: bool = False, trace: bool = False,
                 metrics_interval_s: Optional[float] = None,
                 train_interval_s: Optional[float] = None):
        self.constellation = constellation
        self.stations = stations
        self.cfg = sim_cfg
        self.traffic_cfg = traffic_cfg
        self.router = router
        self.epoch_s = epoch_s
        self.check_invariants = check_invariants
        self.metrics_interval_s = metrics_interval_s
        self.train_interval_s = train_interval_s
        self.train_hook = None
        self.metrics_hook = None

        self.num_sats = constellation.num_satellites
        self.num_gs = len(stations)
        self.neighbors = constellation.neighbors          # (S, 4) int
        self.light_speed = sim_cfg.gsl_params.light_speed

        self.events = EventQueue()
        self._trace = hashlib.blake2b(digest_size=16) if trace else None

        self.refreshes = 0
        self._refresh_geometry(0)

        self.isl_queues: dict[tuple[int, int], OutputQueue] = {}
        self._isl_by_action: dict[int, OutputQueue] = {}    # sat * 4 + direction
        self.up_queues: list[OutputQueue] = [
            OutputQueue(self.num_sats + g, -1, -1, g, sim_cfg.link_buffer_bits)
            for g in range(self.num_gs)]
        self.down_queues: dict[tuple[int, int], OutputQueue] = {}
        self.node_bits = [0] * (self.num_sats + self.num_gs)

        # accounting
        self.generated = 0
        self.delivered = 0
        self.dropped = 0
        self.paused = 0
        self.in_flight = 0
        self.decisions = 0
        self.uplink_stalls = 0
        self.drop_by_cause = {DROP_TTL: 0, DROP_BUFFER: 0, DROP_NO_ROUTE: 0}
        self.delivered_records: list[tuple] = []
        self.dropped_records: list[tuple] = []
        self.dq_prediction_mismatches = 0
        self.interval_rows: list[dict] = []
        self._interval = _IntervalAccumulator()

        self._stream = generate_traffic(traffic_cfg, epoch_s, self.num_gs)
        self.router.on_topology_refresh(self)
        self.events.schedule(to_ns(sim_cfg.refresh_interval_s), TOPOLOGY_REFRESH)
        if self._stream:
            self.events.schedule(self._stream[0].time_ns, TRAFFIC_TICK, 0)
        if metrics_interval_s is not None:
            self.events.schedule(to_ns(metrics_interval_s), METRICS_TICK)
        if train_interval_s is not None:
            self.events.schedule(to_ns(train_interval_s), TRAIN_TICK)

    # -- clock --------------------------------------------------------------
    @property
    def now_ns(self) -> int:
        return self.events.now_ns

    # -- geometry -----------------------------------------------------------
    def _refresh_geometry(self, t_ns: int) -> None:
        """Geometry caches, refreshed every refresh interval: satellite and
        station positions, the (S, 4) ISL lengths by grid direction, the
        (S, G) ground link lengths and each station's access satellite.
        Bumping ``refreshes`` makes every queue re-resolve its link."""
        self.refreshes += 1
        t = to_s(t_ns)
        self.positions = propagate(self.constellation, t)
        diffs = self.positions[self.neighbors] - self.positions[:, None, :]
        self.isl_dist = np.linalg.norm(diffs, axis=2)
        geo = station_geometry(self.stations, self.positions, t,
                               self.constellation.cfg.earth_radius_m)
        self.gs_positions, self.gsl_dist, self.access = (
            geo.positions, geo.distances, geo.access)

    def _resolve_link(self, q: OutputQueue) -> None:
        """Cache the queue's target, rate and propagation delay for the
        current refresh. The rate goes through the ``linkmodel`` module
        attributes, so each resolution is one counted rate call."""
        cfg = self.cfg
        q.refresh = self.refreshes
        q.target = target = q.dst_node if q.dst_node >= 0 else self.access[q.station]
        if target is None:
            return
        if q.station < 0:
            d = float(self.isl_dist[q.src_node, q.direction])
            q.rate = linkmodel.isl_rate(cfg.isl_rate_model, cfg.isl_params, d)
        else:
            # satellites are numbered before stations: the smaller node is the satellite
            d = float(self.gsl_dist[min(q.src_node, target), q.station])
            q.rate = linkmodel.gsl_rate(cfg.gsl_rate_model, cfg.gsl_params, d)
        q.prop_ns = to_ns(d / self.light_speed)

    # -- queue mechanics ------------------------------------------------------
    def _isl_queue(self, sat: int, direction: int) -> OutputQueue:
        q = self._isl_by_action.get(sat * 4 + direction)
        if q is None:
            # two directions reach the same neighbour on a two-per-plane
            # grid; they share one queue
            nbr = int(self.neighbors[sat, direction])
            q = self.isl_queues.get((sat, nbr))
            if q is None:
                q = OutputQueue(sat, nbr, direction, -1, self.cfg.link_buffer_bits)
                self.isl_queues[(sat, nbr)] = q
            self._isl_by_action[sat * 4 + direction] = q
        return q

    def _down_queue(self, sat: int, g: int) -> OutputQueue:
        q = self.down_queues.get((sat, g))
        if q is None:
            q = OutputQueue(sat, self.num_sats + g, -1, g, self.cfg.link_buffer_bits)
            self.down_queues[(sat, g)] = q
        return q

    def _try_enqueue(self, q: OutputQueue, packet: Packet, now_ns: int) -> bool:
        """Append a packet if it fits both the link buffer and the sending
        node's aggregate buffer. Records the predicted FIFO wait (residual
        service time plus estimated tx time of everything waiting ahead)."""
        bits = packet.size_bits
        if q.queued_bits + bits > q.capacity_bits:
            return False
        node_bits = self.node_bits
        if node_bits[q.src_node] + bits > self.cfg.node_buffer_bits:
            return False
        if q.refresh != self.refreshes:
            self._resolve_link(q)
        if q.target is None:
            est_tx = 0
            predicted = -1    # stalled uplink: wait is not predictable
        else:
            est_tx = to_ns(bits / q.rate)
            if q.in_service is not None or q.waiting:
                predicted = max(q.busy_until_ns - now_ns, 0) + q.pending_tx_ns
            else:
                predicted = 0
        entry = _QueueEntry(packet, now_ns, est_tx, predicted)
        q.waiting.append(entry)
        q.queued_bits += bits
        q.pending_tx_ns += est_tx
        node_bits[q.src_node] += bits
        if q.in_service is None:
            self._start_service(q, now_ns)
        return True

    def _start_service(self, q: OutputQueue, now_ns: int) -> None:
        if not q.waiting:
            return
        if q.refresh != self.refreshes:
            self._resolve_link(q)
        target = q.target
        if target is None:        # uplink whose station has no access satellite
            self.uplink_stalls += 1
            return
        entry = q.waiting.popleft()
        q.pending_tx_ns -= entry.est_tx_ns
        tx_ns = to_ns(entry.packet.size_bits / q.rate)
        actual_wait = now_ns - entry.enqueue_ns
        if entry.predicted_queue_ns >= 0 and actual_wait != entry.predicted_queue_ns:
            self.dq_prediction_mismatches += 1
        q.in_service = entry
        q.service_meta = (tx_ns, q.prop_ns, target, actual_wait)
        q.busy_until_ns = now_ns + tx_ns
        self.events.schedule(q.busy_until_ns, TX_COMPLETE, q)

    # -- event handlers --------------------------------------------------------
    def _handle_traffic(self, idx: int, now_ns: int) -> None:
        spec = self._stream[idx]
        if idx + 1 < len(self._stream):
            self.events.schedule(self._stream[idx + 1].time_ns, TRAFFIC_TICK, idx + 1)
        if self.access[spec.src_gs] is None:
            self.paused += 1         # no access satellite: generation pauses
            return
        packet = Packet(id=idx, src_gs=spec.src_gs, dst_gs=spec.dst_gs,
                        size_bits=spec.size_bits, created_ns=spec.time_ns,
                        ttl=self.cfg.ttl_hops)
        self.generated += 1
        self.in_flight += 1
        self._interval.generated += 1
        if not self._try_enqueue(self.up_queues[spec.src_gs], packet, now_ns):
            self._drop(packet, DROP_BUFFER, None, now_ns)

    def _handle_tx_complete(self, q: OutputQueue, now_ns: int) -> None:
        entry = q.in_service
        if entry is None:
            raise SimulationError("tx_complete on idle link")
        tx_ns, prop_ns, target, wait_ns = q.service_meta
        q.in_service = None
        q.service_meta = None
        q.queued_bits -= entry.packet.size_bits
        self.node_bits[q.src_node] -= entry.packet.size_bits
        self.events.schedule(now_ns + prop_ns, PACKET_ARRIVAL,
                             (entry.packet, target, wait_ns, tx_ns, prop_ns))
        if q.waiting:
            self._start_service(q, now_ns)

    def _handle_arrival(self, packet: Packet, node: int, wait_ns: int, tx_ns: int,
                        prop_ns: int, now_ns: int) -> None:
        packet.cum_queue_ns += wait_ns
        packet.cum_tx_ns += tx_ns
        packet.cum_prop_ns += prop_ns
        if node >= self.num_sats:
            self._deliver(packet, now_ns)
            return
        if self.access[packet.dst_gs] == node:
            # automatic down-link; delivery is not an agent action
            if not self._try_enqueue(self._down_queue(node, packet.dst_gs),
                                     packet, now_ns):
                self._drop(packet, DROP_BUFFER, node, now_ns)
            return
        packet.ttl -= 1
        packet.hop_count += 1
        if packet.ttl == 0:
            self._drop(packet, DROP_TTL, node, now_ns)
            return
        self.router.notify_step(packet, node, now_ns)
        self.decisions += 1
        action = self.router.choose(packet, node, now_ns)
        if action < 0:
            self._drop(packet, DROP_NO_ROUTE, node, now_ns)
            return
        if not self._try_enqueue(self._isl_queue(node, action), packet, now_ns):
            self._drop(packet, DROP_BUFFER, node, now_ns)

    def _deliver(self, packet: Packet, now_ns: int) -> None:
        packet.status = "delivered"
        self.delivered += 1
        self.in_flight -= 1
        e2e = now_ns - packet.created_ns
        self.delivered_records.append(
            (packet.id, packet.created_ns, e2e, packet.cum_queue_ns,
             packet.cum_prop_ns, packet.cum_tx_ns, packet.size_bits,
             packet.hop_count))
        acc = self._interval
        acc.delivered += 1
        acc.delivered_bits += packet.size_bits
        acc.sum_e2e_ns += e2e
        acc.sum_queue_ns += packet.cum_queue_ns
        acc.queue_samples_ns.append(packet.cum_queue_ns)
        self.router.notify_terminal(packet, None, now_ns, delivered=True)

    def _drop(self, packet: Packet, cause: str, node: Optional[int],
              now_ns: int) -> None:
        packet.status = "dropped"
        packet.drop_cause = cause
        self.dropped += 1
        self.in_flight -= 1
        self.drop_by_cause[cause] += 1
        self.dropped_records.append(
            (packet.id, cause, packet.created_ns, packet.cum_queue_ns,
             packet.hop_count))
        self._interval.dropped += 1
        self.router.notify_terminal(packet, node, now_ns, delivered=False)

    def _handle_refresh(self, now_ns: int) -> None:
        self._refresh_geometry(now_ns)
        self.router.on_topology_refresh(self)
        # restart uplink queues that stalled while their station had no access
        for q in self.up_queues:
            if q.in_service is None and q.waiting:
                self._start_service(q, now_ns)
        self.events.schedule(now_ns + to_ns(self.cfg.refresh_interval_s),
                             TOPOLOGY_REFRESH)

    def _flush_interval(self, now_ns: int) -> None:
        row = self._interval.row(now_ns)
        self.interval_rows.append(row)
        self._interval = _IntervalAccumulator()
        if self.metrics_hook is not None:
            self.metrics_hook(row)

    # -- main loop ---------------------------------------------------------------
    def run(self, until_s: Optional[float] = None) -> None:
        end_ns = to_ns(self.epoch_s if until_s is None else until_s)
        events = self.events
        check = self.check_invariants
        trace = self._trace
        heap = events.heap
        pop = heapq.heappop
        while heap and heap[0][0] <= end_ns:
            now, seq, kind, payload = pop(heap)    # EventQueue.pop, inlined
            events.now_ns = now
            if trace is not None:
                pid = payload[0].id if kind == PACKET_ARRIVAL else -1
                trace.update(f"{now},{seq},{kind},{pid};".encode())
            if kind == PACKET_ARRIVAL:
                self._handle_arrival(*payload, now)
            elif kind == TX_COMPLETE:
                self._handle_tx_complete(payload, now)
            elif kind == TRAFFIC_TICK:
                self._handle_traffic(payload, now)
            elif kind == TOPOLOGY_REFRESH:
                self._handle_refresh(now)
            elif kind == TRAIN_TICK:
                if self.train_hook is not None:
                    self.train_hook(now)
                events.schedule(now + to_ns(self.train_interval_s), TRAIN_TICK)
            elif kind == METRICS_TICK:
                self._flush_interval(now)
                events.schedule(now + to_ns(self.metrics_interval_s), METRICS_TICK)
            if check:
                self._assert_invariants()
        self.events.now_ns = end_ns

    def _assert_invariants(self) -> None:
        if self.generated != self.delivered + self.dropped + self.in_flight:
            raise SimulationError("packet conservation violated")

    def trace_digest(self) -> str:
        if self._trace is None:
            raise SimulationError("simulator was built without trace=True")
        return self._trace.hexdigest()


def run_epoch(scenario, duration: Optional[float] = None,
              router: Optional[Router] = None, seed: Optional[int] = None,
              check_invariants: bool = False):
    """Build a simulator from a scenario and run one epoch, returning the
    aggregate MetricsReport. A uniform random-walk router is used when none
    is supplied."""
    from .metrics import report_from_sim
    from .routing import RandomRouter

    constellation = build_walker(scenario.walker)
    traffic = scenario.traffic
    if seed is not None:
        traffic = replace(traffic, seed=seed)
    sim = Simulator(constellation, scenario.stations, scenario.sim, traffic,
                    router if router is not None else RandomRouter(traffic.seed),
                    epoch_s=scenario.epoch_s if duration is None else duration,
                    check_invariants=check_invariants)
    sim.run()
    return report_from_sim(sim)
