"""Which public functions of each leoroute layer the traced run wraps, and
how the per-layer metrics are derived from the recorded spans.

Names are patched where the caller looks them up: module globals that
another module imported by name are patched in the importing module
(``leoroute.harness.build_walker``), module attributes reached through the
module object are patched on it (``leoroute.nn.quantile_forward``), and
methods are patched on their class.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer


def install(tr: Tracer, sims: list, buffers: list) -> None:
    """Wrap every traced name; ``sims`` and ``buffers`` collect the
    simulators run and replay buffers built during the traced call."""
    from leoroute import env, harness, learner, linkmodel, netsim, nn, routing

    tr.span(harness, "build_walker", "constellation.build_walker")
    tr.span(netsim, "propagate", "constellation.propagate")
    tr.span(linkmodel, "isl_rate", "linkmodel.rate")
    tr.span(linkmodel, "gsl_rate", "linkmodel.rate")

    tr.span(netsim.Simulator, "__init__", "netsim.init")
    tr.span(netsim, "generate_traffic", "netsim.generate_traffic")
    tr.span(netsim.Simulator, "run", "netsim.run")
    tr.patcher.capture(netsim.Simulator, "run", sims)
    tr.count(netsim.EventQueue, "schedule", "netsim.events")

    tr.span(routing.SpfRouter, "on_topology_refresh", "routing.spf_refresh")
    tr.span(routing, "build_snapshot", "routing.build_snapshot")
    tr.span(routing, "spf_tables", "routing.spf_tables")
    for router in (routing.SpfRouter, env.ObsRouter, env.TransitionCollector):
        tr.span(router, "choose", "routing.decision")
    tr.span(routing.ActorPolicy, "decide", "routing.actor_decide")

    tr.span(env.Featurizer, "observe", "env.observe")
    tr.span(env.Featurizer, "refresh", "env.featurizer_refresh")
    tr.span(env.TransitionCollector, "notify_step", "env.collector")
    tr.span(env.TransitionCollector, "notify_terminal", "env.collector")

    tr.span(nn, "mlp_forward_single", "nn.forward_single")
    for fn in ("mlp_forward", "mlp_backward", "quantile_forward",
               "quantile_backward", "adam_step", "soft_update", "load_checkpoint"):
        tr.span(nn, fn, f"nn.{fn}")

    tr.span(learner.PrimalLearner, "__init__", "learner.init")
    tr.span(learner.PrimalLearner, "train_step", "learner.train_step",
            idle_name="learner.train_idle")
    tr.span(learner.ReplayBuffer, "__init__", "learner.buffer_init")
    tr.patcher.capture(learner.ReplayBuffer, "__init__", buffers)
    tr.span(learner.ReplayBuffer, "add", "learner.buffer_add")
    tr.span(learner.ReplayBuffer, "sample", "learner.buffer_sample")

    tr.span(harness, "report_from_sim", "metrics.report")


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "constellation.propagate_calls": ("count", "lower"),
    "constellation.propagate_ms": ("ms", "lower"),
    "constellation.build_walker_ms": ("ms", "lower"),
    "linkmodel.rate_calls": ("count", "lower"),
    "linkmodel.rate_ms": ("ms", "lower"),
    "netsim.events": ("count", "lower"),
    "netsim.self_ms": ("ms", "lower"),
    "netsim.self_us_per_event": ("us", "lower"),
    "netsim.generate_traffic_ms": ("ms", "lower"),
    "netsim.init_ms": ("ms", "lower"),
    "netsim.packets": ("count", "higher"),
    "netsim.decisions": ("count", "lower"),
    "netsim.drop_buffer": ("count", "lower"),
    "netsim.drop_ttl": ("count", "lower"),
    "netsim.drop_no_route": ("count", "lower"),
    "netsim.isl_queues_used": ("count", "lower"),
    "routing.spf_refresh_calls": ("count", "lower"),
    "routing.spf_refresh_ms_p50": ("ms", "lower"),
    "routing.spf_refresh_ms_p90": ("ms", "lower"),
    "routing.build_snapshot_ms": ("ms", "lower"),
    "routing.spf_tables_ms": ("ms", "lower"),
    "routing.decision_calls": ("count", "lower"),
    "routing.decision_us_p50": ("us", "lower"),
    "routing.decision_us_p99": ("us", "lower"),
    "routing.actor_decide_us_p50": ("us", "lower"),
    "env.observe_calls": ("count", "lower"),
    "env.observe_us_p50": ("us", "lower"),
    "env.featurizer_refresh_ms": ("ms", "lower"),
    "env.collector_self_ms": ("ms", "lower"),
    "env.transitions": ("count", "higher"),
    "env.transition_yield": ("ratio", "higher"),
    "nn.forward_single_calls": ("count", "lower"),
    "nn.forward_single_us_p50": ("us", "lower"),
    "nn.quantile_forward_ms": ("ms", "lower"),
    "nn.quantile_backward_ms": ("ms", "lower"),
    "nn.mlp_forward_ms": ("ms", "lower"),
    "nn.mlp_backward_ms": ("ms", "lower"),
    "nn.adam_step_ms": ("ms", "lower"),
    "learner.train_steps": ("count", "higher"),
    "learner.step_yield": ("ratio", "higher"),
    "learner.train_step_ms_p50": ("ms", "lower"),
    "learner.train_step_ms_p90": ("ms", "lower"),
    "learner.self_ms": ("ms", "lower"),
    "learner.buffer_add_us_p50": ("us", "lower"),
    "learner.buffer_sample_ms": ("ms", "lower"),
    "learner.buffer_mb": ("MB", "lower"),
    "metrics.report_ms": ("ms", "lower"),
    "harness.api_ms": ("ms", "lower"),
    "harness.self_ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

_EMPTY = np.zeros(0)


def per_layer_metrics(tr: Tracer, sims: list, buffers: list,
                      untraced_ms: float) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count) for one traced API call whose
    root span is ``harness.api``. Layers the workload does not reach read 0
    with 0 samples."""
    spans = tr.by_name()

    def durs(name):
        return spans.get(name, (_EMPTY, _EMPTY))[0]

    def calls(name):
        n = len(durs(name))
        return float(n), 1

    def total_ms(name):
        d = durs(name)
        return float(d.sum()) / 1e6, len(d)

    def self_ms(name):
        d = spans.get(name, (_EMPTY, _EMPTY))[1]
        return float(d.sum()) / 1e6, len(d)

    def pct(name, q, scale):
        d = durs(name)
        return (float(np.percentile(d, q)) / scale if len(d) else 0.0), len(d)

    events = tr.counts["netsim.events"]
    netsim_self = self_ms("netsim.run")
    decisions = sum(s.decisions for s in sims)
    transitions = len(durs("learner.buffer_add"))
    steps = len(durs("learner.train_step"))
    ticks = steps + len(durs("learner.train_idle"))
    api_ms = total_ms("harness.api")
    buffer_mb = sum(
        sum(a.nbytes for a in (b.o, b.a, b.r, b.c, b.o2, b.done, b.tau))
        for b in buffers) / 2**20

    def drops(cause):
        return float(sum(s.drop_by_cause[cause] for s in sims)), len(sims)

    from leoroute.netsim import DROP_BUFFER, DROP_NO_ROUTE, DROP_TTL

    out = {
        "constellation.propagate_calls": calls("constellation.propagate"),
        "constellation.propagate_ms": total_ms("constellation.propagate"),
        "constellation.build_walker_ms": total_ms("constellation.build_walker"),
        "linkmodel.rate_calls": calls("linkmodel.rate"),
        "linkmodel.rate_ms": total_ms("linkmodel.rate"),
        "netsim.events": (float(events), 1),
        "netsim.self_ms": netsim_self,
        "netsim.self_us_per_event": (netsim_self[0] * 1e3 / max(events, 1), events),
        "netsim.generate_traffic_ms": total_ms("netsim.generate_traffic"),
        "netsim.init_ms": total_ms("netsim.init"),
        "netsim.packets": (float(sum(s.generated for s in sims)), len(sims)),
        "netsim.decisions": (float(decisions), len(sims)),
        "netsim.drop_buffer": drops(DROP_BUFFER),
        "netsim.drop_ttl": drops(DROP_TTL),
        "netsim.drop_no_route": drops(DROP_NO_ROUTE),
        "netsim.isl_queues_used": (float(sum(len(s.isl_queues) for s in sims)),
                                   len(sims)),
        "routing.spf_refresh_calls": calls("routing.spf_refresh"),
        "routing.spf_refresh_ms_p50": pct("routing.spf_refresh", 50, 1e6),
        "routing.spf_refresh_ms_p90": pct("routing.spf_refresh", 90, 1e6),
        "routing.build_snapshot_ms": total_ms("routing.build_snapshot"),
        "routing.spf_tables_ms": total_ms("routing.spf_tables"),
        "routing.decision_calls": calls("routing.decision"),
        "routing.decision_us_p50": pct("routing.decision", 50, 1e3),
        "routing.decision_us_p99": pct("routing.decision", 99, 1e3),
        "routing.actor_decide_us_p50": pct("routing.actor_decide", 50, 1e3),
        "env.observe_calls": calls("env.observe"),
        "env.observe_us_p50": pct("env.observe", 50, 1e3),
        "env.featurizer_refresh_ms": total_ms("env.featurizer_refresh"),
        "env.collector_self_ms": self_ms("env.collector"),
        "env.transitions": (float(transitions), 1),
        "env.transition_yield": (transitions / decisions if decisions else 0.0,
                                 decisions),
        "nn.forward_single_calls": calls("nn.forward_single"),
        "nn.forward_single_us_p50": pct("nn.forward_single", 50, 1e3),
        "nn.quantile_forward_ms": total_ms("nn.quantile_forward"),
        "nn.quantile_backward_ms": total_ms("nn.quantile_backward"),
        "nn.mlp_forward_ms": total_ms("nn.mlp_forward"),
        "nn.mlp_backward_ms": total_ms("nn.mlp_backward"),
        "nn.adam_step_ms": total_ms("nn.adam_step"),
        "learner.train_steps": (float(steps), 1),
        "learner.step_yield": (steps / ticks if ticks else 0.0, ticks),
        "learner.train_step_ms_p50": pct("learner.train_step", 50, 1e6),
        "learner.train_step_ms_p90": pct("learner.train_step", 90, 1e6),
        "learner.self_ms": self_ms("learner.train_step"),
        "learner.buffer_add_us_p50": pct("learner.buffer_add", 50, 1e3),
        "learner.buffer_sample_ms": total_ms("learner.buffer_sample"),
        "learner.buffer_mb": (buffer_mb, len(buffers)),
        "metrics.report_ms": total_ms("metrics.report"),
        "harness.api_ms": api_ms,
        "harness.self_ms": self_ms("harness.api"),
        "trace.spans": (float(len(tr.name)), 1),
        "trace.overhead_pct": (100.0 * (api_ms[0] / untraced_ms - 1.0), 1),
    }
    return out
