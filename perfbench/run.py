"""leoroute benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree; leoroute is imported from its ``src``
directory. One run of a workload:

1. builds the workload's components several times before the calls and
   once before each timed call, and reports the median as ``setup_s``;
2. after one untimed warm-up call, makes the workload's public-API call
   (one simulated epoch) once for each of a fixed number of traffic seeds
   derived from ``--seed``, then repeats them while ``--seconds`` of host
   time last; reports the median rate in reference seconds (see
   ``gauged``) as ``sim_s_per_s`` and the routing quality aggregated over
   the seeds (a repeat must reproduce its seed's report exactly);
3. with ``--trace 1``, makes one more call with spans recorded around each
   layer's public functions and reports the per-layer metrics.

Every call's output is checked (see checks.py). The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
the checks, ``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``). Each run also writes its full record,
including the environment, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5                 # set-ups before the calls; one more before each
# The timing metrics are in reference seconds: the host time of every timed
# set-up and call is divided by the mean time of ``gauge()`` sampled right
# before, every GAUGE_EVERY_S during and right after it, and multiplied by
# REFERENCE_S. The host's speed changes by up to 1.6x within seconds (other
# tenants on the same cores; CPU time grows with wall time, so it is not
# descheduling); this cancels most of that, while a change in leoroute's own
# speed moves the metric in full. REFERENCE_S is about the median of gauge()
# on the 2-core machine the benchmark was built on, so reference seconds are
# close to host seconds there.
REFERENCE_S = 0.001
GAUGE_EVERY_S = 0.05


def import_leoroute() -> None:
    """Put the tree's own ``src`` first on the path and make sure that is
    the leoroute that gets imported."""
    pkg = ROOT / "src" / "leoroute"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no leoroute sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import leoroute
    if Path(leoroute.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported leoroute from {leoroute.__file__}, not {pkg}")


# ---------------------------------------------------------------------------
# environment record

def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the tree's own git repository, read from ``.git``; None when
    the tree is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# one workload

def gauge() -> float:
    """Host time of a fixed pure-Python loop: how fast the host runs now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return time.perf_counter() - t0


def gauged(fn, *args):
    """``fn(*args)``, its host time and that time in reference seconds.

    A real-time interval timer samples ``gauge()`` while ``fn`` runs; the
    time spent in those samples is taken out of the host time."""
    samples = [(0.0, gauge())]          # (start, host time) of each sample

    def on_alarm(signum, frame):
        samples.append((time.perf_counter(), gauge()))

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # a sample that started before t1 was read ran inside [t0, t1]
    wall = t1 - t0 - sum(dt for t, dt in samples[1:] if t < t1)
    samples.append((t1, gauge()))
    speed = statistics.fmean(dt for _, dt in samples)
    return result, wall, wall * REFERENCE_S / speed


def call_seeds(w, seed: int) -> list[int]:
    """The traffic seeds one run uses, all derived from ``--seed``."""
    return [seed * 1000 + i for i in range(w.seeds)]


def run_workload(w, seed: int, seconds: float, trace: bool,
                 sim_s: float | None = None) -> dict:
    """Measure one workload; returns metrics as name -> (value, unit,
    samples) under ``end_to_end`` and, when traced, ``per_layer``, plus the
    checks made.

    Timed calls cycle through ``call_seeds``: the first pass gives the
    routing quality (aggregated over the seeds, so it is fixed for a given
    ``--seed``), and further passes, made while ``seconds`` allow, add
    timing samples. Every call must reproduce the first report of its seed
    exactly."""
    import layers
    from checks import Checks, file_sha256, report_digest
    from leoroute import Simulator
    from leoroute.metrics import aggregate_reports
    from tracer import Patcher, Tracer
    from workloads import CHECKPOINT, CHECKPOINT_SHA256

    checks = Checks()
    if w.checkpoint:
        checks.same("checkpoint sha256", CHECKPOINT_SHA256, file_sha256(CHECKPOINT))
    sim_s = w.sim_s if sim_s is None else sim_s
    sc = w.scenario(sim_s)
    seeds = call_seeds(w, seed)

    setup: list[float] = []             # reference seconds per set-up

    def build() -> None:
        gc.collect()
        built, _, ref = gauged(w.setup, sc, seeds[0])
        setup.append(ref)
        del built

    for _ in range(SETUP_REPS):
        build()

    sims: list = []
    first: dict[int, str] = {}          # seed -> digest of its first report

    def call(s: int, where: str):
        # the simulator, router and learner of a call hold reference cycles:
        # free the previous call's before timing the next
        gc.collect()
        report, wall, ref = gauged(w.call, sc, s)
        for sim in sims:
            checks.simulator(sim, where)
        sims.clear()
        digest = report_digest(report)
        if s in first:
            checks.same(f"{where}: report identical to the first call of "
                        f"seed {s}", first[s], digest)
        first.setdefault(s, digest)
        return report, wall, ref

    walls: list[float] = []             # host seconds per timed call
    refs: list[float] = []              # the same in reference seconds
    reports = []
    with Patcher() as patch:
        patch.capture(Simulator, "run", sims)
        # One untimed call first, so that lazy set-up in the interpreter and
        # the allocator is not charged to the timed calls.
        call(seeds[0], "warm-up call")
        start = time.perf_counter()
        while True:
            build()
            k = len(walls) % len(seeds)
            report, wall, ref = call(seeds[k], f"call {len(walls) + 1}")
            walls.append(wall)
            refs.append(ref)
            if len(reports) < len(seeds):
                reports.append(report)
            del report
            if (len(walls) >= len(seeds)
                    and time.perf_counter() - start + walls[-1] > seconds):
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    q = aggregate_reports(reports)
    out = {"end_to_end": {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "sim_s_per_s": (sim_s / statistics.median(refs), "s/s", len(refs)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "throughput_mbps": (q.throughput_bps / 1e6, "Mbps", q.delivered),
        "survival_rate": (1.0 - q.drop_rate, "ratio", q.generated),
        "e2e_mean_ms": (q.e2e_mean_s * 1e3, "ms", q.delivered),
        "queuing_mean_ms": (q.queuing_mean_s * 1e3, "ms", q.delivered),
        "queuing_cvar_ms": (q.queuing_cvar_s * 1e3, "ms", q.delivered),
        "violation_rate": (q.violation_rate, "ratio", q.generated),
    }, "info": {
        "drop_rate": (q.drop_rate, "ratio", q.generated),
        # the same rate in host seconds, as this host ran it
        "host_sim_s_per_s": (sim_s * len(walls) / sum(walls), "s/s", len(walls)),
        "call_wall_s_min": (min(walls), "s", len(walls)),
        "call_wall_s_max": (max(walls), "s", len(walls)),
        "simulated_s_per_call": (sim_s, "s", 1),
        "traffic_seeds": (len(seeds), "count", 1),
    }}

    if trace:
        traced_sims: list = []
        buffers: list = []
        gc.collect()
        with Patcher() as patch:
            tr = Tracer(patch)
            layers.install(tr, traced_sims, buffers)
            report = tr.wrap("harness.api", w.call)(sc, seeds[0])
        for sim in traced_sims:
            checks.simulator(sim, "traced call")
        checks.same("traced report identical to untraced", first[seeds[0]],
                    report_digest(report))
        metrics = layers.per_layer_metrics(
            tr, traced_sims, buffers, statistics.median(walls) * 1e3)
        out["per_layer"] = {k: (v, layers.PER_LAYER[k][0], n)
                            for k, (v, n) in metrics.items()}
        OUT.mkdir(exist_ok=True)
        tr.save(OUT / f"spans-{w.name}-seed{seed}.npz")

    out["checks"] = checks
    out["call_walls_s"] = walls
    out["call_ref_s"] = refs
    return out


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:16.6f} {unit:6s} n={n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_leoroute()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    attempted = failed = 0
    final: dict = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                           trace=bool(args.trace) or args.workload == "all")
        checks = res.pop("checks")
        walls = res.pop("call_walls_s")
        refs = res.pop("call_ref_s")
        attempted += checks.attempted
        failed += checks.failed
        for section, metrics in res.items():
            print_table(f"{name} seed={args.seed} {section}", metrics)
        print(f"# {name} checks: {checks.attempted - checks.failed} of "
              f"{checks.attempted} hold")
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "call_walls_s": walls,
                  "call_ref_s": refs,
                  "checks": [{"name": c, "ok": ok, "detail": d}
                             for c, ok, d in checks.results],
                  **{section: {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in metrics.items()}
                     for section, metrics in res.items()}}
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        sections = ("end_to_end", "per_layer") if args.workload == "all" else (
            ("per_layer",) if args.trace else ("end_to_end",))
        for section in sections:
            for k, (v, u, _) in res[section].items():
                key = f"{name}/{k}" if args.workload == "all" else k
                final[key] = {"value": v, "unit": u}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
