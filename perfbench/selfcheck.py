"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

Checks that gauge samples taken during timed work are not charged to it.
Runs every workload traced for a tiny simulated duration and requires all
output checks to hold and every metric BENCHMARK.json names to be reported.
Then corrupts one result at a time (a simulator's counters or records, a
report, the checkpoint file) and requires the matching check to fail, and
finally requires run.py to fail without printing a result in a tree that
holds no leoroute sources. Exits non-zero if anything is not as expected.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import time

import run

TINY_S = {"desk-spf": 0.3, "mega-spf-light": 0.3, "desk-cvar-eval": 0.2,
          "desk-cvar-train": 0.2}
SEED = 7

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def tiny_run(name: str):
    from workloads import WORKLOADS
    return run.run_workload(WORKLOADS[name], SEED, seconds=0, trace=True,
                            sim_s=TINY_S[name])


def check_clean_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {sec: {m["name"]: m["unit"] for m in spec[sec]}
            for sec in ("end_to_end", "per_layer")}
    expect([w["name"] for w in spec["workloads"]] == list(TINY_S),
           "BENCHMARK.json lists the four workloads")
    for name in TINY_S:
        res = tiny_run(name)
        checks = res["checks"]
        expect(checks.attempted > 0 and checks.failed == 0,
               f"{name}: {checks.attempted} checks hold on a clean run")
        for sec, units in want.items():
            got = {k: u for k, (_, u, _) in res[sec].items()}
            expect(got == units, f"{name}: {sec} metrics and units match "
                                 f"BENCHMARK.json")
            expect(all(math.isfinite(v) for v, _, _ in res[sec].values()),
                   f"{name}: {sec} values are finite")


@contextlib.contextmanager
def after_run(corrupt):
    """Apply ``corrupt`` to every Simulator once its run finishes."""
    from leoroute.netsim import Simulator
    from tracer import Patcher
    with Patcher() as patch:
        orig = Simulator.run

        def corrupted(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            corrupt(self)
            return out

        patch.set(Simulator, "run", corrupted)
        yield


@contextlib.contextmanager
def nth_report_off(n: int):
    """Perturb the n-th MetricsReport made (0-based)."""
    from leoroute import harness
    from tracer import Patcher
    made = [0]
    with Patcher() as patch:
        orig = harness.report_from_sim

        def perturbed(*args, **kwargs):
            report = orig(*args, **kwargs)
            if made[0] == n:
                report.paused += 1
            made[0] += 1
            return report

        patch.set(harness, "report_from_sim", perturbed)
        yield


@contextlib.contextmanager
def corrupt_checkpoint():
    """Point the workload at a copy of the checkpoint with one weight changed."""
    import numpy as np
    import workloads
    from tracer import Patcher
    bad = run.OUT / "corrupt_checkpoint.npz"
    run.OUT.mkdir(exist_ok=True)
    with np.load(workloads.CHECKPOINT) as data:
        arrays = {k: data[k].copy() for k in data.files}
    arrays["actor/b2"][0] += 1e-9
    np.savez(bad, **arrays)
    with Patcher() as patch:
        patch.set(workloads, "CHECKPOINT", bad)
        yield


def _shift_first_e2e(sim):
    rec = list(sim.delivered_records[0])
    rec[2] += 1
    sim.delivered_records[0] = tuple(rec)


def _add(attr):
    def corrupt(sim):
        setattr(sim, attr, getattr(sim, attr) + 1)
    return corrupt


CORRUPTIONS = [
    # (what is corrupted, workload, context, substring of the check that must fail)
    ("generated count", "desk-spf", lambda: after_run(_add("generated")),
     "packet conservation"),
    ("one delivered e2e delay", "desk-spf", lambda: after_run(_shift_first_e2e),
     "e2e == queue + prop + tx"),
    ("queue-wait prediction count", "desk-spf",
     lambda: after_run(_add("dq_prediction_mismatches")), "queue-wait predictions"),
    ("uplink stall count", "desk-spf", lambda: after_run(_add("uplink_stalls")),
     "uplink stalls"),
    # desk-spf makes a warm-up call, one timed call per seed (the first
    # repeats the warm-up's seed) and then the traced call
    ("repeated call's report", "desk-spf", lambda: nth_report_off(1),
     "identical to the first call"),
    ("traced call's report", "desk-spf", lambda: nth_report_off(7),
     "traced report identical to untraced"),
    ("checkpoint file", "desk-cvar-eval", corrupt_checkpoint, "checkpoint sha256"),
]


def check_corruptions() -> None:
    for what, name, ctx, target in CORRUPTIONS:
        with ctx():
            checks = tiny_run(name)["checks"]
        failed = [c for c, ok, _ in checks.results if not ok]
        expect(bool(failed) and all(target in c for c in failed),
               f"corrupted {what}: only '{target}' fails ({len(failed)} of "
               f"{checks.attempted})")


def check_gauge() -> None:
    """The timer samples the gauge during timed work and the samples are not
    charged to it. A sleep ends at its deadline however often it is
    interrupted, so its host time less the samples falls below 0.5 s."""
    _, wall, ref = run.gauged(time.sleep, 0.5)
    expect(0.45 < wall < 0.5 and ref > 0,
           f"gauged 0.5 s sleep: {wall:.4f} host s without its gauge samples")


def check_bare_tree() -> None:
    """Without leoroute sources the runner exits non-zero, printing no result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "desk-spf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"tree without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    run.import_leoroute()
    check_gauge()
    check_clean_runs()
    check_corruptions()
    check_bare_tree()
    print(f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
