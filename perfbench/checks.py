"""Output checks. Each check is one operation; a check that does not hold
is one failed operation."""

from __future__ import annotations

import hashlib
import sys

import numpy as np


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def simulator(self, sim, where: str) -> None:
        """Accounting invariants of one finished Simulator run."""
        lhs = sim.generated
        rhs = sim.delivered + sim.dropped + sim.in_flight
        self.record(f"{where}: packet conservation", lhs == rhs,
                    f"generated {lhs} != delivered + dropped + in_flight {rhs}")
        rec = np.array([r[2:6] for r in sim.delivered_records],
                       dtype=np.int64).reshape(-1, 4)
        bad = int(np.count_nonzero(rec[:, 0] != rec[:, 1:].sum(axis=1)))
        self.record(f"{where}: e2e == queue + prop + tx", bad == 0,
                    f"{bad} of {len(rec)} delivered packets break the identity")
        self.record(f"{where}: queue-wait predictions",
                    sim.dq_prediction_mismatches == 0,
                    f"{sim.dq_prediction_mismatches} mismatches")
        self.record(f"{where}: uplink stalls", sim.uplink_stalls == 0,
                    f"{sim.uplink_stalls} stalls")

    def same(self, name: str, expected: str, got: str) -> None:
        self.record(name, expected == got, f"{got} != {expected}")


def report_digest(report) -> str:
    """sha256 of a MetricsReport's canonical JSON."""
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
