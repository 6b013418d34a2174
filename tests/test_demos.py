"""Smoke test: the walkthrough demos that call the geometry and simulator
APIs run to completion. ``demos/05_constrained_training.py`` is left out:
it trains for about 80 s on a 2-core host, and ``demos/04`` exercises only
the quantile critic."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_walker_geometry.py", "02_link_budget.py", "03_event_simulation.py",
         "06_scenario_files.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
