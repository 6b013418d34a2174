"""Scenario-file walkthrough: dump the desk preset to YAML, reload it, show
the provenance hash, and print the CLI calls that consume it.

Run:  python3 demos/06_scenario_files.py
"""

import tempfile
from pathlib import Path

from leoroute.scenario import desk_scenario, load_scenario, save_scenario, scenario_hash

scenario = desk_scenario()
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "desk.yaml"
    save_scenario(scenario, path)
    print(f"wrote {path} ({path.stat().st_size} bytes), "
          f"hash {scenario_hash(scenario)}")
    print("-" * 60)
    print(path.read_text())
    print("-" * 60)

    again = load_scenario(path)
    assert scenario_hash(again) == scenario_hash(scenario)
    print("reload hash matches; unknown keys in the file would be rejected.")

print("""
CLI equivalents, with the scenario saved as desk.yaml:
  leoroute train --scenario desk.yaml --algo PRIMAL-CVaR --seed 1 --out runs/cvar
  leoroute eval  --checkpoint runs/cvar/checkpoint.npz --seeds 101,102 --out runs/cvar-eval
  leoroute eval  --baseline spf --scenario desk.yaml --seeds 101,102 --out runs/spf-eval
  leoroute compare runs/cvar-eval/report.json runs/spf-eval/report.json --out runs/cmp
""")
