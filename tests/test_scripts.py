"""The example scripts run end to end against the library in src/."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,outputs",
    [
        ("run_example_game.py", ["value_flow.csv", "equilibrium_run.csv", "risky_run.csv"]),
        (
            "export_reachability_data.py",
            [f"reach_t1_{t1}.csv" for t1 in ("0.5", "0.6", "0.75", "0.9")],
        ),
    ],
)
def test_script_runs(tmp_path, script, outputs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
