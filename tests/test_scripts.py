"""The experiment scripts run end to end on a tiny lattice."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("oracle_comparison.py", ["--horizon", "1"]),
    ("contraction_study.py", ["--horizon", "2"]),
    ("delta_threshold.py", ["--bisect-steps", "3", "--bisect-horizon", "2",
                            "--output-dir", "out"]),
])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--k-max", "2", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
