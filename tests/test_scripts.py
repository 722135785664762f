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
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script),
         "--k-max", "2", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_code_lines_counts_each_module_and_the_total(tmp_path):
    (tmp_path / "sample.py").write_text(
        '"""Module docstring,\nover two lines."""\n\n# a comment\n'
        'def f(x):\n    """One line."""\n    return (x +  # trailing comment\n            1)\n')
    (tmp_path / "empty.py").write_text("")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"),
                           str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["     0  empty.py", "     3  sample.py", "     3  total", ""]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py")],
                          capture_output=True, text=True, timeout=60)
    lines = proc.stdout.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == sorted(
        p.name for p in (ROOT / "src" / "nstorus").glob("*.py"))
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
