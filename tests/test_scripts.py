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
    proc = run_script(script, "--k-max", "2", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def run_script(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_workload_outputs_writes_every_output_of_the_benchmark_runs(tmp_path):
    proc = run_script("workload_outputs.py", "out", "--seed", "5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    expected = {"oracle-k4-long/seed-5/run_config.cfg", "oracle-k4-long/seed-5/oracle_series.csv"}
    for name, horizon in (("induction-k6", 1), ("induction-k4-long", 24), ("check-pass", 3)):
        run_dir = f"{name}/seed-5"
        expected.update(f"{run_dir}/{file}" for file in (
            "run_config.cfg", "norm_series.csv", "certificates.csv", "check_report.csv",
            "fields/c0.ckpt", "fields/v_0000.ckpt"))
        expected.update(f"{run_dir}/fields/{prefix}{j:04d}.ckpt"
                        for prefix in ("h_", "g_", "v_") for j in range(1, horizon + 1))
    out = tmp_path / "out"
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == expected
    config = (out / "check-pass" / "seed-5" / "run_config.cfg").read_text(encoding="utf-8")
    assert "output_dir = check-pass/seed-5\n" in config and "rng_seed = 5\n" in config


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
