"""The experiment scripts run end to end on a tiny lattice."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nstorus import SpectralField
from nstorus.checkpoint import load_field, save_field

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("oracle_comparison.py", ["--horizon", "1"]),
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


@pytest.fixture(scope="module")
def seed5_tree(tmp_path_factory):
    """workload_outputs.py's tree for seed 5, and the finished process."""
    cwd = tmp_path_factory.mktemp("workloads")
    return run_script("workload_outputs.py", "out", "--seed", "5", cwd=cwd), cwd / "out"


def test_workload_outputs_writes_every_output_of_the_benchmark_runs(seed5_tree):
    proc, out = seed5_tree
    assert proc.returncode == 0, proc.stderr
    expected = {"outcomes.txt", "oracle-k4-long/seed-5/run_config.cfg",
                "oracle-k4-long/seed-5/oracle_series.csv"}
    for name, horizon in (("induction-k6", 1), ("induction-k4-long", 24), ("check-pass", 3)):
        run_dir = f"{name}/seed-5"
        expected.update(f"{run_dir}/{file}" for file in (
            "run_config.cfg", "norm_series.csv", "certificates.csv", "check_report.csv",
            "fields/c0.ckpt", "fields/v_0000.ckpt"))
        expected.update(f"{run_dir}/fields/{prefix}{j:04d}.ckpt"
                        for prefix in ("h_", "g_", "v_") for j in range(1, horizon + 1))
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == expected
    config = (out / "check-pass" / "seed-5" / "run_config.cfg").read_text(encoding="utf-8")
    assert "output_dir = check-pass/seed-5\n" in config and "rng_seed = 5\n" in config
    outcomes = (out / "outcomes.txt").read_text(encoding="utf-8")
    assert outcomes == "".join(line + "\n" for line in proc.stdout.splitlines())
    assert re.search(r"^oracle-k4-long/seed-5: ok \(\d+ iterations", outcomes, re.M)


def edit_cell(path, row, column, edit):
    """Replace one cell of a schema-tagged CSV by edit(cell)."""
    lines = path.read_text(encoding="ascii").splitlines()
    col = lines[1].split(",").index(column)
    cells = lines[2 + row].split(",")
    cells[col] = edit(cells[col])
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def test_workload_outputs_compares_against_another_tree(seed5_tree, tmp_path):
    _, tree = seed5_tree
    shutil.copytree(tree, tmp_path / "same")
    proc = run_script("workload_outputs.py", "new", "--seed", "5", "--against", "same",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "DIFFERS" not in proc.stdout
    assert "  certificates.csv c1: 0.0e+00 (" in proc.stdout
    assert "  induction-k6/seed-5/fields/g_0001.ckpt: 0.0e+00\n" in proc.stdout

    other = tmp_path / "other"
    shutil.copytree(tree, other)
    run_dir = other / "induction-k4-long" / "seed-5"
    edit_cell(run_dir / "certificates.csv", 0, "fp_iterations", lambda c: str(int(c) + 1))
    edit_cell(run_dir / "certificates.csv", 1, "c1", lambda c: repr(float(c) * (1 + 1e-14)))
    edit_cell(run_dir / "norm_series.csv", 2, "phi_norm", lambda c: repr(float(c) * (1 + 1e-10)))
    g = load_field(run_dir / "fields" / "g_0003.ckpt")
    data = g.data.copy()
    site = np.flatnonzero(g.magnitudes())[0]
    data[site] = 0.0
    data[site + 1] *= 1 + 1e-9
    save_field(SpectralField(g.lattice, data), run_dir / "fields" / "g_0003.ckpt")
    (run_dir / "fields" / "v_0024.ckpt").unlink()
    outcomes = other / "outcomes.txt"
    outcomes.write_text(re.sub(r"\((\d+) iterations", lambda m: f"({int(m[1]) + 1} iterations",
                               outcomes.read_text(encoding="utf-8")), encoding="utf-8")
    proc = run_script("workload_outputs.py", "new", "--seed", "5", "--against", "other",
                      cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differs = [line for line in proc.stdout.splitlines() if line.startswith("DIFFERS: ")]
    name = "induction-k4-long/seed-5"
    assert len(differs) == 5, proc.stdout
    assert any(f"{name}/certificates.csv row 1: fp_iterations" in d for d in differs)
    assert any(f"{name}/fields/g_0003.ckpt: support changed at 1 sites" in d for d in differs)
    assert any(f"{name}/fields/v_0024.ckpt: only in" in d for d in differs)
    assert any("Picard iterations" in d for d in differs)
    assert any(f"{name}/norm_series.csv phi_norm: cells 1.0e-10 apart" in d for d in differs)
    assert re.search(rf"  {name}/fields/g_0003.ckpt: 1.0e-09, support changed", proc.stdout)
    c1 = re.search(r"^  certificates.csv c1: (\S+) \(", proc.stdout, re.M)
    assert 0.9e-14 < float(c1[1]) < 1.1e-14   # reported, within RTOL


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
