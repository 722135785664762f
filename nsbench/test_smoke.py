"""Smoke test of the benchmark itself: result schema, metric names and units,
tracer bindings, and refusal to run without sources. Tiny sizes (k_max 2,
horizon 1); no timing is asserted.

Run from the repository root: python3 -m pytest nsbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"k_max": "2", "horizon_m": "1"}
TINY_CHECK = {**run.CHECK_PASS, "k_max": "2", "horizon_m": "1", "oracle_horizon": "1"}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_result_schema_and_metric_names(workload, trace):
    spec = run.WORKLOADS[workload]
    tiny = {**spec, "config": {**spec["config"], **TINY}}
    # A name without recorded references: outputs are checked for finiteness.
    result, details = run.measure(f"smoke-{workload}", 7, 0.0, trace, ROOT,
                                  spec=tiny, check_pass=TINY_CHECK)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    json.loads(json.dumps(result, allow_nan=False))
    assert details["environment"]["seed"] == 7
    assert not details["unpinned_config_keys"]
    if trace and spec["solve"] != "oracle":
        assert len(details["step_profile"]["bilinear_calls"]) == int(TINY["horizon_m"])


def test_tracer_patches_every_binding_and_reports_absent(monkeypatch):
    import nstorus.induction
    import nstorus.operators
    import nstorus.picard

    original = nstorus.operators.star_product
    monkeypatch.delattr(nstorus.induction, "assemble_forcing")
    tracer = child.Tracer()
    tracer.install()
    try:
        wrapped = nstorus.operators.star_product
        assert wrapped is not original
        assert nstorus.induction.star_product is wrapped
        assert nstorus.picard.star_product is wrapped
        assert nstorus.star_product is wrapped
    finally:
        tracer.uninstall()
    assert "induction.assemble_forcing" in tracer.absent
    assert nstorus.picard.star_product is original
    assert nstorus.induction.star_product is original


def test_calibration_samples_during_interval_and_restores_signal():
    import signal
    import time

    calibration = child.Calibration()
    calibration.start()
    deadline = time.perf_counter() + 3 * child.CALIBRATION_PERIOD_S
    while time.perf_counter() < deadline:
        pass
    calibration.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(calibration.samples) >= calibration.MIN_SAMPLES
    assert 0 < calibration.spent < 3 * child.CALIBRATION_PERIOD_S
    assert calibration.scale() == child.CALIBRATION_REF_S / calibration.mean_s()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "nsbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "induction-k6",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
