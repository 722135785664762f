import errno
import math
import os
import re
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nstorus.induction
import nstorus.operators
import nstorus.runner
from nstorus import (CheckpointError, ConvergenceError, DecompositionState, RunConfig,
                     SolverParams, SpectralField, generate_ic, induction_steps, picard_solve,
                     save_field)
from nstorus.cli import main
from nstorus.config import read_config
from nstorus.lattice import LatticeSpec, get_lattice
from nstorus.picard import integer_time_deviations
from nstorus.runner import (
    STATUS_CHECK_FAILED,
    STATUS_CONFIG_ERROR,
    STATUS_FP_FAILURE,
    STATUS_OK,
    STATUS_ORACLE_MISMATCH,
    STATUS_WORKER_FAILURE,
    bisect_delta,
    check_run,
    read_csv,
    run,
    run_oracle,
    _write_csv,
)


ROOT = Path(__file__).resolve().parents[1]


def small_config(tmp_path, **kw):
    base = dict(k_max=2, horizon_m=3, output_dir=str(tmp_path / "out"))
    base.update(kw)
    return RunConfig(**base)


ARTIFACT_WRITERS = {
    "csv": ("out/norm_series.csv", lambda path, tmp_path: _write_csv(
        path.parent, "norm_series", [(1, 0.5, 1.25, 0.0, 3)] * 50)),
    "checkpoint": ("out/v.ckpt", lambda path, tmp_path: save_field(
        SpectralField(get_lattice(LatticeSpec(2)), np.ones((32, 3))), path)),
    "run config": ("out/run_config.cfg", lambda path, tmp_path: run(small_config(tmp_path))),
    "oracle run config": ("out/run_config.cfg",
                          lambda path, tmp_path: run_oracle(small_config(tmp_path))),
}


@pytest.mark.parametrize("writer", ARTIFACT_WRITERS)
def test_artifact_write_failing_halfway_leaves_no_file(writer, tmp_path, monkeypatch):
    name, write = ARTIFACT_WRITERS[writer]
    path = tmp_path / name
    path.parent.mkdir()
    real_write = os.write
    written = []

    def write_half_then_fail(fd, data):
        written.append(real_write(fd, bytes(data[: len(data) // 2])))
        raise OSError(errno.ENOSPC, "no space left on device")

    monkeypatch.setattr(os, "write", write_half_then_fail)
    with pytest.raises(OSError):
        write(path, tmp_path)
    monkeypatch.undo()
    assert written and written[0] > 0   # the failure came after a partial write
    assert not path.exists()
    assert list(path.parent.iterdir()) == []   # no temporary file either
    # and a write that completes leaves exactly the target
    write(path, tmp_path)
    assert path.is_file() and path.stat().st_size > 0
    assert not [p for p in path.parent.iterdir() if p.name.endswith(".tmp")]


def test_importing_the_package_loads_no_dataclasses():
    # the records are plain classes and NamedTuples: the dataclass
    # decorator's generated methods cost every command's set-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = "import nstorus, nstorus.runner, nstorus.cli, sys; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_records_and_fields_refuse_attribute_assignment(tmp_path):
    # each record and field kind, with one attribute it has
    cfg = small_config(tmp_path, horizon_m=1)
    v0 = generate_ic(cfg)
    state = DecompositionState.initial(v0)
    sol, _, record = next(induction_steps(state, cfg, 1))
    instances = {
        "SpectralField": (v0, "data"),
        "TimeSlicedField": (sol.velocity, "times"),
        "PicardTrajectory": (picard_solve(v0, 1.0, cfg), "update_norms"),
        "CertificateRecord": (record, "c1"),
        "FixedPointResult": (sol.fixed_point, "solution"),
        "IntervalSolution": (sol, "h"),
        "DecompositionState": (state, "m"),
        "_ConvKernel": (nstorus.operators.conv_kernel(v0.lattice), "rows"),
        "RunOutcome": (run(cfg), "status"),
        "BisectOutcome": (bisect_delta(cfg, bisect_steps=0, bisect_horizon=1), "delta_lo"),
        "LatticeSpec": (cfg.lattice_spec(), "k_max"),
        "SolverParams": (SolverParams(), "delta"),
        "RunConfig": (cfg, "delta"),
    }
    for name, (obj, attr) in instances.items():
        assert type(obj).__name__ == name
        before = getattr(obj, attr)
        for change in (lambda: setattr(obj, attr, None), lambda: setattr(obj, "extra", 1),
                       lambda: delattr(obj, attr)):
            with pytest.raises(AttributeError):
                change()
        assert getattr(obj, attr) is before and not hasattr(obj, "extra"), name
    # a cached property still fills in
    assert sol.velocity.slices[0].data.base is sol.velocity.data


def test_run_writes_artifacts_and_config(tmp_path):
    cfg = small_config(tmp_path)
    outcome = run(cfg)
    assert outcome.status == STATUS_OK
    out = Path(cfg.output_dir)
    assert (out / "run_config.cfg").is_file()
    schema, cols, rows = read_csv(out / "norm_series.csv")
    assert schema == "nstorus.norm_series.v1"
    assert cols == ["m", "t", "phi_norm", "fmc_norm_g", "fp_iterations"]
    assert len(rows) == cfg.horizon_m * (cfg.substeps + 1)
    schema, cols, rows = read_csv(out / "certificates.csv")
    assert schema == "nstorus.certificates.v1"
    assert len(rows) == cfg.horizon_m


def test_default_config_smoke_run(tmp_path):
    cfg = RunConfig(output_dir=str(tmp_path / "default"))
    outcome = run(cfg)
    assert outcome.status == STATUS_OK
    _, _, rows = read_csv(Path(cfg.output_dir) / "certificates.csv")
    assert len(rows) == cfg.horizon_m


def test_zero_ic_run_gives_all_zero_series(tmp_path):
    lat = get_lattice(LatticeSpec(2))
    ckpt = tmp_path / "zero.ckpt"
    save_field(SpectralField.zero(lat), ckpt)
    cfg = small_config(tmp_path, ic_kind="from_checkpoint", ic_checkpoint=str(ckpt),
                       horizon_m=4)
    outcome = run(cfg)
    assert outcome.status == STATUS_OK
    _, _, rows = read_csv(Path(cfg.output_dir) / "norm_series.csv")
    assert all(float(r[2]) == 0.0 and float(r[3]) == 0.0 for r in rows)


def test_single_mode_norm_series_is_heat_column(tmp_path):
    cfg = small_config(tmp_path, ic_kind="single_mode", horizon_m=10)
    outcome = run(cfg)
    assert outcome.status == STATUS_OK
    _, _, rows = read_csv(Path(cfg.output_dir) / "norm_series.csv")
    for r in rows:
        m, t, phi = int(r[0]), float(r[1]), float(r[2])
        if t == 0.0:
            assert phi == pytest.approx(cfg.delta * math.exp(-m), rel=1e-12)
    last = rows[-1]
    assert float(last[2]) == pytest.approx(cfg.delta * math.exp(-10), rel=1e-12)


def test_run_deterministic_byte_identical(tmp_path):
    cfg_a = small_config(tmp_path / "a", horizon_m=2)
    cfg_b = small_config(tmp_path / "b", horizon_m=2)
    run(cfg_a)
    run(cfg_b)
    for name in ("norm_series.csv", "certificates.csv", "run_config.cfg"):
        a = (Path(cfg_a.output_dir) / name).read_bytes()
        b = (Path(cfg_b.output_dir) / name).read_bytes()
        assert a.replace(cfg_a.output_dir.encode(), b"") == b.replace(
            cfg_b.output_dir.encode(), b"")


def oracle_agreement_rows(cfg):
    """oracle_agreement.csv of the run under cfg, checked for its schema
    and columns, as (m, max_deviation) pairs."""
    schema, cols, rows = read_csv(Path(cfg.output_dir) / "oracle_agreement.csv")
    assert (schema, cols) == ("nstorus.oracle_agreement.v1", ["m", "max_deviation"])
    return [(int(m), float(dev)) for m, dev in rows]


def test_run_oracle_cross_check(tmp_path):
    # oracle_agreement.csv holds one row per integer time 0..horizon_m: the
    # deviations of a fresh induction and Picard solve, bit for bit, whose
    # largest is the agreement run reports
    cfg = small_config(tmp_path, ic_kind="two_mode", horizon_m=2, oracle_horizon=3)
    outcome = run(cfg)
    assert outcome.status == STATUS_OK
    assert outcome.oracle_max_diff is not None
    assert outcome.oracle_max_diff <= cfg.oracle_tol
    assert outcome.message == f"ok (oracle agreement {outcome.oracle_max_diff:.3e} <= 1.000e-09)"
    v0 = generate_ic(cfg)
    velocities = [v0, *(sol.v for sol, _, _ in induction_steps(
        DecompositionState.initial(v0), cfg, cfg.horizon_m))]
    want = integer_time_deviations(picard_solve(v0, 2.0, cfg), velocities, cfg.substeps)
    rows = oracle_agreement_rows(cfg)
    assert rows == list(enumerate(want.tolist())) and len(rows) == 3
    assert max(dev for _, dev in rows) == outcome.oracle_max_diff


def test_run_oracle_mismatch_status(tmp_path):
    # an absurdly tight tolerance turns the tiny fixed-point-tolerance
    # discrepancy between the two solvers into a reported mismatch, whose
    # deviations are still written
    cfg = small_config(tmp_path, ic_kind="two_mode", horizon_m=2,
                       oracle_horizon=3, oracle_tol=1e-300)
    outcome = run(cfg)
    assert outcome.status == STATUS_ORACLE_MISMATCH
    assert "oracle mismatch" in outcome.message
    rows = oracle_agreement_rows(cfg)
    assert [m for m, _ in rows] == [0, 1, 2]
    assert max(dev for _, dev in rows) == outcome.oracle_max_diff > cfg.oracle_tol


def test_a_picard_failure_in_run_writes_no_oracle_agreement(tmp_path, monkeypatch):
    def failing(*args):
        raise ConvergenceError("injected")

    monkeypatch.setattr(nstorus.runner, "picard_solve", failing)
    cfg = small_config(tmp_path, horizon_m=2)
    outcome = run(cfg)
    assert outcome.status == STATUS_ORACLE_MISMATCH
    assert outcome.message == "oracle solver failed to converge: injected"
    assert sorted(p.name for p in Path(cfg.output_dir).iterdir()) == [
        "certificates.csv", "norm_series.csv", "run_config.cfg"]


def test_run_fixed_point_failure_status(tmp_path):
    cfg = small_config(tmp_path, delta=1.0, fp_max_iter=25)
    outcome = run(cfg)
    assert outcome.status == STATUS_FP_FAILURE
    assert "fixed-point failure" in outcome.message
    assert outcome.failed_step == 0
    # artifacts exist and contain no non-finite values
    _, _, rows = read_csv(Path(cfg.output_dir) / "norm_series.csv")
    assert all(math.isfinite(float(x)) for r in rows for x in r)


@pytest.mark.parametrize("delta, max_iter, how", [(0.3, 3, "did not converge within 3"),
                                                  (3.0, 25, "diverged after 7")])
def test_fixed_point_failure_names_the_last_ratio_once(delta, max_iter, how, tmp_path):
    outcome = run(small_config(tmp_path, delta=delta, fp_max_iter=max_iter, horizon_m=2))
    assert outcome.status == STATUS_FP_FAILURE
    assert outcome.message.startswith(f"fixed-point failure at step m=0: fixed-point "
                                      f"iteration {how}")
    assert outcome.message.count("last ratio") == 1


def test_fields_emit_and_check(tmp_path):
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=3)
    run(cfg)
    fields_dir = Path(cfg.output_dir) / "fields"
    assert (fields_dir / "c0.ckpt").is_file()
    assert len(list(fields_dir.glob("h_*.ckpt"))) == 3
    assert len(list(fields_dir.glob("g_*.ckpt"))) == 3
    assert len(list(fields_dir.glob("v_*.ckpt"))) == 4
    outcome = check_run(cfg.output_dir)
    assert outcome.status == STATUS_OK
    schema, cols, rows = read_csv(Path(cfg.output_dir) / "check_report.csv")
    assert schema == "nstorus.check_report.v1"
    assert cols[0] == "j"


def test_run_and_check_fit_without_lapack(tmp_path, monkeypatch):
    # the remainder fit takes its slope in closed form: np.polyfit would
    # page in about 1 MB of LAPACK code in every solve process
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    cfg = small_config(tmp_path, emit=frozenset({"certificates", "fields"}), horizon_m=2)
    assert run(cfg).status == STATUS_OK
    assert check_run(cfg.output_dir).status == STATUS_OK
    for name in ("certificates", "check_report"):
        _, cols, rows = read_csv(Path(cfg.output_dir) / f"{name}.csv")
        assert math.isfinite(float(rows[-1][cols.index("remainder_decay")]))


@pytest.mark.parametrize("solve", [run, run_oracle])
def test_a_solve_forks_the_convolution_worker_once(solve, tmp_path, lanes, monkeypatch):
    # on two lanes every call with two live slices has a worker; its first
    # mapping holds every later job of the solve (the run's cross-check
    # with the oracle included), so the worker is forked once, not again
    # for the first call with two right factors
    forks = []
    init = nstorus.operators._Worker.__init__

    def counting(self, size):
        forks.append(size)
        init(self, size)

    lanes(2)
    monkeypatch.setattr(nstorus.operators._Worker, "__init__", counting)
    assert solve(small_config(tmp_path, horizon_m=2)).status == STATUS_OK
    assert len(forks) == 1


def test_check_report_writes_plain_floats(tmp_path):
    # numpy scalars must be written as plain float literals, not reprs
    # such as "np.float64(1.25)"
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=2)
    run(cfg)
    assert check_run(cfg.output_dir).status == STATUS_OK
    text = (Path(cfg.output_dir) / "check_report.csv").read_text(encoding="ascii")
    assert "np." not in text
    _, _, rows = read_csv(Path(cfg.output_dir) / "check_report.csv")
    assert all(math.isfinite(float(x)) for x in rows[-1])


def test_check_rejects_mismatched_histories(tmp_path):
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=2)
    run(cfg)
    fields_dir = Path(cfg.output_dir) / "fields"
    (fields_dir / "g_0002.ckpt").unlink()
    with pytest.raises(CheckpointError, match=r"g_0002\.ckpt is missing"):
        check_run(cfg.output_dir)
    assert main(["check", cfg.output_dir]) == STATUS_CONFIG_ERROR
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


def test_check_rejects_a_gap_in_the_ages(tmp_path, capsys):
    # equal h_/g_ counts with age 2 missing: ages come from the file names,
    # so age 3 is not fitted as age 2
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=3)
    run(cfg)
    fields_dir = Path(cfg.output_dir) / "fields"
    (fields_dir / "h_0002.ckpt").unlink()
    (fields_dir / "g_0002.ckpt").unlink()
    assert main(["check", cfg.output_dir]) == STATUS_CONFIG_ERROR
    assert "h_0002.ckpt is missing" in capsys.readouterr().err
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


def test_check_rejects_a_missing_last_snapshot(tmp_path, capsys):
    # three ages need the snapshots at times 0..3: without v_0003 the report
    # would lose its last row
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=3)
    run(cfg)
    (Path(cfg.output_dir) / "fields" / "v_0003.ckpt").unlink()
    assert main(["check", cfg.output_dir]) == STATUS_CONFIG_ERROR
    assert "v_0003.ckpt is missing" in capsys.readouterr().err
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


def test_check_rejects_a_stray_age(tmp_path, capsys):
    # the age count comes from run_config.cfg: a fourth age beside a
    # three-step run is not fitted
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=3)
    run(cfg)
    fields_dir = Path(cfg.output_dir) / "fields"
    (fields_dir / "h_0004.ckpt").write_bytes((fields_dir / "h_0003.ckpt").read_bytes())
    assert main(["check", cfg.output_dir]) == STATUS_CONFIG_ERROR
    assert f"{fields_dir / 'h_0004.ckpt'} is stray" in capsys.readouterr().err
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


@pytest.mark.parametrize("removed, added, named", [
    (("h_0003", "g_0001", "v_0000"), (), "h_0003.ckpt is missing"),
    (("g_0002", "v_0000"), ("v_0009",), "g_0002.ckpt is missing"),
    (("v_0000",), ("g_0009",), "g_0009.ckpt is stray"),
    ((), ("v_0009", "h_0009"), "h_0009.ckpt is stray"),
], ids=["h before g and v", "g before v", "stray g before missing v", "stray h before v"])
def test_check_names_the_first_bad_file_in_prefix_order(removed, added, named, tmp_path,
                                                        capsys):
    # every name is checked before any file is read, h_ first, then g_ and v_
    cfg = small_config(tmp_path, emit=frozenset({"fields"}), horizon_m=3)
    run(cfg)
    fields_dir = Path(cfg.output_dir) / "fields"
    for name in removed:
        (fields_dir / f"{name}.ckpt").unlink()
    for name in added:
        (fields_dir / f"{name}.ckpt").write_bytes((fields_dir / "c0.ckpt").read_bytes())
    assert main(["check", cfg.output_dir]) == STATUS_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"error: {fields_dir / named}")
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


def test_check_rejects_an_unreadable_late_age_and_writes_no_report(tmp_path):
    # the ages are fitted one at a time: a bad file at age 17 of 20 still
    # stops the check before it writes anything
    cfg = small_config(tmp_path, emit=frozenset({"fields"}), horizon_m=20)
    run(cfg)
    ckpt = Path(cfg.output_dir) / "fields" / "g_0017.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-1])
    with pytest.raises(CheckpointError, match=r"g_0017\.ckpt: truncated"):
        check_run(cfg.output_dir)
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


STALE_RUN = ["run", "--k-max", "2", "--delta", "0.01", "--emit",
             "certificates,fields,norm_series", "--output-dir"]


def test_rerun_replaces_an_earlier_runs_fields(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main([*STALE_RUN, out, "--horizon-m", "6"]) == STATUS_OK
    assert main([*STALE_RUN, out, "--horizon-m", "3"]) == STATUS_OK
    assert len(list((tmp_path / "out" / "fields").glob("h_*.ckpt"))) == 3
    capsys.readouterr()
    assert main(["check", out]) == STATUS_OK
    assert capsys.readouterr().out.startswith("checked 3 history ages, 4 snapshots;")


def test_failed_rerun_leaves_no_earlier_fields_to_check(tmp_path, capsys):
    # the failed run's config says delta = 5: the earlier run's fields must
    # not be fitted under it
    out = str(tmp_path / "out")
    assert main([*STALE_RUN, out, "--horizon-m", "3"]) == STATUS_OK
    assert main([*STALE_RUN, out, "--horizon-m", "3", "--delta", "5"]) == STATUS_FP_FAILURE
    capsys.readouterr()
    assert main(["check", out]) == STATUS_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'out' / 'fields'} not found")
    assert not (tmp_path / "out" / "check_report.csv").exists()


def test_rerun_keeps_a_foreign_file_in_fields(tmp_path, capsys):
    # a run removes only the checkpoints an earlier run wrote; any other
    # entry of fields/ stays, and the run stops with an error
    out = tmp_path / "out"
    assert main([*STALE_RUN, str(out), "--horizon-m", "2"]) == STATUS_OK
    (out / "fields" / "notes.txt").write_text("mine")
    capsys.readouterr()
    assert main([*STALE_RUN, str(out), "--horizon-m", "3"]) == STATUS_CONFIG_ERROR
    assert "Directory not empty" in capsys.readouterr().err
    assert [p.name for p in (out / "fields").iterdir()] == ["notes.txt"]
    assert (out / "fields" / "notes.txt").read_text() == "mine"
    assert "horizon_m = 2" in (out / "run_config.cfg").read_text()   # not rewritten


def test_run_removes_the_staging_directory_of_a_killed_run(tmp_path, capsys):
    # a run killed while it streams its checkpoints leaves .fields.tmp,
    # possibly with a write_atomic temporary in it; the next run clears it
    out = tmp_path / "out"
    staging = out / ".fields.tmp"
    staging.mkdir(parents=True)
    (staging / "c0.ckpt").write_bytes(b"old")
    (staging / ".h_0001.ckpt.0123abcd.tmp").write_bytes(b"part")
    assert main([*STALE_RUN, str(out), "--horizon-m", "2", "--emit", "norm_series"]) == STATUS_OK
    assert not staging.exists() and not (out / "fields").exists()


def test_rerun_and_oracle_leave_only_their_own_outputs(tmp_path, capsys):
    # run, oracle and bisect-delta remove every CSV and checkpoint an
    # earlier command left, so none sits beside a config it was not
    # written under
    out = tmp_path / "out"
    assert main([*STALE_RUN, str(out), "--horizon-m", "4"]) == STATUS_OK
    assert main(["check", str(out)]) == STATUS_OK
    assert main([*STALE_RUN, str(out), "--horizon-m", "2", "--emit", "norm_series"]) == STATUS_OK
    assert sorted(p.name for p in out.iterdir()) == ["norm_series.csv", "oracle_agreement.csv",
                                                     "run_config.cfg"]
    assert main(["oracle", "--k-max", "2", "--horizon-m", "1", "--output-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["oracle_series.csv", "run_config.cfg"]
    assert main([*STALE_RUN, str(out), "--horizon-m", "2"]) == STATUS_OK
    assert main(["bisect-delta", "--k-max", "3", "--rng-seed", "5", "--output-dir", str(out),
                 "--bisect-steps", "1", "--bisect-horizon", "2"]) == STATUS_OK
    assert sorted(p.name for p in out.iterdir()) == ["bisect_delta.csv", "run_config.cfg"]
    cfg = read_config(out / "run_config.cfg")
    assert (cfg.k_max, cfg.rng_seed, cfg.horizon_m) == (3, 5, 2)


def test_run_refuses_a_fields_symlink_and_removes_nothing(tmp_path, capsys):
    # the checkpoints a symlinked fields/ points at are not this directory's
    target = tmp_path / "elsewhere" / "fields"
    assert main([*STALE_RUN, str(target.parent), "--horizon-m", "1"]) == STATUS_OK
    files = {p.name: p.read_bytes() for p in target.iterdir()}
    assert sorted(files) == ["c0.ckpt", "g_0001.ckpt", "h_0001.ckpt",
                             "v_0000.ckpt", "v_0001.ckpt"]
    out = tmp_path / "out"
    out.mkdir()
    (out / "fields").symlink_to(target, target_is_directory=True)
    capsys.readouterr()
    code = main(["run", "--k-max", "2", "--horizon-m", "1", "--output-dir", str(out),
                 "--emit", "certificates"])
    assert code == STATUS_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out / 'fields'} ")
    assert {p.name: p.read_bytes() for p in target.iterdir()} == files
    assert not (out / "run_config.cfg").exists()


def test_run_refuses_a_fields_file_before_any_step(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "fields").write_text("mine")
    monkeypatch.setattr(nstorus.runner, "induction_steps", None)   # no step may run
    code = main(["run", "--k-max", "2", "--horizon-m", "1", "--output-dir", str(out),
                 "--emit", "fields,certificates"])
    assert code == STATUS_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"error: {out / 'fields'} ")
    assert (out / "fields").read_text() == "mine"
    assert sorted(p.name for p in out.iterdir()) == ["fields"]


@pytest.mark.parametrize("error", [ConvergenceError("injected"), KeyboardInterrupt()],
                         ids=["convergence", "interrupt"])
def test_a_run_failing_at_step_2_leaves_no_fields(error, tmp_path, monkeypatch):
    # checkpoints are streamed into a temporary directory that only a
    # converged run renames to fields/
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=4)
    out = Path(cfg.output_dir)
    solve = nstorus.induction.solve_remainder
    staged = []

    def failing_at_step_2(forcing, total, params, m_next):
        if m_next == 3:
            staged.extend(p.name for p in out.glob(".fields.tmp/*.ckpt"))
            raise error
        return solve(forcing, total, params, m_next)

    monkeypatch.setattr(nstorus.induction, "solve_remainder", failing_at_step_2)
    if isinstance(error, ConvergenceError):
        outcome = run(cfg)
        assert (outcome.status, outcome.failed_step) == (STATUS_FP_FAILURE, 2)
    else:
        with pytest.raises(KeyboardInterrupt):
            run(cfg)
    assert sorted(staged) == ["c0.ckpt", "g_0001.ckpt", "g_0002.ckpt", "h_0001.ckpt",
                              "h_0002.ckpt", "v_0000.ckpt", "v_0001.ckpt", "v_0002.ckpt"]
    assert not (out / "fields").exists()
    assert not [p for p in out.iterdir() if p.name.startswith(".")]  # nor a temporary one


def test_a_dead_worker_ends_a_run_with_its_own_status(tmp_path, lanes, monkeypatch, capsys):
    # the convolution's worker killed at the run's 10th convolution call:
    # main returns 6, with the run's message and no traceback, the CSVs
    # hold exactly the rows of the steps that finished, and no fields/ or
    # staging directory is left
    args = ["run", "--k-max", "4", "--horizon-m", "3", "--emit",
            "certificates,norm_series,fields", "--output-dir"]
    ref = tmp_path / "ref"
    assert main([*args, str(ref)]) == STATUS_OK
    lanes(2)
    bilinear, steps = nstorus.operators.bilinear, nstorus.runner.induction_steps
    calls, finished = [], []

    def killing(*a, **kw):
        calls.append(None)
        if len(calls) == 10:
            os.kill(nstorus.operators._workers[0].pid, signal.SIGKILL)
        return bilinear(*a, **kw)

    def counted(*a):
        for step in steps(*a):
            finished.append(step[1].m)
            yield step

    monkeypatch.setattr(nstorus.operators, "bilinear", killing)
    monkeypatch.setattr(nstorus.runner, "induction_steps", counted)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*args, str(out)]) == STATUS_WORKER_FAILURE
    printed = capsys.readouterr()
    assert printed.err == ""
    assert re.fullmatch(rf"convolution worker failure at step m={len(finished)}: the "
                        r"convolution's worker process \d+ was killed by signal 9\n",
                        printed.out)
    assert 1 <= len(finished) < 3
    # one certificates row per step, and one norm_series row per substep time
    for name, rows_per_step in (("certificates", 1), ("norm_series", 9)):
        _, _, rows = read_csv(out / f"{name}.csv")
        _, _, ref_rows = read_csv(ref / f"{name}.csv")
        assert rows == ref_rows[:rows_per_step * len(finished)]
    assert sorted(p.name for p in out.iterdir()) == [
        "certificates.csv", "norm_series.csv", "run_config.cfg"]
    assert not nstorus.operators._workers   # reaped; the next call forks a fresh one


def test_long_run_past_the_underflow_of_the_squared_norm(tmp_path):
    # on the step from m = 187 the remainder iterate's squared norm
    # underflows to 0.0; the run and its streamed checkpoints go on to 200
    cfg = small_config(tmp_path, delta=0.03, horizon_m=200,
                       emit=frozenset({"certificates", "fields"}))
    assert run(cfg).status == STATUS_OK
    _, _, rows = read_csv(Path(cfg.output_dir) / "certificates.csv")
    assert [int(r[0]) for r in rows] == list(range(1, 201))
    assert float(rows[-1][7]) == 0.0   # c3: the quadratic term underflowed
    outcome = check_run(cfg.output_dir)
    assert outcome.status == STATUS_OK
    assert outcome.message.startswith("checked 200 history ages, 201 snapshots;")


def _poison_first_value(path):
    """Overwrite the real part of the first record's first component with nan."""
    blob = bytearray(path.read_bytes())
    blob[44:52] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(blob))


def test_check_rejects_a_non_finite_checkpoint(tmp_path, capsys):
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=2)
    run(cfg)
    ckpt = Path(cfg.output_dir) / "fields" / "g_0001.ckpt"
    _poison_first_value(ckpt)
    assert main(["check", cfg.output_dir]) == STATUS_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ckpt}: non-finite value in the records\n"
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


def test_check_rejects_an_undecodable_run_config(tmp_path, capsys):
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=1)
    run(cfg)
    cfg_path = Path(cfg.output_dir) / "run_config.cfg"
    cfg_path.write_bytes(cfg_path.read_bytes() + b"# \xff\n")
    assert main(["check", cfg.output_dir]) == STATUS_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg_path}: not UTF-8")
    assert captured.err.count("\n") == 1
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


def test_check_flags_phi_envelope_excess(tmp_path):
    cfg = small_config(tmp_path, emit=frozenset({"norm_series", "certificates", "fields"}),
                       horizon_m=2)
    run(cfg)
    assert "phi envelope <= 2 delta" in check_run(cfg.output_dir).message
    lat = get_lattice(cfg.lattice_spec())
    big = SpectralField.from_modes(lat, {(1, 0, 0): (0.0, 3 * cfg.delta, 0.0)})
    save_field(big, Path(cfg.output_dir) / "fields" / "v_0001.ckpt")
    outcome = check_run(cfg.output_dir)
    assert outcome.status == STATUS_CHECK_FAILED == 5
    assert "phi envelope EXCEEDED" in outcome.message
    _, _, rows = read_csv(Path(cfg.output_dir) / "check_report.csv")
    assert float(rows[1][4]) == pytest.approx(3 * cfg.delta, rel=1e-15)
    assert main(["check", cfg.output_dir]) == STATUS_CHECK_FAILED


def test_check_requires_fields(tmp_path, capsys):
    cfg = small_config(tmp_path)
    run(cfg)
    with pytest.raises(CheckpointError, match="fields not found"):
        check_run(cfg.output_dir)
    with pytest.raises(CheckpointError, match="run_config.cfg not found"):
        check_run(tmp_path)
    assert main(["check", cfg.output_dir]) == STATUS_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


def test_oracle_run_writes_series(tmp_path):
    cfg = small_config(tmp_path, ic_kind="single_mode", horizon_m=2)
    outcome = run_oracle(cfg)
    assert outcome.status == STATUS_OK
    schema, cols, rows = read_csv(Path(cfg.output_dir) / "oracle_series.csv")
    assert cols == ["t", "phi_norm"]
    assert len(rows) == 2 * cfg.substeps + 1
    phi0 = float(rows[0][1])
    assert phi0 == pytest.approx(cfg.delta)


def test_bisect_delta_brackets_threshold(tmp_path):
    cfg = small_config(tmp_path, fp_max_iter=25)
    outcome = bisect_delta(cfg, delta_lo=1e-4, delta_hi=1.0,
                           bisect_steps=4, bisect_horizon=2)
    assert outcome.status == STATUS_OK
    assert 1e-4 <= outcome.delta_lo < outcome.delta_hi <= 1.0
    _, _, rows = read_csv(Path(cfg.output_dir) / "bisect_delta.csv")
    assert len(rows) >= 4


BISECT_CASES = {
    # delta_lo fails: only its trial is run and written
    "delta_lo fails": ((0.5, 1.0, 5), (0.5, 1.0, STATUS_FP_FAILURE), [(0, 0.5, False)]),
    # delta_hi converges: the threshold lies above the range
    "delta_hi converges": ((1e-6, 1e-3, 25), (1e-3, 1e-3, STATUS_OK),
                           [(0, 1e-6, True), (0, 1e-3, True)]),
    # bracketed: log-scale midpoints, both verdicts among them
    "bracketed": ((1e-4, 1.0, 10), (0.1778279410038923, 0.31622776601683794, STATUS_OK),
                  [(0, 1e-4, True), (0, 1.0, False), (1, 0.01, True), (2, 0.1, True),
                   (3, 0.31622776601683794, False), (4, 0.1778279410038923, True)]),
}


@pytest.mark.parametrize("case", BISECT_CASES)
def test_bisect_delta_outcomes(case, tmp_path):
    (lo, hi, max_iter), expected, rows = BISECT_CASES[case]
    cfg = small_config(tmp_path, fp_max_iter=max_iter)
    outcome = bisect_delta(cfg, delta_lo=lo, delta_hi=hi, bisect_steps=4, bisect_horizon=2)
    assert (outcome.delta_lo, outcome.delta_hi, outcome.status) == expected
    assert outcome.rows == rows
    _, _, written = read_csv(Path(cfg.output_dir) / "bisect_delta.csv")
    assert written == [[str(i), repr(d), str(ok).lower()] for i, d, ok in rows]


# -- command-line surface -----------------------------------------------------------

def test_cli_run_and_flags(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["run", "--k-max", "2", "--horizon-m", "2",
                 "--ic-kind", "single_mode", "--output-dir", str(out)])
    assert code == 0
    assert (out / "norm_series.csv").is_file()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("k_max = 2\nhorizon_m = 5\nic_kind = single_mode\n")
    out = tmp_path / "cli2"
    code = main(["run", "--config", str(cfg_file), "--horizon-m", "2",
                 "--output-dir", str(out)])
    assert code == 0
    _, _, rows = read_csv(out / "certificates.csv")
    assert len(rows) == 2  # the flag overrode the file


def test_cli_rejects_a_lattice_too_large_for_the_gather_table(tmp_path, capsys):
    # refused from the spec, before the lattice's index cube is built
    out = tmp_path / "out"
    assert main(["run", "--k-max", "1000000", "--output-dir", str(out)]) == STATUS_CONFIG_ERROR
    assert capsys.readouterr().err == ("error: the euclidean_ball lattice at k_max 1000000 "
                                       "has more than 65535 sites\n")
    assert not out.exists()


def test_cli_rejects_an_undecodable_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"k_max = 2\n# \xff\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_file), "--output-dir", str(out)])
    assert code == STATUS_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_file}: not UTF-8") and err.count("\n") == 1
    assert not out.exists()


def test_cli_run_and_check_a_non_ascii_output_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("NSTORUS_OUTPUT_DIR", raising=False)
    out = tmp_path / "runé"
    assert main(["run", "--k-max", "2", "--horizon-m", "2", "--emit",
                 "norm_series,certificates,fields", "--output-dir", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    assert (out / "check_report.csv").is_file()


def test_cli_env_output_dir_override(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("NSTORUS_OUTPUT_DIR", str(target))
    code = main(["run", "--k-max", "2", "--horizon-m", "1",
                 "--ic-kind", "single_mode", "--output-dir", str(tmp_path / "ignored")])
    assert code == 0
    assert target.is_dir()
    assert not (tmp_path / "ignored").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = main(["run", "--epsilon", "0.4", "--output-dir", str(tmp_path / "x")])
    assert code == 1
    assert "3*epsilon" in capsys.readouterr().err


def _foreign_checkpoint(path):
    save_field(SpectralField.from_modes(get_lattice(LatticeSpec(2)),
                                        {(1, 0, 0): (0.0, 1e-3, 0.0)}), path)


def _truncated_checkpoint(path):
    _foreign_checkpoint(path)
    path.write_bytes(path.read_bytes()[:-1])


def _non_finite_checkpoint(path):
    save_field(SpectralField.from_modes(get_lattice(LatticeSpec(3)),
                                        {(1, 0, 0): (0.0, 1e-3, 0.0)}), path)
    _poison_first_value(path)


@pytest.mark.parametrize("make", [_foreign_checkpoint, _truncated_checkpoint, Path.mkdir,
                                  _non_finite_checkpoint],
                         ids=["lattice mismatch", "truncated", "directory", "non-finite"])
def test_cli_bad_ic_checkpoint_exit_code(make, tmp_path, capsys):
    # exit 1 with one error line, and no output directory left behind
    ckpt = tmp_path / "c0.ckpt"
    make(ckpt)
    out = tmp_path / "out"
    code = main(["run", "--k-max", "3", "--ic-kind", "from_checkpoint",
                 "--ic-checkpoint", str(ckpt), "--horizon-m", "1", "--output-dir", str(out)])
    assert code == STATUS_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_fp_failure_exit_code(tmp_path):
    code = main(["run", "--k-max", "2", "--delta", "1.0", "--fp-max-iter", "25",
                 "--output-dir", str(tmp_path / "fail")])
    assert code == 3


def test_cli_run_at_a_delta_whose_squares_overflow(tmp_path, capsys):
    # the initial field is not zeroed by an inf norm: the solve starts from
    # it and diverges, and the parts that overflow on the way exit 3 with no
    # numpy warning
    assert main(["run", "--k-max", "2", "--horizon-m", "2", "--delta", "1e155",
                 "--output-dir", str(tmp_path / "out")]) == STATUS_FP_FAILURE
    assert capsys.readouterr().out.startswith("fixed-point failure at step m=0:")


def test_cli_run_a_converging_step_at_a_delta_whose_square_overflows(tmp_path):
    # a single mode does not interact with itself, so its step converges at
    # any delta; the remainder fit divides by delta^2 without forming it
    out = tmp_path / "out"
    assert main(["run", "--ic-kind", "single_mode", "--delta", "1e155", "--k-max", "2",
                 "--horizon-m", "1", "--oracle-horizon", "0", "--emit", "certificates",
                 "--output-dir", str(out)]) == STATUS_OK
    _, columns, rows = read_csv(out / "certificates.csv")
    assert len(rows) == 1
    assert math.isfinite(float(rows[0][columns.index("remainder_D")]))


@pytest.mark.parametrize("command, delta", [
    ("run", "1e-160"), ("run", "1e-170"), ("run", "1e-300"), ("bisect-delta", "1e-170"),
], ids=["1e-160", "1e-170", "1e-300", "bisect-delta"])
def test_cli_run_at_a_tiny_delta_whose_square_is_subnormal(command, delta, tmp_path):
    # the remainder fit divides by delta twice: delta^2 is subnormal at
    # 1e-160 and 0.0 below about 1.57e-162
    out = tmp_path / "out"
    if command == "bisect-delta":
        argv = ["--delta-lo", delta, "--bisect-steps", "1", "--bisect-horizon", "1"]
    else:
        argv = ["--delta", delta, "--horizon-m", "2", "--emit", "certificates"]
    assert main([command, "--k-max", "2", *argv, "--output-dir", str(out)]) == STATUS_OK
    if command == "bisect-delta":
        _, _, rows = read_csv(out / "bisect_delta.csv")
        assert rows[0][1:] == [delta, "true"]
        return
    _, columns, rows = read_csv(out / "certificates.csv")
    ds = [float(row[columns.index("remainder_D")]) for row in rows]
    assert len(ds) == 2 and all(math.isfinite(d) for d in ds)
    if delta == "1e-170":
        assert ds == [0.0, 0.0]   # the remainder underflows to zero


def test_cli_check_and_oracle(tmp_path):
    out = tmp_path / "full"
    assert main(["run", "--k-max", "2", "--horizon-m", "2", "--emit",
                 "norm_series,certificates,fields", "--output-dir", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    assert main(["oracle", "--k-max", "2", "--horizon-m", "1",
                 "--ic-kind", "single_mode", "--output-dir", str(out)]) == 0
    assert (out / "oracle_series.csv").is_file()


def test_cli_bisect_subcommand(tmp_path):
    out = tmp_path / "bs"
    code = main(["bisect-delta", "--k-max", "2", "--fp-max-iter", "25",
                 "--output-dir", str(out),
                 "--delta-lo", "1e-4", "--delta-hi", "1.0",
                 "--bisect-steps", "3", "--bisect-horizon", "2"])
    assert code == 0
    assert (out / "bisect_delta.csv").is_file()


def test_cli_bisect_writes_rows_when_delta_lo_fails(tmp_path):
    out = tmp_path / "bs_fail"
    code = main(["bisect-delta", "--k-max", "2", "--fp-max-iter", "5",
                 "--output-dir", str(out), "--delta-lo", "0.5", "--delta-hi", "1.0",
                 "--bisect-steps", "3", "--bisect-horizon", "2"])
    assert code == STATUS_FP_FAILURE
    schema, cols, rows = read_csv(out / "bisect_delta.csv")
    assert schema == "nstorus.bisect_delta.v1"
    assert cols == ["iteration", "delta", "converged"]
    assert rows == [["0", "0.5", "false"]]


def test_cli_bisect_rejects_checkpoint_data(tmp_path, capsys):
    # a checkpoint's data does not scale with delta, so every trial would
    # solve the same problem and the bracket would measure nothing
    ckpt = tmp_path / "v.ckpt"
    save_field(SpectralField(get_lattice(LatticeSpec(2)), np.full((32, 3), 1e-3)), ckpt)
    out = tmp_path / "bs_ckpt"
    code = main(["bisect-delta", "--k-max", "2", "--ic-kind", "from_checkpoint",
                 "--ic-checkpoint", str(ckpt), "--output-dir", str(out),
                 "--bisect-steps", "3", "--bisect-horizon", "2"])
    assert code == STATUS_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "ic_kind" in err[0]
    assert not (out / "bisect_delta.csv").exists()


def test_cli_bisect_rejects_an_infinite_delta_hi_before_any_trial(tmp_path, capsys,
                                                                   monkeypatch):
    out = tmp_path / "bs_inf"
    monkeypatch.setattr(nstorus.runner, "induction_steps", None)   # no trial may run
    code = main(["bisect-delta", "--k-max", "2", "--bisect-steps", "2", "--bisect-horizon", "3",
                 "--delta-hi", "inf", "--output-dir", str(out)])
    assert code == STATUS_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "delta_hi" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--bisect-steps", "-1"), ("--bisect-horizon", "0")])
def test_cli_bisect_rejects_bad_arguments_by_name(flag, value, tmp_path, capsys):
    out = tmp_path / "bs_bad"
    code = main(["bisect-delta", "--k-max", "2", "--output-dir", str(out), flag, value])
    assert code == STATUS_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err == f"error: {flag[2:].replace('-', '_')} must be >= {int(value) + 1}, got {value}\n"
    assert not out.exists()
