import errno
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from nstorus import CheckpointError, RunConfig, SpectralField, save_field
from nstorus.cli import main
from nstorus.lattice import LatticeSpec, get_lattice
from nstorus.runner import (
    NORM_SERIES_COLUMNS,
    NORM_SERIES_SCHEMA,
    STATUS_CONFIG_ERROR,
    STATUS_FP_FAILURE,
    STATUS_OK,
    bisect_delta,
    check_run,
    read_csv,
    run,
    run_oracle,
    _write_csv,
)


def small_config(tmp_path, **kw):
    base = dict(k_max=2, horizon_m=3, output_dir=str(tmp_path / "out"))
    base.update(kw)
    return RunConfig(**base)


ARTIFACT_WRITERS = {
    "csv": ("out/norm_series.csv", lambda path, tmp_path: _write_csv(
        path, NORM_SERIES_SCHEMA, NORM_SERIES_COLUMNS, [(1, 0.5, 1.25, 0.0, 3)] * 50)),
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


def test_run_oracle_cross_check(tmp_path):
    cfg = small_config(tmp_path, ic_kind="two_mode", horizon_m=2, oracle_horizon=3)
    outcome = run(cfg)
    assert outcome.status == STATUS_OK
    assert outcome.oracle_max_diff is not None
    assert outcome.oracle_max_diff <= cfg.oracle_tol


def test_run_oracle_mismatch_status(tmp_path):
    # an absurdly tight tolerance turns the tiny fixed-point-tolerance
    # discrepancy between the two solvers into a reported mismatch
    cfg = small_config(tmp_path, ic_kind="two_mode", horizon_m=2,
                       oracle_horizon=3, oracle_tol=1e-300)
    outcome = run(cfg)
    assert outcome.status == 4
    assert "oracle mismatch" in outcome.message


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
    with pytest.raises(CheckpointError, match=r"2 h_\*\.ckpt but 1 g_\*\.ckpt"):
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
    assert "3 v_*.ckpt snapshots for 3 history ages" in capsys.readouterr().err
    assert not (Path(cfg.output_dir) / "check_report.csv").exists()


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
    assert outcome.status == STATUS_OK
    assert "phi envelope EXCEEDED" in outcome.message
    _, _, rows = read_csv(Path(cfg.output_dir) / "check_report.csv")
    assert float(rows[1][4]) == pytest.approx(3 * cfg.delta, rel=1e-15)


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


@pytest.mark.parametrize("flag, value", [("--bisect-steps", "-1"), ("--bisect-horizon", "0")])
def test_cli_bisect_rejects_bad_arguments_by_name(flag, value, tmp_path, capsys):
    out = tmp_path / "bs_bad"
    code = main(["bisect-delta", "--k-max", "2", "--output-dir", str(out), flag, value])
    assert code == STATUS_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err == f"error: {flag[2:].replace('-', '_')} must be >= {int(value) + 1}, got {value}\n"
    assert not out.exists()
