import math
from pathlib import Path

import pytest

from nstorus import RunConfig, SpectralField, save_field
from nstorus.cli import main
from nstorus.lattice import LatticeSpec, get_lattice
from nstorus.runner import (
    STATUS_FP_FAILURE,
    STATUS_OK,
    bisect_delta,
    check_run,
    read_csv,
    run,
    run_oracle,
)


def small_config(tmp_path, **kw):
    base = dict(k_max=2, horizon_m=3, output_dir=str(tmp_path / "out"))
    base.update(kw)
    return RunConfig(**base)


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


def test_check_requires_fields(tmp_path):
    cfg = small_config(tmp_path)
    run(cfg)
    outcome = check_run(cfg.output_dir)
    assert outcome.status != STATUS_OK


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
