"""Run orchestration: induction runs, oracle runs, certificate re-analysis,
and the smallness-threshold bisection driver.

All outputs are deterministic for a fixed configuration: the same config and
seed give byte-identical CSVs on one machine with the same numpy and BLAS
build and BLAS thread count. Numeric CSV cells use the shortest round-trip
decimal representation, row order is fixed, and no timestamps are written.
Each CSV starts with a '# schema=' line.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

from . import certificates
from .checkpoint import load_field, save_field, write_atomic
from .config import RunConfig, format_value, generate_ic, read_config, write_config
from .errors import CheckpointError, ConfigError, ConvergenceError
from .fields import SpectralField, fmc_norm, phi_norm
from .induction import DecompositionState, induction_steps
from .params import SolverParams
from .picard import integer_time_deviations, picard_solve

__all__ = [
    "STATUS_OK",
    "STATUS_CONFIG_ERROR",
    "STATUS_FP_FAILURE",
    "STATUS_ORACLE_MISMATCH",
    "RunOutcome",
    "run",
    "run_oracle",
    "check_run",
    "bisect_delta",
    "NORM_SERIES_SCHEMA",
    "CERTIFICATES_SCHEMA",
]

STATUS_OK = 0
STATUS_CONFIG_ERROR = 1
STATUS_FP_FAILURE = 3
STATUS_ORACLE_MISMATCH = 4

NORM_SERIES_SCHEMA = "nstorus.norm_series.v1"
CERTIFICATES_SCHEMA = "nstorus.certificates.v1"
ORACLE_SERIES_SCHEMA = "nstorus.oracle_series.v1"
CHECK_REPORT_SCHEMA = "nstorus.check_report.v1"
BISECT_SCHEMA = "nstorus.bisect_delta.v1"

NORM_SERIES_COLUMNS = ("m", "t", "phi_norm", "fmc_norm_g", "fp_iterations")
CERTIFICATE_COLUMNS = tuple(f.name for f in fields(certificates.CertificateRecord))


def _write_csv(path: Path, schema: str, columns, rows) -> None:
    lines = [f"# schema={schema}", ",".join(columns)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_csv(path) -> tuple[str, list[str], list[list[str]]]:
    """Read back a schema-tagged CSV as (schema, columns, raw string rows)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ConfigError(f"{path}: missing schema line")
    schema = lines[0].split("=", 1)[1]
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return schema, columns, rows


@dataclass
class RunOutcome:
    status: int
    message: str
    records: list = field(default_factory=list)
    oracle_max_diff: float | None = None
    failed_step: int | None = None


def _start(config: RunConfig) -> tuple[Path, SolverParams, SpectralField]:
    """Build the initial velocity, then create the output directory and
    write run_config.cfg there, so a bad checkpoint leaves nothing behind;
    returns the directory, the solver parameters and the initial velocity."""
    v0 = generate_ic(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(config, out_dir / "run_config.cfg")
    return out_dir, config.solver_params(), v0


def run(config: RunConfig) -> RunOutcome:
    """Advance horizon_m unit intervals, writing norm series, certificates,
    optional field checkpoints, and (for short horizons) an oracle cross
    check against the direct Picard solver."""
    out_dir, params, v0 = _start(config)
    state = DecompositionState.initial(v0)

    norm_rows = []
    records = []
    integer_velocities = [v0]
    status = STATUS_OK
    message = "ok"
    failed_step = None
    try:
        for sol, state, record in induction_steps(state, params, config.horizon_m):
            phis = phi_norm(sol.velocity, params.alpha, axis=-1)
            fmcs = fmc_norm(sol.fixed_point.solution, state.m, params.decay_c, params.beta,
                            axis=-1)
            norm_rows.extend((state.m - 1, t, float(phi), float(fmc), record.fp_iterations)
                             for t, phi, fmc in zip(sol.times, phis, fmcs))
            records.append(record)
            integer_velocities.append(sol.velocity.last_slice())
    except ConvergenceError as exc:
        status = STATUS_FP_FAILURE
        failed_step = state.m
        message = f"fixed-point failure at step m={state.m}: {exc}"

    if "norm_series" in config.emit:
        _write_csv(out_dir / "norm_series.csv", NORM_SERIES_SCHEMA,
                   NORM_SERIES_COLUMNS, norm_rows)
    if "certificates" in config.emit:
        _write_csv(out_dir / "certificates.csv", CERTIFICATES_SCHEMA,
                   CERTIFICATE_COLUMNS, [astuple(r) for r in records])
    if status == STATUS_OK and "fields" in config.emit:
        fields_dir = out_dir / "fields"
        fields_dir.mkdir(exist_ok=True)
        save_field(v0, fields_dir / "c0.ckpt")
        for j, h in enumerate(state.gaussian_history, start=1):
            save_field(h, fields_dir / f"h_{j:04d}.ckpt")
        for j, g in enumerate(state.remainder_history, start=1):
            save_field(g, fields_dir / f"g_{j:04d}.ckpt")
        for m, v in enumerate(integer_velocities):
            save_field(v, fields_dir / f"v_{m:04d}.ckpt")

    oracle_max_diff = None
    if status == STATUS_OK and 0 < config.horizon_m <= config.oracle_horizon:
        try:
            trajectory = picard_solve(v0, float(config.horizon_m), params)
        except ConvergenceError as exc:
            return RunOutcome(STATUS_ORACLE_MISMATCH,
                              f"oracle solver failed to converge: {exc}", records)
        oracle_max_diff = float(integer_time_deviations(
            trajectory, integer_velocities, params.substeps).max())
        if oracle_max_diff > config.oracle_tol:
            status = STATUS_ORACLE_MISMATCH
            message = (f"oracle mismatch: max mode-wise deviation "
                       f"{oracle_max_diff:.3e} exceeds {config.oracle_tol:.3e}")
        else:
            message = (f"ok (oracle agreement {oracle_max_diff:.3e} "
                       f"<= {config.oracle_tol:.3e})")

    return RunOutcome(status, message, records, oracle_max_diff, failed_step)


def run_oracle(config: RunConfig) -> RunOutcome:
    """Picard-only run over horizon_m; writes oracle_series.csv."""
    out_dir, params, v0 = _start(config)
    try:
        trajectory = picard_solve(v0, float(config.horizon_m), params)
    except ConvergenceError as exc:
        return RunOutcome(STATUS_FP_FAILURE, f"oracle failed: {exc}")
    _write_csv(out_dir / "oracle_series.csv", ORACLE_SERIES_SCHEMA, ("t", "phi_norm"),
               zip(trajectory.times, phi_norm(trajectory, params.alpha, axis=-1)))
    return RunOutcome(STATUS_OK, f"ok ({trajectory.iterations_used} iterations, final "
                                 f"update {trajectory.final_update_norm:.3e})")


def _numbered(fields_dir: Path, prefix: str, first: int) -> list[Path]:
    """The files a run names prefix + f"{j:04d}.ckpt" for j = first,
    first + 1, ..., as many as there are prefix*.ckpt files; CheckpointError
    names the first one missing when those files are not exactly these."""
    present = {p.name for p in fields_dir.glob(prefix + "*.ckpt")}
    names = [f"{prefix}{j:04d}.ckpt" for j in range(first, first + len(present))]
    missing = [name for name in names if name not in present]
    if missing:
        stray = min(present.difference(names))
        raise CheckpointError(f"{fields_dir / missing[0]} is missing ({stray} is stray)")
    return [fields_dir / name for name in names]


def check_run(run_dir) -> RunOutcome:
    """Certificate-only re-analysis of a saved run's field checkpoints.

    Re-fits the per-age bound constants from the h_/g_ history files and
    recomputes the data-norm of each integer-time velocity checkpoint,
    writing check_report.csv next to the originals. Ages are read from the
    file names: a run writes one h_ and one g_ file per age 1..n and one v_
    file per time 0..n, so counts other than n, n and n + 1, a gap or a
    stray file raise CheckpointError, as do a missing run_config.cfg or
    fields directory and an unreadable checkpoint, and a run_config.cfg that
    read_config rejects raises ConfigError; nothing is written then.
    """
    run_dir = Path(run_dir)
    cfg_path = run_dir / "run_config.cfg"
    fields_dir = run_dir / "fields"
    if not cfg_path.is_file():
        raise CheckpointError(f"{cfg_path} not found")
    if not fields_dir.is_dir():
        raise CheckpointError(f"{fields_dir} not found (run with emit including 'fields')")
    config = read_config(cfg_path)
    params = config.solver_params()
    spec = config.lattice_spec()
    gauss_hist = [load_field(p, spec) for p in _numbered(fields_dir, "h_", 1)]
    rem_hist = [load_field(p, spec) for p in _numbered(fields_dir, "g_", 1)]
    velocities = [load_field(p, spec) for p in _numbered(fields_dir, "v_", 0)]
    if len(gauss_hist) != len(rem_hist):
        raise CheckpointError(f"{fields_dir} holds {len(gauss_hist)} h_*.ckpt but "
                              f"{len(rem_hist)} g_*.ckpt history files; a run writes one "
                              "of each per step")
    if len(velocities) != len(gauss_hist) + 1:
        raise CheckpointError(f"{fields_dir} holds {len(velocities)} v_*.ckpt snapshots for "
                              f"{len(gauss_hist)} history ages; a run writes one per time "
                              f"0..{len(gauss_hist)}")
    gauss_d = certificates.fit_gaussian_bound(gauss_hist, params)
    rem_d, rem_rate = certificates.fit_remainder_bound(rem_hist, params)
    phis = [phi_norm(v, params.alpha) for v in velocities]
    nan = [math.nan]  # time 0 has no history age
    rows = zip(range(len(velocities)), nan + list(gauss_d), nan + list(rem_d),
               nan + list(rem_rate), phis)
    _write_csv(run_dir / "check_report.csv", CHECK_REPORT_SCHEMA,
               ("j", "gaussian_D", "remainder_D", "remainder_decay", "phi_norm"),
               rows)
    envelope_ok = all(p <= 2 * config.delta for p in phis)
    message = (
        f"checked {len(gauss_hist)} history ages, {len(velocities)} snapshots; "
        f"max gaussian_D {gauss_d.max(initial=0.0):.6g}, "
        f"max remainder_D {rem_d.max(initial=0.0):.6g}, "
        f"phi envelope {'<= 2 delta' if envelope_ok else 'EXCEEDED'}"
    )
    return RunOutcome(STATUS_OK, message)


@dataclass
class BisectOutcome:
    delta_lo: float
    delta_hi: float
    rows: list
    message: str
    status: int = STATUS_OK


def bisect_delta(config: RunConfig, delta_lo: float = 1e-6, delta_hi: float = 1.0,
                 bisect_steps: int = 20, bisect_horizon: int = 50) -> BisectOutcome:
    """Bracket the largest smallness scale for which bisect_horizon steps
    converge; writes bisect_delta.csv rows (iteration, delta, converged)
    whatever the outcome."""
    if not 0 < delta_lo < delta_hi:
        raise ConfigError("need 0 < delta_lo < delta_hi")
    if bisect_steps < 0:
        raise ConfigError(f"bisect_steps must be >= 0, got {bisect_steps}")
    if bisect_horizon < 1:
        raise ConfigError(f"bisect_horizon must be >= 1, got {bisect_horizon}")
    rows = []

    def trial(iteration: int, delta: float) -> bool:
        """Run bisect_horizon steps at delta and record the verdict."""
        trial_config = replace(config, delta=delta, horizon_m=bisect_horizon)
        state = DecompositionState.initial(generate_ic(trial_config))
        try:
            for _ in induction_steps(state, trial_config.solver_params(), bisect_horizon):
                pass
            converged = True
        except ConvergenceError:
            converged = False
        rows.append((iteration, delta, converged))
        return converged

    lo, hi, status = delta_lo, delta_hi, STATUS_OK
    if not trial(0, delta_lo):
        status = STATUS_FP_FAILURE
        message = f"delta_lo={delta_lo!r} already fails to converge"
    elif trial(0, delta_hi):
        lo = delta_hi
        message = f"delta_hi={delta_hi!r} converges; threshold is above it"
    else:
        for i in range(1, bisect_steps + 1):
            mid = math.sqrt(lo * hi)  # bisect in log scale: the regimes span decades
            if trial(i, mid):
                lo = mid
            else:
                hi = mid
        message = (f"contraction threshold bracketed in [{lo!r}, {hi!r}] "
                   f"after {bisect_steps} bisection steps")

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "bisect_delta.csv", BISECT_SCHEMA,
               ("iteration", "delta", "converged"), rows)
    return BisectOutcome(lo, hi, rows, message, status)
