"""Run orchestration: induction runs, oracle runs, certificate re-analysis,
and the smallness-threshold bisection driver.

All outputs are deterministic for a fixed configuration: the same config and
seed give byte-identical CSVs on one machine with the same numpy and BLAS
build and BLAS thread count. Numeric CSV cells use the shortest round-trip
decimal representation, row order is fixed, and no timestamps are written.
Each CSV starts with a '# schema=' line; CSVS names them all.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import NamedTuple

from . import certificates
from .checkpoint import load_field, save_field, temporary_name, write_atomic
from .config import RunConfig, format_value, generate_ic, read_config, write_config
from .errors import CheckpointError, ConfigError, ConvergenceError, WorkerError
from .fields import SpectralField, fmc_norm, phi_norm
from .induction import DecompositionState, induction_steps
from .picard import integer_time_deviations, picard_solve

__all__ = [
    "STATUS_OK",
    "STATUS_CONFIG_ERROR",
    "STATUS_FP_FAILURE",
    "STATUS_ORACLE_MISMATCH",
    "STATUS_CHECK_FAILED",
    "STATUS_WORKER_FAILURE",
    "RunOutcome",
    "run",
    "run_oracle",
    "check_run",
    "bisect_delta",
    "CSVS",
]

STATUS_OK = 0
STATUS_CONFIG_ERROR = 1
STATUS_FP_FAILURE = 3
STATUS_ORACLE_MISMATCH = 4
STATUS_CHECK_FAILED = 5
STATUS_WORKER_FAILURE = 6

# Every CSV a command writes, by name: the file name.csv, tagged with the
# schema nstorus.name.v1, has these columns.
CSVS = {
    "norm_series": ("m", "t", "phi_norm", "fmc_norm_g", "fp_iterations"),
    "certificates": certificates.CertificateRecord._fields,
    "oracle_series": ("t", "phi_norm"),
    "oracle_agreement": ("m", "max_deviation"),
    "check_report": ("j", "gaussian_D", "remainder_D", "remainder_decay", "phi_norm"),
    "bisect_delta": ("iteration", "delta", "converged"),
}


def _write_csv(out_dir: Path, name: str, rows) -> None:
    """Write out_dir/name.csv: its schema line, its CSVS columns, then rows."""
    lines = [f"# schema=nstorus.{name}.v1", ",".join(CSVS[name])]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    write_atomic(out_dir / f"{name}.csv", ("\n".join(lines) + "\n").encode("ascii"))


def read_csv(path) -> tuple[str, list[str], list[list[str]]]:
    """Read back a schema-tagged CSV as (schema, columns, raw string rows)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ConfigError(f"{path}: missing schema line")
    schema = lines[0].split("=", 1)[1]
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return schema, columns, rows


class RunOutcome(NamedTuple):
    status: int
    message: str
    records: list | tuple = ()   # a run's certificate records
    oracle_max_diff: float | None = None
    failed_step: int | None = None


def _start(config: RunConfig) -> tuple[Path, SpectralField]:
    """Claim config's output directory for run, oracle or bisect-delta:
    build the initial velocity, then create the directory, remove the fields
    directory, the staging directory and the CSVs an earlier command left
    there and write run_config.cfg, so a bad checkpoint leaves nothing
    behind and no output outlives the config it was written under (a fields
    or staging directory that is a symlink, is not a directory or holds a
    file no run writes raises OSError before the CSVs are removed or the
    config is written); returns the directory and the initial velocity."""
    v0 = generate_ic(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("fields", _STAGING):
        _remove_checkpoints(out_dir / name)
    for name in CSVS:
        (out_dir / f"{name}.csv").unlink(missing_ok=True)
    write_config(config, out_dir / "run_config.cfg")
    return out_dir, v0


_STAGING = ".fields.tmp"   # fields/ while a run writes it


def _ckpt_name(prefix: str, j: int) -> str:
    """The name of a run's checkpoint with prefix h_, g_ or v_ for age or time j."""
    return f"{prefix}{j:04d}.ckpt"


def _remove_checkpoints(fields_dir: Path) -> None:
    """Remove a directory of checkpoints that a run wrote: the files a run
    names there and write_atomic's temporary files for them, then the
    directory, whose rmdir raises OSError if it holds anything else, which
    stays. A symlink, or a path that exists and is not a directory, raises
    OSError before anything is removed, so no file outside it is touched."""
    if fields_dir.is_symlink() or fields_dir.exists() and not fields_dir.is_dir():
        raise OSError(f"{fields_dir} is a symlink or not a directory; a run keeps "
                      f"its checkpoints in a directory of its own")
    for pattern in ("c0.ckpt", "[hgv]_*.ckpt", temporary_name("*.ckpt")):
        for path in fields_dir.glob(pattern):
            path.unlink()
    if fields_dir.is_dir():
        fields_dir.rmdir()


@contextmanager
def _staged_fields(out_dir: Path):
    """A new staging directory in out_dir, renamed to out_dir/fields when
    the block completes; removed when the block or the rename raises."""
    staging = out_dir / _STAGING
    staging.mkdir()
    try:
        yield staging
        staging.rename(out_dir / "fields")
    finally:
        _remove_checkpoints(staging)  # nothing left there after the rename


def run(config: RunConfig) -> RunOutcome:
    """Advance horizon_m unit intervals, writing norm series, certificates,
    optional field checkpoints, and (for short horizons) an oracle cross
    check against the direct Picard solver, whose deviation at each
    integer time goes to oracle_agreement.csv.

    Checkpoints are written as each step is yielded, into a temporary
    directory that becomes fields/ once every step has converged; a failed
    or interrupted run removes it, so only a converged run leaves fields/.
    A step that fails to converge (STATUS_FP_FAILURE) or whose convolution
    worker fails (STATUS_WORKER_FAILURE) still leaves the CSVs of the steps
    before it.
    """
    out_dir, v0 = _start(config)
    state = DecompositionState.initial(v0)
    with_oracle = 0 < config.horizon_m <= config.oracle_horizon
    velocities = [v0]  # integer-time velocities, kept for the oracle only

    norm_rows, records = [], []
    status, message, failed_step = STATUS_OK, "ok", None
    try:
        with _staged_fields(out_dir) if "fields" in config.emit else nullcontext() as ckpt:
            if ckpt:
                save_field(v0, ckpt / "c0.ckpt")
                save_field(v0, ckpt / _ckpt_name("v_", 0))
            for sol, state, record in induction_steps(state, config, config.horizon_m):
                phis = phi_norm(sol.velocity, config.alpha, axis=-1)
                fmcs = fmc_norm(sol.fixed_point.solution, state.m, config.decay_c,
                                config.beta, axis=-1)
                norm_rows.extend((state.m - 1, t, float(phi), float(fmc), record.fp_iterations)
                                 for t, phi, fmc in zip(sol.times, phis, fmcs))
                records.append(record)
                if with_oracle:
                    velocities.append(sol.v)
                if ckpt:
                    for prefix, entry in (("h_", sol.h), ("g_", sol.g), ("v_", sol.v)):
                        save_field(entry, ckpt / _ckpt_name(prefix, state.m))
    except ConvergenceError as exc:
        status = STATUS_FP_FAILURE
        failed_step = state.m
        message = f"fixed-point failure at step m={state.m}: {exc}"
    except WorkerError as exc:
        status = STATUS_WORKER_FAILURE
        failed_step = state.m
        message = f"convolution worker failure at step m={state.m}: {exc}"

    if "norm_series" in config.emit:
        _write_csv(out_dir, "norm_series", norm_rows)
    if "certificates" in config.emit:
        _write_csv(out_dir, "certificates", records)

    oracle_max_diff = None
    if status == STATUS_OK and with_oracle:
        try:
            trajectory = picard_solve(v0, float(config.horizon_m), config)
        except ConvergenceError as exc:
            return RunOutcome(STATUS_ORACLE_MISMATCH,
                              f"oracle solver failed to converge: {exc}", records)
        deviations = integer_time_deviations(trajectory, velocities, config.substeps)
        _write_csv(out_dir, "oracle_agreement", enumerate(deviations))
        oracle_max_diff = float(deviations.max())
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
    out_dir, v0 = _start(config)
    try:
        trajectory = picard_solve(v0, float(config.horizon_m), config)
    except ConvergenceError as exc:
        return RunOutcome(STATUS_FP_FAILURE, f"oracle failed: {exc}")
    _write_csv(out_dir, "oracle_series",
               zip(trajectory.times, phi_norm(trajectory, config.alpha, axis=-1)))
    return RunOutcome(STATUS_OK, f"ok ({trajectory.iterations_used} iterations, final "
                                 f"update {trajectory.final_update_norm:.3e})")


def _numbered(fields_dir: Path, prefix: str, first: int, count: int) -> list[Path]:
    """The files _ckpt_name(prefix, j), j = first .. first + count - 1, that
    a run writes; CheckpointError names the first one missing or, when none
    is, the first other prefix*.ckpt file there."""
    names = [_ckpt_name(prefix, j) for j in range(first, first + count)]
    present = {p.name for p in fields_dir.glob(prefix + "*.ckpt")}
    missing = [name for name in names if name not in present]
    stray = sorted(present.difference(names))
    if missing or stray:
        what = "missing" if missing else f"stray (the run wrote {names[0]}..{names[-1]})"
        raise CheckpointError(f"{fields_dir / (missing or stray)[0]} is {what}")
    return [fields_dir / name for name in names]


def check_run(run_dir) -> RunOutcome:
    """Certificate-only re-analysis of a saved run's field checkpoints.

    Re-fits the per-age bound constants from the h_/g_ history files and
    recomputes the data-norm of each integer-time velocity checkpoint,
    writing check_report.csv next to the originals. A run of horizon_m = n
    (read from its run_config.cfg) writes one h_ and one g_ file per age
    1..n and one v_ file per time 0..n; a missing or stray file raises
    CheckpointError before any file is read, as do a missing run_config.cfg
    or fields directory and an unreadable checkpoint, and a run_config.cfg
    that read_config rejects raises ConfigError; nothing is written then.
    The files are read and fitted one age at a time, so no more than one
    age's fields is held at once. The status is STATUS_CHECK_FAILED when a
    snapshot's phi norm exceeds the envelope 2 delta (the report is still
    written), else STATUS_OK.
    """
    run_dir = Path(run_dir)
    cfg_path = run_dir / "run_config.cfg"
    fields_dir = run_dir / "fields"
    if not cfg_path.is_file():
        raise CheckpointError(f"{cfg_path} not found")
    if not fields_dir.is_dir():
        raise CheckpointError(f"{fields_dir} not found (run with emit including 'fields')")
    config = read_config(cfg_path)
    spec = config.lattice_spec()
    n = config.horizon_m
    h_paths = _numbered(fields_dir, "h_", 1, n)
    g_paths = _numbered(fields_dir, "g_", 1, n)
    v_paths = _numbered(fields_dir, "v_", 0, n + 1)
    # time 0 has no history age
    rows = [(0, math.nan, math.nan, math.nan, phi_norm(load_field(v_paths[0], spec), config.alpha))]
    for j, (h_path, g_path, v_path) in enumerate(zip(h_paths, g_paths, v_paths[1:]), start=1):
        gauss_d = certificates.fit_gaussian_bound(load_field(h_path, spec), j, config)
        rem_d, rem_rate = certificates.fit_remainder_bound(load_field(g_path, spec), j, config)
        rows.append((j, gauss_d, rem_d, rem_rate,
                     phi_norm(load_field(v_path, spec), config.alpha)))
    _write_csv(run_dir, "check_report", rows)
    _, gauss_ds, rem_ds, _, phis = zip(*rows)
    envelope_ok = all(p <= 2 * config.delta for p in phis)
    message = (
        f"checked {n} history ages, {n + 1} snapshots; "
        f"max gaussian_D {max(gauss_ds[1:]):.6g}, "
        f"max remainder_D {max(rem_ds[1:]):.6g}, "
        f"phi envelope {'<= 2 delta' if envelope_ok else 'EXCEEDED'}"
    )
    return RunOutcome(STATUS_OK if envelope_ok else STATUS_CHECK_FAILED, message)


class BisectOutcome(NamedTuple):
    delta_lo: float
    delta_hi: float
    rows: list
    message: str
    status: int = STATUS_OK


def bisect_delta(config: RunConfig, delta_lo: float = 1e-6, delta_hi: float = 1.0,
                 bisect_steps: int = 20, bisect_horizon: int = 50) -> BisectOutcome:
    """Bracket the largest smallness scale for which bisect_horizon steps
    converge. The arguments are checked first; then _start claims the
    output directory under config with horizon_m = bisect_horizon, the
    config every trial runs under but for its delta, and bisect_delta.csv
    rows (iteration, delta, converged), one per trial at its delta, are
    written whatever the outcome. Each trial generates its initial data at
    its own delta, so ic_kind = from_checkpoint, whose data is loaded as
    saved and does not scale with delta, is a ConfigError before any trial
    or output."""
    if config.ic_kind == "from_checkpoint":
        raise ConfigError("bisect-delta needs data generated at each trial's delta; "
                          "ic_kind = from_checkpoint loads the same data for every delta")
    if not 0 < delta_lo < delta_hi < math.inf:
        raise ConfigError(f"need 0 < delta_lo < delta_hi < inf, "
                          f"got delta_lo={delta_lo!r}, delta_hi={delta_hi!r}")
    if bisect_steps < 0:
        raise ConfigError(f"bisect_steps must be >= 0, got {bisect_steps}")
    if bisect_horizon < 1:
        raise ConfigError(f"bisect_horizon must be >= 1, got {bisect_horizon}")
    config = config.replace(horizon_m=bisect_horizon)
    out_dir, _ = _start(config)
    rows = []

    def trial(iteration: int, delta: float) -> bool:
        """Run bisect_horizon steps at delta and record the verdict."""
        trial_config = config.replace(delta=delta)
        state = DecompositionState.initial(generate_ic(trial_config))
        try:
            for _ in induction_steps(state, trial_config, bisect_horizon):
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

    _write_csv(out_dir, "bisect_delta", rows)
    return BisectOutcome(lo, hi, rows, message, status)
