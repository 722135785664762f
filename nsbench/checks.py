"""Output checks for benchmark runs, written without nstorus or numpy.

A run directory is compared with the reference CSVs recorded for its
workload and seed under nsbench/refs/<workload>/seed-<n>/. Without a
reference for the seed, only the structure (schema line, columns, row count
and grid columns) is compared with the default seed's reference. Every
numeric value must be finite in any case.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
DEFAULT_SEED = 0

# Relative tolerance for numeric CSV values against the reference. Runs of
# one commit on one machine are byte-identical. Reversing the summation order
# of every convolution (same arithmetic, other rounding) moved no value of any
# workload's seed-0 outputs by more than 1.0e-15 relative; 1e-12 leaves a
# factor 1000 for other numpy or BLAS builds and for reassociated algebra.
RTOL = 1e-12

# Columns that must match the reference exactly, as text.
EXACT_COLUMNS = frozenset({"m", "j", "t", "fp_iterations", "contraction_ok"})
# Columns that do not depend on the seed; checked even without a reference.
GRID_COLUMNS = frozenset({"m", "j", "t"})
# check_report.csv has no history constants at age 0 and writes nan there.
ALLOWED_NAN = {
    ("check_report.csv", "0"): frozenset({"gaussian_D", "remainder_D", "remainder_decay"}),
}

SOLVE_OUTPUTS = {
    "run": ("norm_series.csv", "certificates.csv"),
    "run+check": ("norm_series.csv", "certificates.csv", "check_report.csv"),
    "oracle": ("oracle_series.csv",),
}

# check_report.csv writes some values as numpy scalar reprs, e.g.
# "np.float64(1.25)" under numpy 2 (runner._fmt formats them with repr).
# Values are compared as numbers; the spelling is reported as a warning.
NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def read_csv(path: Path):
    lines = path.read_text(encoding="ascii").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# schema="):
        raise ValueError(f"{path.name}: missing schema line or header")
    return lines[0], lines[1].split(","), [line.split(",") for line in lines[2:] if line]


def _number(cell: str, name: str, warnings: set) -> float:
    match = NUMPY_REPR.match(cell)
    if match:
        warnings.add(f"{name} writes values as numpy scalar reprs, e.g. np.float64(...)")
        cell = match.group(1)
    return float(cell)


def _finite_problems(name, columns, rows, warnings):
    problems = []
    for row in rows:
        allowed = ALLOWED_NAN.get((name, row[0]), frozenset())
        for col, cell in zip(columns, row):
            if col in EXACT_COLUMNS or cell in ("true", "false"):
                continue
            try:
                value = _number(cell, name, warnings)
            except ValueError:
                problems.append(f"{name}: {col}={cell!r} is not a number")
                continue
            if not math.isfinite(value) and not (col in allowed and math.isnan(value)):
                problems.append(f"{name}: {col}={cell} is not finite (row {row[0]})")
    return problems


def _close(a: str, b: str, name: str, warnings: set) -> bool:
    try:
        x, y = _number(a, name, warnings), _number(b, name, warnings)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * max(abs(x), abs(y))


def compare_csv(path: Path, ref: Path | None, exact_values: bool, warnings: set) -> list[str]:
    """Problems found comparing one output CSV with its reference.

    exact_values: the reference was recorded for this seed, so every value
    is compared; otherwise only the seed-independent structure is. With no
    reference at all only finiteness is checked. Warnings that do not fail
    the run are added to warnings.
    """
    name = path.name
    try:
        schema, columns, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable ({exc})"]
    problems = _finite_problems(name, columns, rows, warnings)
    if ref is None:
        return problems
    ref_schema, ref_columns, ref_rows = read_csv(ref)
    if (schema, columns) != (ref_schema, ref_columns):
        return problems + [f"{name}: schema or columns differ from the reference"]
    if len(rows) != len(ref_rows):
        return problems + [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    for row, ref_row in zip(rows, ref_rows):
        if len(row) != len(columns):
            problems.append(f"{name}: row {row[0]} has {len(row)} cells")
            continue
        for col, cell, want in zip(columns, row, ref_row):
            if col in GRID_COLUMNS or (exact_values and col in EXACT_COLUMNS):
                ok = cell == want
            elif exact_values:
                ok = _close(cell, want, name, warnings)
            else:
                continue
            if not ok:
                problems.append(f"{name}: row {row[0]} {col}={cell}, reference {want}")
    return problems


def reference_dir(workload: str, seed: int) -> Path:
    return REFS / workload / f"seed-{seed}"


def check_rep(workload: str, seed: int, solve: str, horizon: int, rep: dict,
              warnings: set) -> list[str]:
    """Problems with one timed repetition; an empty list means it passed."""
    if rep.get("status") != 0:
        return [f"status {rep.get('status')}: {rep.get('message')}"]
    problems = []
    if solve == "run+check":
        if rep.get("check_status") != 0:
            return [f"check_run status {rep.get('check_status')}: {rep.get('check_message')}"]
        want = f"checked {horizon} history ages,"
        if not rep["check_message"].startswith(want):
            problems.append(f"check_run reported {rep['check_message']!r}, expected {want!r}")
    exact = reference_dir(workload, seed).is_dir()
    ref_dir = reference_dir(workload, seed if exact else DEFAULT_SEED)
    if not ref_dir.is_dir():
        ref_dir = None
    out_dir = Path(rep["dir"])
    for name in SOLVE_OUTPUTS[solve]:
        problems += compare_csv(out_dir / name, ref_dir and ref_dir / name, exact, warnings)
    if solve == "oracle":
        got = rep.get("picard_iterations")
        expected = (json.loads((ref_dir / "expected.json").read_text())["picard_iterations"]
                    if exact else got)
        if not got or got != expected:
            problems.append(f"picard iterations {got}, reference {expected}")
    return problems
