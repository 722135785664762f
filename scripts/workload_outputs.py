#!/usr/bin/env python3
"""Write every output of the benchmark's workloads and its oracle
cross-check, for comparing two checkouts.

    python scripts/workload_outputs.py OUT [--seed N ...] [--against DIR]

Seeds 0 and 3 by default. Each configuration is the benchmark's own: the
pinned keys are imported from nsbench/run.py. OUT/<name>/seed-<n>/ gets its
run_config.cfg and CSVs; the induction runs and the cross-check also emit
their field checkpoints, and `check` then writes their check_report.csv.
OUT/outcomes.txt holds each command's message, one `run_dir: message` line
each; the oracle's names its Picard iterations. The output directories are
written relative to OUT, so `diff -r` of two checkouts' trees compares
run_config.cfg too.

With --against DIR, a tree this script wrote from another checkout (copy
the script there to write it), OUT is then compared with DIR. Printed:
the largest relative difference of each CSV column, every iteration count
that differs (fp_iterations, Picard iterations), and for each checkpoint
the largest relative difference of a site's amplitude and any change of
support. Exits 1 if any command does not exit 0, and with --against on a
differing count, a support change, a CSV cell more than RTOL (the
benchmark's, 1e-12) apart, or a file that differs in kind: missing from
one tree, or not a CSV or checkpoint and not byte-identical.
"""

import argparse
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from nstorus.checkpoint import load_field
from nstorus.config import parse_config
from nstorus.fields import site_magnitudes
from nstorus.runner import STATUS_OK, check_run, read_csv, run, run_oracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "nsbench"))
from checks import RTOL  # noqa: E402  (nsbench/checks.py)
from run import CHECK_PASS, WORKLOADS, config_lines  # noqa: E402  (nsbench/run.py)

OUTCOMES = "outcomes.txt"
# CSV columns that count iterations: each change is reported, not a
# relative difference
COUNT_COLUMNS = {"fp_iterations"}
_PICARD = re.compile(r"\((\d+) iterations")


def _config(overrides: dict, seed: int, output_dir: str):
    """The benchmark's configuration text for a run, parsed."""
    return parse_config("\n".join([*config_lines(overrides, seed),
                                    f"output_dir = {output_dir}"]) + "\n")


def _write_tree(seeds) -> int:
    """Run every job for every seed in the working directory; the number
    of commands that did not exit 0."""
    jobs = {name: (spec["solve"], spec["config"]) for name, spec in WORKLOADS.items()}
    jobs["check-pass"] = ("run", CHECK_PASS)
    failed, lines = 0, []
    for seed in seeds:
        for name, (solve, overrides) in jobs.items():
            output_dir = f"{name}/seed-{seed}"
            if solve == "oracle":
                outcomes = [run_oracle(_config(overrides, seed, output_dir))]
            else:
                overrides = {**overrides, "emit": "certificates,fields,norm_series"}
                outcomes = [run(_config(overrides, seed, output_dir))]
                if outcomes[0].status == STATUS_OK:
                    outcomes.append(check_run(output_dir))
            for outcome in outcomes:
                lines.append(f"{output_dir}: {outcome.message}")
                print(lines[-1])
                failed += outcome.status != STATUS_OK
    Path(OUTCOMES).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return failed


def _rel(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude: 0 when equal, nans
    included, and inf when only one is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _cell_rel(a: str, b: str) -> float:
    """_rel of two CSV cells read as floats; 0 or inf for text cells."""
    try:
        return _rel(float(a), float(b))
    except ValueError:
        return 0.0 if a == b else math.inf


def _compare_csv(name: str, new: Path, old: Path, worst: dict) -> list[str]:
    """Fold the CSV's per-column differences into worst, keyed by (file
    name, column); the problems found."""
    _, cols, rows = read_csv(new)
    _, old_cols, old_rows = read_csv(old)
    if cols != old_cols or len(rows) != len(old_rows):
        return [f"{name}: columns or row count differ"]
    problems = []
    for i, (row, old_row) in enumerate(zip(rows, old_rows)):
        for col, a, b in zip(cols, row, old_row):
            if col in COUNT_COLUMNS:
                if a != b:
                    problems.append(f"{name} row {i + 1}: {col} {a}, against {b}")
                continue
            key = (Path(name).name, col)
            rel = _cell_rel(a, b)
            if rel >= worst.get(key, (-1.0, ""))[0]:
                worst[key] = (rel, name)
    return problems


def _compare_checkpoint(name: str, new: Path, old: Path) -> list[str]:
    """Print the largest per-site relative difference of the two fields;
    a support change is a problem."""
    a, b = load_field(new).data, load_field(old).data
    if a.shape != b.shape:
        return [f"{name}: lattices differ"]
    support, old_support = (a != 0).any(axis=1), (b != 0).any(axis=1)
    changed = int(np.count_nonzero(support != old_support))
    both = support & old_support
    scale = np.maximum(site_magnitudes(a[both]), site_magnitudes(b[both]))
    rel = float((site_magnitudes(a[both] - b[both]) / scale).max(initial=0.0))
    print(f"  {name}: {rel:.1e}" + (f", support changed at {changed} sites" if changed else ""))
    return [f"{name}: support changed at {changed} sites"] if changed else []


def _picard_counts(path: Path) -> list[str]:
    """The Picard iteration counts named in an outcomes file, in order."""
    return [m.group(1) for m in map(_PICARD.search, path.read_text(encoding="utf-8").splitlines())
            if m]


def compare_trees(new: Path, old: Path) -> bool:
    """Print how tree new differs from tree old; True when they agree to
    the stated tolerance."""
    files = {p.relative_to(tree).as_posix() for tree in (new, old)
             for p in tree.rglob("*") if p.is_file()}
    worst, problems = {}, []
    print(f"checkpoints, largest relative difference of a site against {old}:")
    for name in sorted(files):
        a, b = new / name, old / name
        if not (a.is_file() and b.is_file()):
            problems.append(f"{name}: only in {new if a.is_file() else old}")
        elif name.endswith(".csv"):
            problems += _compare_csv(name, a, b, worst)
        elif name.endswith(".ckpt"):
            problems += _compare_checkpoint(name, a, b)
        elif name == OUTCOMES:
            counts, old_counts = _picard_counts(a), _picard_counts(b)
            if counts != old_counts:
                problems.append(f"Picard iterations {counts}, against {old_counts}")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"{name}: differs")
    print("CSV columns, largest relative difference:")
    for (file, col), (rel, name) in sorted(worst.items()):
        print(f"  {file} {col}: {rel:.1e} ({name})")
        if rel > RTOL:
            problems.append(f"{name} {col}: cells {rel:.1e} apart, above {RTOL:.0e}")
    for problem in problems:
        print(f"DIFFERS: {problem}")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", help="directory to write the outputs into")
    ap.add_argument("--seed", type=int, action="append",
                    help="rng_seed to run, repeatable (default: 0 and 3)")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="a tree written by this script from another checkout, to compare with")
    args = ap.parse_args()

    against = args.against.resolve() if args.against else None
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    failed = _write_tree(args.seed or [0, 3])
    if against is not None and not compare_trees(out, against):
        failed += 1
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
