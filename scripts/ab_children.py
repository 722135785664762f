#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, child by child.

    python scripts/ab_children.py A B WORKLOAD PAIRS [--seed N]

A and B are checkout roots, each with its own src/nstorus. Each pair runs
one benchmark solve child (nsbench/child.py, through nsbench/run.py's
_run_child) of A and one of B, one after the other from this one client,
A first in even pairs and B first in odd ones; so the two checkouts share
the machine's state as closely as a comparison of separate processes can.
Every child is checked by nsbench/checks.py's check_rep, as a benchmark run
checks it. Children write their outputs into a temporary directory, and
the script writes nothing under nsbench/.

Printed, for solve_s, solve_wall_s, calibration_mean_s, setup_s,
setup_wall_s and the peak RSS: each side's median and quartiles, and the
number of pairs in which B read lower. The _wall_s times are unscaled, so
a claim on a scaled time can be checked apart from the calibration it was
scaled by. Exits 1 if any child fails or any output is wrong.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True   # no __pycache__ under nsbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "nsbench"))
from checks import check_rep  # noqa: E402  (nsbench/checks.py)
from run import DEADLINE_S, WORKLOADS, _run_child, config_lines  # noqa: E402  (nsbench/run.py)

# what each child reports, and how it is printed: (name, key, scale)
METRICS = (("solve_s", "solve_s", 1.0), ("solve_wall_s", "solve_wall_s", 1.0),
           ("calibration_mean_s", "calibration_mean_s", 1.0), ("setup_s", "setup_s", 1.0),
           ("setup_wall_s", "setup_wall_s", 1.0), ("peak_rss_mb", "maxrss_kb", 1 / 1024))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the first checkout's root")
    parser.add_argument("b", type=Path, help="the second checkout's root")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("PAIRS must be at least 1")
    roots = [args.a.resolve(), args.b.resolve()]
    for root in roots:
        if not (root / "src" / "nstorus" / "__init__.py").is_file():
            parser.error(f"no nstorus sources under {root / 'src'}")
    spec = WORKLOADS[args.workload]
    lines = config_lines(spec["config"], args.seed)
    horizon = int(dict(line.split(" = ") for line in lines)["horizon_m"])
    reps = ([], [])
    problems, warnings = [], set()
    with tempfile.TemporaryDirectory(prefix="ab-children-") as tmp:
        for pair in range(args.pairs):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                out = Path(tmp) / f"{'AB'[side]}-{pair:03d}"
                job = {"mode": "solve", "work_dir": str(out), "config": lines,
                       "solve": spec["solve"], "trace": False}
                try:
                    rep = _run_child(job, roots[side], time.monotonic() + DEADLINE_S)
                except RuntimeError as exc:
                    print(f"{'AB'[side]} pair {pair}: {exc}", file=sys.stderr)
                    return 1
                rep["dir"] = str(out)
                problems += [f"{'AB'[side]} pair {pair}: {p}" for p in
                             check_rep(args.workload, args.seed, spec["solve"], horizon, rep,
                                       warnings)]
                reps[side].append(rep)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs; A = {roots[0]}, B = {roots[1]}")
    print(f"{'metric':<20} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} B lower")
    for name, key, scale in METRICS:
        a, b = (np.array([r[key] * scale for r in side]) for side in reps)
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                 for q in (np.percentile(x, [25, 50, 75]) for x in (a, b))]
        print(f"{name:<20} {cells[0]:<34} {cells[1]:<34} {int((b < a).sum())} of {args.pairs}")
    for problem in problems:
        print(f"problem: {problem}")
    for warning in sorted(warnings):
        print(f"warning: {warning}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
