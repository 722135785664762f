#!/usr/bin/env python3
"""Write every output of the benchmark's workloads and its oracle
cross-check, for comparing two checkouts byte for byte.

    python scripts/workload_outputs.py OUT [--seed N ...]   # seeds 0 and 3 by default

Each configuration is the benchmark's own: the pinned keys are imported
from nsbench/run.py. OUT/<name>/seed-<n>/ gets its run_config.cfg and CSVs;
the induction runs and the cross-check also emit their field checkpoints,
and `check` then writes their check_report.csv. The output directories are
written relative to OUT, so `diff -r` of two checkouts' trees compares
run_config.cfg too. Exits 1 if any command does not exit 0.
"""

import argparse
import os
import sys
from pathlib import Path

from nstorus.config import parse_config
from nstorus.runner import STATUS_OK, check_run, run, run_oracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "nsbench"))
from run import CHECK_PASS, WORKLOADS, config_lines  # noqa: E402  (nsbench/run.py)


def _config(overrides: dict, seed: int, output_dir: str):
    """The benchmark's configuration text for a run, parsed."""
    return parse_config("\n".join([*config_lines(overrides, seed),
                                    f"output_dir = {output_dir}"]) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", help="directory to write the outputs into")
    ap.add_argument("--seed", type=int, action="append",
                    help="rng_seed to run, repeatable (default: 0 and 3)")
    args = ap.parse_args()

    jobs = {name: (spec["solve"], spec["config"]) for name, spec in WORKLOADS.items()}
    jobs["check-pass"] = ("run", CHECK_PASS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    failed = 0
    for seed in args.seed or [0, 3]:
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
                print(f"{output_dir}: {outcome.message}")
                failed += outcome.status != STATUS_OK
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
