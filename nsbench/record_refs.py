"""Record the reference outputs the benchmark checks its runs against.

Usage (from the repository root): python3 nsbench/record_refs.py [SEED ...]

For each workload and seed (default: the benchmark's default seed), runs the
workload's solve calls once through the same child process the benchmark
uses and copies the resulting CSVs, plus the Picard iteration count, into
nsbench/refs/<workload>/seed-<n>/. Re-record only when a change is meant to
alter the solver's outputs, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import checks
import run


def record(root: Path, workload: str, seed: int) -> Path:
    spec = run.WORKLOADS[workload]
    rel_work = Path(".bench_build") / "nsbench" / f"record-{workload}-s{seed}"
    try:
        rep = run._run_child({"mode": "solve", "work_dir": str(rel_work),
                              "config": run.config_lines(spec["config"], seed),
                              "solve": spec["solve"], "trace": False},
                             root, time.monotonic() + 900)
        if rep["status"] != 0 or rep.get("check_status", 0) != 0:
            raise SystemExit(f"{workload} seed {seed} failed: {rep['message']} "
                             f"{rep.get('check_message', '')}")
        dest = checks.reference_dir(workload, seed)
        dest.mkdir(parents=True, exist_ok=True)
        for name in checks.SOLVE_OUTPUTS[spec["solve"]]:
            shutil.copyfile(root / rel_work / name, dest / name)
        expected = {"picard_iterations": rep["picard_iterations"]}
        (dest / "expected.json").write_text(json.dumps(expected) + "\n")
        return dest
    finally:
        shutil.rmtree(root / rel_work, ignore_errors=True)


def main(argv) -> int:
    seeds = [int(s) for s in argv[1:]] or [checks.DEFAULT_SEED]
    for seed in seeds:
        for workload in run.WORKLOADS:
            print(f"recorded {record(Path.cwd(), workload, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
