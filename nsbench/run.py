"""nstorus benchmark: one command that measures a workload and checks its outputs.

Usage (from the repository root):

    python3 nsbench/run.py --workload induction-k6 --seed 0 --seconds 36 --trace 0

The client runs every measurement in a fresh child process (nsbench/child.py),
one at a time, so a run never uses more than one core for the solver:

  1. one untimed `run` at k_max 4, horizon 3 with the Picard oracle on,
     which must agree to oracle_tol;
  2. solve children, each of which sets up, as a CLI run does, and times
     one repetition of the workload's solve calls into a fresh output
     directory, until --seconds is spent. With --trace 1 they alternate
     untraced and traced. With --trace 0, SETUP_PROBES_PER_SOLVE set-up-only
     children follow each solve, so set-up time (import nstorus to ready)
     is a median over many fresh processes.

Every repetition's outputs are checked (see checks.py). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it record the environment and the details.
The program under test is imported from ./src of the current directory, and
all outputs go to ./.bench_build/nsbench/, which is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES_PER_SOLVE = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Every configuration key is pinned, so a changed default cannot change the
# work measured (for example oracle_horizon = 3 would add a Picard solve to
# any run of horizon 3 or less). rng_seed and output_dir are set per run.
BASE_CONFIG = {
    "epsilon": "0.25",
    "beta": "3.5",
    "delta": "0.001",
    "decay_c": "0.5773502691896258",
    "fp_tol": "1e-11",
    "fp_max_iter": "50",
    "substeps": "8",
    "eps_div": "1e-12",
    "k_max": "4",
    "truncation_rule": "euclidean_ball",
    "ic_kind": "random_phi_ball",
    "ic_checkpoint": "",
    "reality_symmetry": "false",
    "horizon_m": "1",
    "emit": "certificates,norm_series",
    "oracle_horizon": "0",
    "oracle_tol": "1e-9",
}

# Why each workload exists: see README.md next to this file.
WORKLOADS = {
    # One step on the k_max 6 ball (924 sites): the convolution kernel does
    # nearly all the work.
    "induction-k6": {
        "solve": "run",
        "config": {"k_max": "6", "delta": "0.001", "horizon_m": "1"},
    },
    # 24 steps on the k_max 4 ball: fixed-point iterations fall from 7 to 1,
    # history and certificate work grow with m, checkpoints are written by
    # `run` and read back by `check_run`.
    "induction-k4-long": {
        "solve": "run+check",
        "config": {"k_max": "4", "delta": "0.03", "horizon_m": "24",
                   "emit": "certificates,fields,norm_series"},
    },
    # Picard oracle alone over 24 unit intervals (193 slices). At delta 0.002
    # every seed tried takes 5 Picard iterations at fp_tol 1e-11 (seeds 0-39
    # at horizon 1, 0-9 at horizon 24), so the work does not depend on the
    # seed; at 0.02 seeds take 7 or 8.
    "oracle-k4-long": {
        "solve": "oracle",
        "config": {"k_max": "4", "delta": "0.002", "horizon_m": "24"},
    },
}

# The untimed oracle cross-check made once per invocation.
CHECK_PASS = {"k_max": "4", "delta": "0.001", "horizon_m": "3", "oracle_horizon": "3"}


def config_lines(overrides: dict, seed: int) -> list[str]:
    """Every configuration key except output_dir, one `key = value` line each."""
    keys = {**BASE_CONFIG, **overrides, "rng_seed": str(seed)}
    return [f"{key} = {value}" for key, value in keys.items()]


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(job: dict, root: Path, deadline: float) -> dict:
    """Run one child to completion and return its JSON result."""
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(job)], cwd=root,
                            env=_child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{job['mode']} child exceeded the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{job['mode']} child exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    expected_src = (root / "src" / "nstorus").resolve()
    if Path(result["nstorus_file"]).resolve().parent != expected_src:
        raise RuntimeError(f"child imported nstorus from {result['nstorus_file']}, not {expected_src}")
    return result


def environment(root: Path, seed: int, numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nstorus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "thread_vars_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_child": {v: "1" for v in THREAD_VARS},
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(traced: list[dict], untraced: list[dict], horizon: int) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    def stat(qualname, index):
        return _median([r["stats"].get(qualname, [0, 0.0, 0.0])[index] for r in traced])

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for qualname in ("operators.bilinear", "operators.duhamel_integrate",
                     "checkpoint.save_field", "checkpoint.load_field"):
        put(f"{qualname}.calls", stat(qualname, 0), "count")
        put(f"{qualname}.self_s", stat(qualname, 2), "s")
    put("operators.bilinear.calls_per_step", stat("operators.bilinear", 0) / horizon, "calls/step")
    for qualname in ("operators.star_product",
                     "induction.assemble_heat_part", "induction.assemble_gaussian_part",
                     "induction.assemble_remainder_part", "induction.assemble_forcing",
                     "induction.compute_gaussian_correction", "induction.iterate_contraction",
                     "certificates.build_record", "certificates.fit_gaussian_bound",
                     "certificates.fit_remainder_bound", "fields.fmc_norm", "fields.phi_norm",
                     "picard.picard_solve", "runner.run", "runner.check_run",
                     "config.generate_ic"):
        put(f"{qualname}.self_s", stat(qualname, 2), "s")
    put("induction.fp_iterations", _median([sum(r.get("fp_iterations", [])) for r in traced]), "count")
    put("picard.iterations", _median([r.get("picard_iterations") or 0 for r in traced]), "count")
    put("fields.SpectralField.created", _median([r["fields_created"] for r in traced]), "count")
    put("lattice.sites", _median([r["lattice_sites"] for r in traced]), "count")
    put("lattice.setup_s", _median([r["lattice_setup_s"] for r in traced + untraced]), "s")
    put("trace.overhead_s", _median([r["solve_s"] for r in traced])
        - _median([r["solve_s"] for r in untraced]), "s")
    return metrics


def _step_profile(rep: dict) -> dict:
    """Kernel calls per induction step against 108 + 27 * fp_iterations."""
    calls = rep.get("step_kernel_calls", [])
    iters = rep.get("fp_iterations", [])
    expected = [108 + 27 * n for n in iters]
    return {"bilinear_calls": calls, "fp_iterations": iters,
            "matches_108_plus_27_iters": bool(calls) and calls == expected}


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            spec: dict | None = None, check_pass: dict | None = None):
    """Run one benchmark invocation; returns (result line, details)."""
    spec = spec or WORKLOADS[workload]
    check_pass = check_pass or CHECK_PASS
    deadline = time.monotonic() + DEADLINE_S
    work_dir = root / ".bench_build" / "nsbench" / f"{workload}-s{seed}-{os.getpid()}"
    rel_work = work_dir.relative_to(root)
    lines = config_lines(spec["config"], seed)
    horizon = int(dict(line.split(" = ") for line in lines)["horizon_m"])
    problems = []
    reps, setups, setup_walls = [], [], []
    warnings: set = set()
    try:
        check = _run_child({"mode": "check", "work_dir": str(rel_work / "oracle-check"),
                            "config": config_lines(check_pass, seed)}, root, deadline)
        diff = check["oracle_max_diff"]
        check_ok = check["status"] == 0 and diff is not None \
            and diff <= float(BASE_CONFIG["oracle_tol"])
        if not check_ok:
            problems.append(f"oracle cross-check: status {check['status']}, {check['message']}")
        loop_start = time.monotonic()
        while True:
            started = time.monotonic()
            traced = trace and len(reps) % 2 == 1
            rep = _run_child({"mode": "solve", "work_dir": str(rel_work / f"rep-{len(reps):03d}"),
                              "config": lines, "solve": spec["solve"], "trace": traced},
                             root, deadline)
            rep.update(traced=traced, dir=str(work_dir / f"rep-{len(reps):03d}"))
            reps.append(rep)
            setups.append(rep["setup_s"])
            setup_walls.append(rep["setup_wall_s"])
            # Set-up-only processes between solves: more set-up samples,
            # spread over the run so one slow phase does not move them all.
            for _ in range(0 if trace else SETUP_PROBES_PER_SOLVE):
                probe = _run_child({"mode": "setup", "config": lines,
                                    "work_dir": str(rel_work / "probe")}, root, deadline)
                setups.append(probe["setup_s"])
                setup_walls.append(probe["setup_wall_s"])
            rep["wall_s"] = time.monotonic() - started
            elapsed = time.monotonic() - loop_start
            longest = max(r["wall_s"] for r in reps[-2:])
            if len(reps) >= (2 if trace else 1) and elapsed + longest > seconds:
                break
        rep_problems = [checks.check_rep(workload, seed, spec["solve"], horizon, rep, warnings)
                        for rep in reps]
        pinned = {line.split(" = ")[0] for line in lines} | {"output_dir"}
        written = work_dir / "rep-000" / "run_config.cfg"
        unpinned = sorted({line.split("=")[0].strip() for line in written.read_text().splitlines()
                           if "=" in line} - pinned) if written.is_file() else []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for rep, found in zip(reps, rep_problems):
        problems += [f"{Path(rep['dir']).name}: {p}" for p in found]
    attempted = len(reps) + 1
    failed = sum(1 for found in rep_problems if found) + (not check_ok)
    timed = [r for r in reps if "solve_s" in r]
    good = [r for r, found in zip(reps, rep_problems) if not found] or timed
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if trace:
        metrics = _layer_metrics(traced, untraced, horizon)
    else:
        metrics = {
            "setup_s": {"value": _median(setups), "unit": "s"},
            "solve_s": {"value": _median([r["solve_s"] for r in untraced]), "unit": "s"},
            "peak_rss_mb": {"value": _median([r["maxrss_kb"] for r in untraced]) / 1024.0,
                            "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    details = {
        "workload": workload,
        "environment": environment(root, seed, check["numpy_version"]),
        "solve_s_samples": [r["solve_s"] for r in untraced],
        "solve_wall_s_samples": [r["solve_wall_s"] for r in untraced],
        "calibration_mean_s_samples": [r["calibration_mean_s"] for r in untraced],
        "traced_solve_s_samples": [r["solve_s"] for r in traced],
        "setup_s_samples": setups,
        "setup_wall_s_samples": setup_walls,
        "peak_rss_mb_samples": [r["maxrss_kb"] / 1024.0 for r in untraced],
        "error_rate": failed / attempted,
        "oracle_check_max_diff": check["oracle_max_diff"],
        "problems": problems,
        "warnings": sorted(warnings),
        "unpinned_config_keys": unpinned,
    }
    if traced:
        details["absent_functions"] = traced[0]["absent"]
        if spec["solve"] != "oracle":
            details["step_profile"] = _step_profile(traced[0])
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "nstorus" / "__init__.py").is_file():
        print(f"nsbench: no nstorus sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print("# details " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
