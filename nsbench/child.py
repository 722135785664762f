"""Measurement child: one process per set-up or solve, driven by run.py.

Usage: python3 nsbench/child.py '<job json>'   (from the checkout root)

The job names a mode:
  setup  -- time set-up only (import nstorus -> ready) and exit;
  check  -- set up, then one untimed `run` with the oracle cross-check;
  solve  -- set up, then time one repetition of the workload's solve
            calls, traced when the job asks for it.
The child prints one JSON object as the last line of its standard output.

Nothing from nstorus or numpy is imported before the set-up clock starts,
so set-up time covers the package import as a user pays it on every CLI run.

Times are reported twice: as measured (`*_wall_s`) and scaled to a reference
machine speed (`setup_s`, `solve_s`). On a shared host the speed of the same
code drifts by up to 1.5 times over seconds to minutes, so each child also
times a fixed calibration kernel (see Calibration) and scales its own times
by CALIBRATION_REF_S / the kernel's mean time over the same interval.
"""

from __future__ import annotations

import functools
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

# The calibration kernel's time at the reference speed: about its time on a
# 2.0 GHz Xeon virtual machine in a quiet phase. Scaled times are in seconds
# at the speed at which the kernel takes this long.
CALIBRATION_REF_S = 0.003
# Seconds between calibration samples during a solve (about 1% overhead).
CALIBRATION_PERIOD_S = 0.2
# Calibration samples taken right after set-up to scale the set-up time.
SETUP_CALIBRATION_SAMPLES = 7

# Functions the traced run wraps, by module. Each is patched under every name
# that binds it in any nstorus module, since `from .x import f` copies the
# binding at import time. A name missing from its module is reported absent.
TRACED = {
    "config": ("parse_config", "generate_ic"),
    "fields": ("fmc_norm", "phi_norm"),
    "operators": ("bilinear", "duhamel_integrate", "star_product"),
    "induction": (
        "solve_interval", "assemble_heat_part", "compute_gaussian_correction",
        "assemble_gaussian_part", "assemble_remainder_part", "assemble_forcing",
        "iterate_contraction",
    ),
    "certificates": ("build_record", "fit_gaussian_bound", "fit_remainder_bound"),
    "picard": ("picard_solve",),
    "checkpoint": ("save_field", "load_field"),
    "runner": ("run", "run_oracle", "check_run"),
}
STEP_FUNCTION = "induction.solve_interval"
KERNEL_FUNCTION = "operators.bilinear"


def _bindings(target):
    """(module, attribute) pairs of every nstorus module bound to target."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "nstorus" or name.startswith("nstorus.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                yield module, attr


class Patches:
    """Module attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, target, replacement) -> None:
        for module, attr in _bindings(target):
            setattr(module, attr, replacement)
            self._undo.append((module, attr, target))

    def set_attr(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Calibration:
    """A fixed kernel that samples how fast the machine runs, and when.

    The kernel does the convolution's kind of work at a fixed size: gathers
    from complex (n, 3) arrays, a product, a row sum, a segmented reduceat
    and a short Python loop. Its data do not depend on --seed or on nstorus.
    Between start() and stop(), SIGALRM runs it every CALIBRATION_PERIOD_S
    at the next bytecode boundary of the program, so the samples are spread
    evenly over the interval and their mean is its average slowness. The
    time spent in the kernel is kept in `spent`, to be taken off timings.
    """

    MIN_SAMPLES = 5

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20071020)
        size, rows, per_row = 24000, 3000, 8
        self._a = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        self._b = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        self._ia = rng.integers(0, rows, size)
        self._ib = rng.integers(0, rows, size)
        self._starts = np.arange(0, size, per_row)
        self._reduceat = np.add.reduceat
        self.samples: list[float] = []
        self.spent = 0.0

    def kernel_s(self) -> float:
        """Run the kernel once; its duration in seconds."""
        start = time.perf_counter()
        dots = (self._a[self._ia] * self._b[self._ib]).sum(axis=1)
        self._reduceat(dots[:, None] * self._a[self._ib], self._starts, axis=0)
        total = 0
        for i in range(2000):
            total += i
        return time.perf_counter() - start

    def sample(self, count: int) -> None:
        self.samples.extend(self.kernel_s() for _ in range(count))

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.kernel_s())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # A solve shorter than a few periods is scaled by samples just after it.
        self.sample(max(0, self.MIN_SAMPLES - len(self.samples)))

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def scale(self) -> float:
        """Factor from this process's times to times at the reference speed."""
        return CALIBRATION_REF_S / self.mean_s()


class Tracer:
    """Per-function call counts, total and self time for one traced solve.

    Self time is a call's duration minus the time of the traced calls made
    inside it and of calibration samples taken during it. Spans are
    aggregated as they close rather than stored.
    """

    def __init__(self, calibration: Calibration | None = None):
        self.stats: dict[str, list] = {}   # qualname -> [calls, total_s, self_s]
        self.absent: list[str] = []
        self.step_kernel_calls: list[int] = []
        self.fields_created = 0
        self._stack: list[float] = []
        self._patches = Patches()
        self._calibration = calibration

    def install(self) -> None:
        for module_name, names in TRACED.items():
            module = sys.modules.get(f"nstorus.{module_name}")
            for name in names:
                qualname = f"{module_name}.{name}"
                target = getattr(module, name, None) if module else None
                if not callable(target):
                    self.absent.append(qualname)
                    continue
                self._patches.replace(target, self._wrap(qualname, target))
        spectral = getattr(sys.modules.get("nstorus.fields"), "SpectralField", None)
        if spectral is None:
            self.absent.append("fields.SpectralField")
        else:
            init = spectral.__init__

            def counting_init(obj, *args, **kwargs):
                self.fields_created += 1
                init(obj, *args, **kwargs)

            self._patches.set_attr(spectral, "__init__", counting_init)

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, qualname, fn):
        entry = self.stats.setdefault(qualname, [0, 0.0, 0.0])
        stack = self._stack
        is_step = qualname == STEP_FUNCTION
        clock = time.perf_counter
        calibration = self._calibration

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kernel = self.stats.get(KERNEL_FUNCTION)
            kernel_before = kernel[0] if (is_step and kernel) else 0
            stack.append(0.0)
            paused = calibration.spent if calibration else 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if calibration:
                    elapsed -= calibration.spent - paused
                inner = stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                if is_step and kernel:
                    self.step_kernel_calls.append(kernel[0] - kernel_before)

        return traced


def _config_text(lines, output_dir: Path) -> str:
    return "\n".join([*lines, f"output_dir = {output_dir}"]) + "\n"


def _solve(solve: str, runner, cfg, observed, calibration: Calibration) -> dict:
    """One repetition of the workload's solve calls; returns its outcome.

    solve_wall_s is the wall time less the calibration samples taken during
    it; solve_s is that time scaled to the reference speed.
    """
    rep = {"picard_iterations": None}
    calibration.start()
    start = time.perf_counter()
    try:
        if solve == "oracle":
            outcome = runner.run_oracle(cfg)
        else:
            outcome = runner.run(cfg)
            if solve == "run+check" and outcome.status == 0:
                checked = runner.check_run(cfg.output_dir)
                rep["check_status"] = checked.status
                rep["check_message"] = checked.message
            rep["fp_iterations"] = [r.fp_iterations for r in outcome.records]
        wall = time.perf_counter() - start - calibration.spent
    finally:
        calibration.stop()
    rep["solve_wall_s"] = wall
    rep["solve_s"] = wall * calibration.scale()
    rep["calibration_samples"] = len(calibration.samples)
    rep["calibration_mean_s"] = calibration.mean_s()
    rep["status"] = outcome.status
    rep["message"] = outcome.message
    if observed:
        rep["picard_iterations"] = observed[-1]
    return rep


def main(argv) -> int:
    job = json.loads(argv[1])
    work_dir = Path(job["work_dir"])
    result: dict = {}

    start = time.perf_counter()
    import nstorus
    from nstorus import config, fields, lattice, operators, picard, runner
    cfg = config.parse_config(_config_text(job["config"], work_dir))
    lattice_start = time.perf_counter()
    lat = lattice.get_lattice(cfg.lattice_spec())
    zero = fields.SpectralField.zero(lat)
    operators.bilinear(zero, zero)
    lattice_end = time.perf_counter()
    config.generate_ic(cfg)
    setup_wall = time.perf_counter() - start
    # The set-up is short, so samples right after it give its speed.
    calibration = Calibration()
    calibration.sample(2)
    calibration.samples.clear()
    calibration.sample(SETUP_CALIBRATION_SAMPLES)
    result["setup_wall_s"] = setup_wall
    result["setup_s"] = setup_wall * calibration.scale()
    result["lattice_setup_s"] = (lattice_end - lattice_start) * calibration.scale()
    result["lattice_sites"] = len(lat)
    result["nstorus_file"] = nstorus.__file__
    import numpy
    result["numpy_version"] = numpy.__version__

    if job["mode"] == "check":
        outcome = runner.run(cfg)
        result.update(status=outcome.status, message=outcome.message,
                      oracle_max_diff=outcome.oracle_max_diff)
    elif job["mode"] == "solve":
        # The Picard iteration count is observed on every solve (one extra
        # call per picard_solve) so that untraced runs can be checked too.
        observed: list[int] = []
        solve_fn = picard.picard_solve

        def observing_solve(*args, **kwargs):
            trajectory = solve_fn(*args, **kwargs)
            observed.append(trajectory.iterations_used)
            return trajectory

        Patches().replace(solve_fn, observing_solve)
        tracer = Tracer(calibration) if job["trace"] else None
        if tracer:
            tracer.install()
        try:
            result.update(_solve(job["solve"], runner, cfg, observed, calibration))
        except Exception:
            result.update(status=None, message=traceback.format_exc())
        if tracer:
            # Scaled like solve_s, so that layer times and solve_s compare.
            scale = calibration.scale()
            stats = {name: [calls, total * scale, own * scale]
                     for name, (calls, total, own) in tracer.stats.items()}
            result.update(stats=stats, absent=tracer.absent,
                          fields_created=tracer.fields_created,
                          step_kernel_calls=tracer.step_kernel_calls)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
