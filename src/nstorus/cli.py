"""Command-line front end.

Subcommands:
    run           advance the induction solver and write CSV artifacts
    oracle        Picard-only reference run
    check         certificate-only re-analysis of a saved run directory
    bisect-delta  bracket the largest converging smallness scale

Flags mirror the configuration keys; `--config PATH` loads a UTF-8 file
first and later flags override it. The environment variable
NSTORUS_OUTPUT_DIR, when set, overrides the output directory.

Exit codes: 0 success, 1 configuration or checkpoint error (printed as
"error: ..." on stderr), 2 usage error (argparse),
3 fixed-point non-convergence, 4 oracle mismatch, 5 check found a phi norm
above the envelope 2 delta, 6 a convolution worker died (run still writes
the CSVs of the steps that finished).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import RunConfig, config_from_mapping, read_config
from .errors import CheckpointError, ConfigError, WorkerError
from .runner import (STATUS_CONFIG_ERROR, STATUS_WORKER_FAILURE, bisect_delta, check_run, run,
                     run_oracle)

OUTPUT_DIR_ENV = "NSTORUS_OUTPUT_DIR"
# bisect-delta's own flags, by keyword of runner.bisect_delta: an absent
# flag is not passed, so the function's signature holds every default.
BISECT_FLAGS = {"delta_lo": float, "delta_hi": float, "bisect_steps": int, "bisect_horizon": int}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="configuration file (flat key = value lines)")
    for name in RunConfig.DEFAULTS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, default=argparse.SUPPRESS,
                            metavar=name.upper())


def _build_config(args: argparse.Namespace) -> RunConfig:
    # the file is validated on its own before the flags override it
    base = read_config(args.config) if args.config else RunConfig()
    mapping = {name: getattr(args, name, getattr(base, name)) for name in RunConfig.DEFAULTS}
    if os.environ.get(OUTPUT_DIR_ENV):
        mapping["output_dir"] = os.environ[OUTPUT_DIR_ENV]
    return config_from_mapping(mapping)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nstorus",
        description="Spectral unit-interval induction solver for 3D "
                    "Navier-Stokes on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance the induction solver")
    _add_config_flags(p_run)

    p_oracle = sub.add_parser("oracle", help="Picard-only reference run")
    _add_config_flags(p_oracle)

    p_check = sub.add_parser("check", help="re-analyze saved fields")
    p_check.add_argument("run_dir", help="directory written by a previous run")

    p_bisect = sub.add_parser("bisect-delta",
                              help="bracket the largest converging delta")
    _add_config_flags(p_bisect)
    for name, kind in BISECT_FLAGS.items():
        p_bisect.add_argument("--" + name.replace("_", "-"), type=kind,
                              default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            outcome = check_run(args.run_dir)
        else:
            config = _build_config(args)
            if args.command == "run":
                outcome = run(config)
            elif args.command == "oracle":
                outcome = run_oracle(config)
            else:
                outcome = bisect_delta(config, **{k: v for k, v in vars(args).items()
                                                  if k in BISECT_FLAGS})
    except (ConfigError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STATUS_CONFIG_ERROR
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STATUS_WORKER_FAILURE
    print(outcome.message)
    return outcome.status


if __name__ == "__main__":
    sys.exit(main())
