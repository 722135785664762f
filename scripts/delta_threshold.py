#!/usr/bin/env python3
"""Bracket the largest initial-data scale for which the remainder fixed
point still contracts, by bisection over delta."""

import argparse

from nstorus import RunConfig
from nstorus.cli import BISECT_FLAGS
from nstorus.runner import bisect_delta


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output-dir", default="out_bisect")
    # only the bisection flags given are passed on (see BISECT_FLAGS)
    for name, kind in BISECT_FLAGS.items():
        ap.add_argument("--" + name.replace("_", "-"), type=kind, default=argparse.SUPPRESS)
    args = vars(ap.parse_args())

    config = RunConfig(k_max=args.pop("k_max"), rng_seed=args.pop("seed"),
                       output_dir=args.pop("output_dir"))
    outcome = bisect_delta(config, **args)
    for it, delta, ok in outcome.rows:
        print(f"step {it:>2}  delta={delta:.6e}  "
              f"{'converged' if ok else 'diverged'}")
    print(outcome.message)


if __name__ == "__main__":
    main()
