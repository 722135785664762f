#!/usr/bin/env python3
"""Horizon-20 certificate study: advance random small data and print the
per-step fitted constants, contraction coefficients and iteration counts."""

import argparse
import time

from nstorus import RunConfig, generate_ic
from nstorus.induction import DecompositionState, induction_steps


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=1e-3)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--horizon", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    config = RunConfig(delta=args.delta, k_max=args.k_max, rng_seed=args.seed)
    state = DecompositionState.initial(generate_ic(config))

    print(f"delta={args.delta}  k_max={args.k_max}  horizon={args.horizon}  seed={args.seed}")
    print(f"{'m':>3} {'iters':>5} {'c1':>10} {'c2':>10} {'gauss_D':>10} "
          f"{'rem_D':>10} {'decay':>7} {'phi_sup':>10}")
    start = time.perf_counter()
    for _, _, r in induction_steps(state, config, args.horizon):
        print(f"{r.m:>3} {r.fp_iterations:>5} {r.c1:>10.3e} {r.c2:>10.3e} "
              f"{r.gaussian_D:>10.3e} {r.remainder_D:>10.3e} "
              f"{r.remainder_decay:>7.3f} {r.phi_sup:>10.3e}")
    print(f"total {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
