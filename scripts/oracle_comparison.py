#!/usr/bin/env python3
"""Cross-check the induction solver against the direct Picard solver on the
same lattice and quadrature grid, printing mode-wise deviations at integer
times."""

import argparse

from nstorus import RunConfig, generate_ic, picard_solve
from nstorus.induction import DecompositionState, induction_steps
from nstorus.picard import integer_time_deviations


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=1e-3)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--horizon", type=int, default=3)
    ap.add_argument("--ic-kind", default="two_mode",
                    choices=["two_mode", "single_mode", "random_phi_ball"])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    config = RunConfig(delta=args.delta, k_max=args.k_max, ic_kind=args.ic_kind,
                       rng_seed=args.seed)
    params = config.solver_params()
    v0 = generate_ic(config)

    steps = induction_steps(DecompositionState.initial(v0), params, args.horizon)
    velocities = [v0] + [sol.velocity.last_slice() for sol, _, _ in steps]

    trajectory = picard_solve(v0, float(args.horizon), params)
    print(f"picard converged in {trajectory.iterations_used} iterations "
          f"(final update {trajectory.final_update_norm:.3e})")
    diffs = integer_time_deviations(trajectory, velocities, params.substeps)
    for m, diff in enumerate(diffs):
        print(f"m={m}: max mode-wise |v_induction - v_picard| = {diff:.3e}")
    print(f"worst deviation {diffs.max():.3e}")


if __name__ == "__main__":
    main()
