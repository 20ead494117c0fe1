#!/usr/bin/env python3
"""Reproduce the typicality-to-novelty phase transition on the built-in fixture.

Sweeps the novel fraction alpha across several budgets on the canonical
synthetic pool (8 dense maneuver archetypes at 90% mass, 40 rare ones at
10%), scores the k-NN surrogate against a paired random baseline, prints
an improvement-over-random table (positive = the strategy beat random),
and optionally writes the raw rows to CSV.

With the defaults the best alpha is 0 at budgets 0.05 and 0.10, 1 at 0.20
and 0.8 at 0.40. The fixture starts with nothing labeled, so no cluster is
familiar and every alpha = 0 pick is a fallback pick: alpha = 0's edge over
random (+0.01 to +0.07 m) is one uniform draw against another.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trajcurate import (
    SamplingConfig,
    canonical_pool_spec,
    run_al_experiment,
    synthetic_pool,
)
from trajcurate.io import write_experiment_csv
from trajcurate.synth import CANONICAL_TAU


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pool-size", type=int, default=2000)
    parser.add_argument("--seeds", type=int, default=10, help="training seeds per cell")
    parser.add_argument(
        "--alphas", default="0,0.2,0.4,0.6,0.8,1", help="comma list of novel fractions"
    )
    parser.add_argument("--beta", type=float, default=0.2, help="cluster depth cap")
    parser.add_argument(
        "--budgets", default="0.05,0.1,0.2,0.4", help="comma list of budget fractions"
    )
    parser.add_argument("--tau", type=float, default=CANONICAL_TAU)
    parser.add_argument("--out", help="optional CSV of the raw paired rows")
    args = parser.parse_args()

    alphas = [float(a) for a in args.alphas.split(",")]
    budgets = [float(b) for b in args.budgets.split(",")]

    print(f"generating canonical pool ({args.pool_size} trajectory-states) ...")
    pool = synthetic_pool(canonical_pool_spec(args.pool_size))
    grid = [
        SamplingConfig(alpha=a, beta=args.beta, budget=b, tau=args.tau)
        for b in budgets
        for a in alphas
    ]
    t0 = time.time()
    result = run_al_experiment(pool, grid, seeds=range(args.seeds))
    print(f"ran {len(grid)} cells x {args.seeds} seeds in {time.time() - t0:.1f}s\n")

    header = "budget " + "".join(f"  a={a:<5}" for a in alphas)
    print("mean minADE_5 improvement over random (positive = better than random)")
    print(header)
    for b in budgets:
        deltas = []
        for a in alphas:
            d5 = result.mean_made5(b, a, args.beta, "random") - result.mean_made5(
                b, a, args.beta, "active"
            )
            deltas.append(d5)
        print(f"{b:6.2f} " + "".join(f" {d:+7.3f}" for d in deltas))

    best = {
        b: max(alphas, key=lambda a: result.mean_made5(b, a, args.beta, "random")
               - result.mean_made5(b, a, args.beta, "active"))
        for b in budgets
    }
    print("\nbest alpha per budget:", {f"{b:.2f}": best[b] for b in budgets})

    if args.out:
        write_experiment_csv(result, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
