#!/usr/bin/env python3
"""Sweep the feasibility search over overlap floors, grid resolutions and
null budgets; print one verdict per configuration."""

import argparse
from dataclasses import replace
from fractions import Fraction

from omlab import pbr


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda-size", type=int, default=4)
    ap.add_argument("--max-denominator", type=int, default=4)
    args = ap.parse_args()

    print("forced-overlap sweep (product joints):")
    for d in range(2, args.max_denominator + 1):
        for q in (Fraction(1, 4), Fraction(1, 2)):
            if q < Fraction(1, d):
                continue
            problem = pbr.FeasibilityProblem(lambda_size=args.lambda_size,
                                             grid_denominator=d, q=q)
            v = pbr.solve_feasibility(problem)
            print(f"  q={q} step=1/{d}: {v.status} "
                  f"({v.tested_points} weight assignments)")

    print("relaxed positivity reading:")
    v = pbr.solve_feasibility(pbr.FeasibilityProblem(
        lambda_size=args.lambda_size, grid_denominator=4,
        q=Fraction(1, 4), relax_product=True))
    print(f"  q=1/4 step=1/4: {v.status} ({v.tested_points} joint families)")

    print("no-show budget sweep at q=1/4:")
    base = pbr.FeasibilityProblem(lambda_size=args.lambda_size,
                                  grid_denominator=4, q=Fraction(1, 4))
    for budget in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(0)):
        v = pbr.solve_feasibility(replace(base, null_budget=budget))
        note = ""
        if v.status == "feasible":
            replay = pbr.replay_witness(v.witness)
            note = (f"  post-selected match={replay['post_selected_match']}, "
                    f"raw match={replay['unconditioned_match']}")
        print(f"  budget={budget}: {v.status}{note}")


if __name__ == "__main__":
    main()
