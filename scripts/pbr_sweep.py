#!/usr/bin/env python3
"""Sweep the feasibility search over overlap floors and grid resolutions, and
print the price of the no-show escape: the least budget b*(q, D) that admits
a model, for 3..6 ontic states."""

import argparse
from dataclasses import replace
from fractions import Fraction

from omlab import pbr

PRICE_QS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda-size", type=int, default=4)
    ap.add_argument("--max-denominator", type=int, default=6)
    args = ap.parse_args()
    born = pbr.build_pbr_scenario().born_table()
    denominators = range(2, args.max_denominator + 1)

    print("forced-overlap sweep (product joints):")
    for d in denominators:
        for q in (Fraction(1, 4), Fraction(1, 2)):
            if q < Fraction(1, d):
                continue
            problem = pbr.FeasibilityProblem(lambda_size=args.lambda_size,
                                             grid_denominator=d, q=q)
            v = pbr.solve_feasibility(problem, born)
            print(f"  q={q} step=1/{d}: {v.status} "
                  f"({v.tested_points} weight assignments, decided by {v.decided_by})")

    # b* = f^2 with f = ceil(qD)/D; each entry is the largest no-show rate of
    # the witness solved at b*, found by substitution ("-": no budget below 1)
    print("no-show price b*(q, D), product joints:")
    print("  L  q    " + "".join(f"{'D=' + str(d):>8}" for d in denominators))
    for size in range(3, 7):
        for q in PRICE_QS:
            cells = []
            for d in denominators:
                problem = pbr.FeasibilityProblem(lambda_size=size, grid_denominator=d, q=q)
                price = pbr.no_show_price(problem)
                if price is None:
                    cells.append("-")
                    continue
                v = pbr.solve_feasibility(replace(problem, null_budget=price), born)
                rate = pbr.replay_witness(v.witness, born)["no_show_rate"]
                cells.append(str(rate) if rate == price else f"{price}!={rate}")
            print(f"  {size}  {str(q):5}" + "".join(f"{c:>8}" for c in cells))


if __name__ == "__main__":
    main()
