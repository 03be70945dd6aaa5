#!/usr/bin/env python3
"""Sweep the feasibility search over overlap floors and grid resolutions, and
print the price of the no-show escape: the least budget b*(q, D) that admits
a model, for 3..6 ontic states.

Each price is checked by substitution: the witness solved at b* must have a
largest no-show rate of exactly b*.  The script exits 1 if one does not,
marking its cell "price!=rate", else 0.  It takes no options.

    python3 scripts/pbr_sweep.py
"""

import sys
from dataclasses import replace
from fractions import Fraction

from omlab import pbr

LAMBDA_SIZE = 4  # ontic states of the forced-overlap sweep
DENOMINATORS = range(2, 7)  # grid steps 1/2 .. 1/6
PRICE_QS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))


def main() -> int:
    born = pbr.build_pbr_scenario().born_table()

    print("forced-overlap sweep (product joints):")
    for d in DENOMINATORS:
        for q in (Fraction(1, 4), Fraction(1, 2)):
            if q < Fraction(1, d):
                continue
            problem = pbr.FeasibilityProblem(lambda_size=LAMBDA_SIZE, grid_denominator=d, q=q)
            v = pbr.solve_feasibility(problem, born)
            print(f"  q={q} step=1/{d}: {v.status} "
                  f"({v.tested_points} weight assignments, decided by {v.decided_by})")

    # b* = f^2 with f = ceil(qD)/D; each entry is the largest no-show rate of
    # the witness solved at b*, found by substitution ("-": no budget below 1)
    print("no-show price b*(q, D), product joints:")
    print("  L  q    " + "".join(f"{'D=' + str(d):>8}" for d in DENOMINATORS))
    mismatches = 0
    for size in range(3, 7):
        for q in PRICE_QS:
            cells = []
            for d in DENOMINATORS:
                problem = pbr.FeasibilityProblem(lambda_size=size, grid_denominator=d, q=q)
                price = pbr.no_show_price(problem)
                if price is None:
                    cells.append("-")
                    continue
                v = pbr.solve_feasibility(replace(problem, null_budget=price), born)
                rate = pbr.replay_witness(v.witness, born)["no_show_rate"]
                mismatches += rate != price
                cells.append(str(rate) if rate == price else f"{price}!={rate}")
            print(f"  {size}  {str(q):5}" + "".join(f"{c:>8}" for c in cells))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
