"""Exact rational linear feasibility via a phase-1 simplex: the tests' LP
oracle for the PBR verdicts, which ``pbr_oracle`` runs at every grid point.

Decides whether {x >= 0 : A_eq x = b_eq, A_ub x <= b_ub} is nonempty with
Bland's rule (no cycling, no floating point), and returns a basic feasible
point when one exists.  Problem sizes here are a few dozen variables, so a
dense tableau is fine.

The tableau holds integers only.  Each row is flipped to a nonnegative
right-hand side and scaled once by the lcm of its denominators, and every
pivot is an integer-preserving (Bareiss/Edmonds) step: the new entry is
(piv * c - f * p) // d with d the previous pivot, a division that is exact
(Bareiss, Math. Comp. 22, 1968).  The integer tableau is the rational one
times d, and times the row's scale while the row's artificial is basic;
those factors are positive and cancel in the ratio test, so the pivots are
the ones a Fraction tableau takes.  ``check_solution`` re-checks witnesses
in plain Fraction arithmetic, independently of the tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    solution: tuple | None  # values for the n_vars original variables
    phase1_value: Fraction  # minimized infeasibility; 0 iff feasible
    pivots: int = 0         # simplex pivots taken


def _dense(coeffs: Mapping[int, Fraction], n: int) -> list:
    row = [ZERO] * n
    for j, c in coeffs.items():
        if not 0 <= j < n:
            raise ValueError(f"variable index {j} out of range")
        row[j] += Fraction(c)
    return row


def _integer_row(row: list, b: Fraction) -> tuple:
    """(scale, entries): the row with its rhs appended, negated when the rhs
    is negative and multiplied by scale, the lcm of its denominators."""
    entries = row + [b]
    scale = math.lcm(*(c.denominator for c in entries))
    sign = -1 if b < 0 else 1
    return scale, [sign * c.numerator * (scale // c.denominator) for c in entries]


def find_feasible(n_vars: int,
                  equalities: Sequence[tuple] = (),
                  inequalities: Sequence[tuple] = ()) -> LPResult:
    """Feasibility of the system over x >= 0.

    ``equalities``/``inequalities`` are (coeff_map, rhs) pairs encoding
    sum_j c_j x_j = rhs and <= rhs respectively.
    """
    n = n_vars + len(inequalities)
    rows = []
    for coeffs, b in equalities:
        rows.append(_integer_row(_dense(coeffs, n), Fraction(b)))
    for i, (coeffs, b) in enumerate(inequalities):
        row = _dense(coeffs, n)
        row[n_vars + i] = ONE
        rows.append(_integer_row(row, Fraction(b)))
    m = len(rows)
    if m == 0:
        return LPResult(True, tuple([ZERO] * n_vars), ZERO)

    # Every row starts with its own artificial variable basic (column n + i).
    # Artificials never re-enter (a basic one has reduced cost 0 and one that
    # left is dropped), so their columns are not stored; column n is the rhs.
    tableau = [entries for _, entries in rows]
    basis = [n + i for i in range(m)]
    # Phase-1 objective: minimize the sum of artificials.  The reduced-cost
    # row is the negated sum of the unscaled rows, times lcm of the scales.
    lcm = math.lcm(*(scale for scale, _ in rows))
    cost = [0] * (n + 1)
    for scale, entries in rows:
        k = lcm // scale
        cost = [c - k * e for c, e in zip(cost, entries)]

    d = 1  # the previous pivot, the exact divisor of the next step
    pivots = 0
    while True:
        # Bland: the smallest column that decreases the artificial sum
        enter = next((j for j in range(n) if cost[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = tableau[i][enter]
            if a <= 0:
                continue
            if leave >= 0:
                # keep the smaller rhs / a (cross-multiplied), ties to the
                # smaller basic index
                lhs, rhs = tableau[i][n] * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_b, best_a = i, tableau[i][n], a
        if leave < 0:
            # Unbounded in phase 1 cannot happen (objective bounded below by 0)
            raise RuntimeError("phase-1 simplex lost boundedness")
        piv_row = tableau[leave]
        piv = piv_row[enter]
        for i in range(m):
            if i != leave:
                f = tableau[i][enter]
                if f:
                    tableau[i] = [(piv * c - f * p) // d for c, p in zip(tableau[i], piv_row)]
                else:  # the same step without the f * p terms
                    tableau[i] = [piv * c // d for c in tableau[i]]
        f = cost[enter]
        cost = [(piv * c - f * p) // d for c, p in zip(cost, piv_row)]
        d = piv
        basis[leave] = enter
        pivots += 1

    if cost[n] < 0:  # the phase-1 objective, -cost[n] / (d * lcm), is positive
        return LPResult(False, None, Fraction(-cost[n], d * lcm), pivots)
    # a row whose basic variable is not an artificial is d times its
    # rational values
    solution = [ZERO] * n_vars
    for i, b in enumerate(basis):
        if b < n_vars:
            solution[b] = Fraction(tableau[i][n], d)
    return LPResult(True, tuple(solution), ZERO, pivots)


def check_solution(n_vars: int, solution: Sequence[Fraction],
                   equalities: Sequence[tuple] = (),
                   inequalities: Sequence[tuple] = ()) -> bool:
    """Exact substitution check, used to validate witnesses independently."""
    x = list(solution) + [ZERO]
    if any(v < 0 for v in solution):
        return False
    for coeffs, b in equalities:
        if sum(Fraction(c) * x[j] for j, c in coeffs.items()) != Fraction(b):
            return False
    for coeffs, b in inequalities:
        if sum(Fraction(c) * x[j] for j, c in coeffs.items()) > Fraction(b):
            return False
    return True
