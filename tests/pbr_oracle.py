"""Enumeration oracle for the PBR verdicts: the weight grid, the relaxed joint
families and one exact inner LP per grid point.

``pbr.solve_feasibility`` decides every problem at the support level; this
search decides the same problems point by point, so the tests can grade the
closed forms against an exhaustive run instead of against themselves.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from omlab import pbr


def weight_grid(n: int, denominator: int, floor: Fraction | None = None) -> list:
    """All length-n vectors of multiples of 1/denominator summing to 1,
    optionally with a floor on the first entry.  Mass-concentrated vectors
    come first, so point-mass witnesses are found early."""

    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for k in range(remaining, -1, -1):
            for rest in rec(remaining - k, slots - 1):
                yield (k,) + rest

    min_floor = 0 if floor is None else math.ceil(floor * denominator)
    return [tuple(Fraction(k, denominator) for k in combo)
            for combo in rec(denominator, n) if combo[0] >= min_floor]


def relaxed_joints(p0, pplus, labels) -> list:
    """The product joints, then two non-product families that keep only the
    shared positive diagonal cell (*, *) with its min(p0*, p+*)^2 mass and
    put the rest on one private cell per preparation (concentrated) or
    uniformly on every other cell (spread)."""
    star = labels[0]
    base = min(p0[0], pplus[0]) ** 2
    cells = list(itertools.product(labels, repeat=2))
    families = [pbr.product_joint(p0, pplus, labels)]
    if base <= 0:
        return families
    spare = [c for c in cells if c != (star, star)]
    concentrated = {}
    for i, prep in enumerate(pbr.PREP_LABELS):
        concentrated[prep] = {(star, star): base}
        if spare:
            concentrated[prep][spare[i % len(spare)]] = 1 - base
    families.append(concentrated)
    if len(cells) > 1:
        share = (1 - base) / (len(cells) - 1)
        families.append({prep: {c: (base if c == (star, star) else share) for c in cells}
                         for prep in pbr.PREP_LABELS})
    return families


def grid_search(problem: pbr.FeasibilityProblem, born) -> tuple:
    """(status, tested points, witness p0/p+ or the last point's certificate):
    the first grid point whose inner LP is feasible, or the certificate of
    the last point once every point and joint family is infeasible."""
    labels = problem.labels
    cells = tuple(itertools.product(labels, repeat=2))
    grid = weight_grid(problem.lambda_size, problem.grid_denominator, floor=problem.q)
    tested, certificate = 0, None
    for p0, pplus in itertools.product(grid, repeat=2):
        families = (relaxed_joints(p0, pplus, labels) if problem.relax_product
                    else [pbr.product_joint(p0, pplus, labels)])
        for joints in families:
            tested += 1
            inner = pbr._inner_feasibility(joints, born, cells, problem.null_budget)
            if inner.feasible:
                return "feasible", tested, (p0, pplus)
            certificate = inner.certificate
    return "infeasible", tested, certificate
