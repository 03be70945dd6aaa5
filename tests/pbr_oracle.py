"""Enumeration oracle for the PBR verdicts: the weight grid, the relaxed joint
families and one exact inner LP per grid point, solved by the test-side
simplex (``tests/simplex.py``); and the ontological-models grader of the
witnesses.

``pbr.solve_feasibility`` decides every problem at the support level; this
search decides the same problems point by point, so the tests can grade the
closed forms against an exhaustive run instead of against themselves.
``witness_to_model`` rebuilds a witness as an ``OntologicalModel``, so
``pbr.replay_witness``'s integer replay can be graded against
``models.predicted_probability`` and ``models.reproduction_check``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from simplex import find_feasible

from omlab import pbr
from omlab.models import (
    EpistemicState,
    OnticSpace,
    OntologicalModel,
    ResponseFunction,
    predicted_probability,
)


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


@dataclass(frozen=True)
class InnerResult:
    feasible: bool
    xi: dict | None            # (outcome, cell) -> Fraction
    certificate: dict | None   # contradiction chain for this joint family


def inner_feasibility(joints: Mapping[str, Mapping], born: Mapping,
                      cells: Sequence, null_budget: Fraction | None) -> InnerResult:
    """Exact LP over response entries for fixed joint weights.

    Presolve propagates the zero-Born equalities (all coefficients are
    nonnegative, so positive-weight cells force zero entries); if that
    starves an outcome-completeness row the contradiction chain is returned
    directly, otherwise the reduced system goes to the simplex, whose
    infeasible answer carries no certificate.
    """
    outcomes = list(pbr.OUTCOME_LABELS) + ([pbr.NULL] if null_budget is not None else [])
    forced: dict = {}
    forced_by: dict = {}
    for prep, k in pbr.BORN_ZERO_PAIRS:
        if born[(prep, k)] != 0:
            continue
        for cell, w in joints[prep].items():
            if w > 0 and (k, cell) not in forced:
                forced[(k, cell)] = Fraction(0)
                forced_by[(k, cell)] = prep
    for cell in cells:
        zeroed = [k for k in pbr.OUTCOME_LABELS if (k, cell) in forced]
        if len(zeroed) == len(pbr.OUTCOME_LABELS):
            if null_budget is None:
                chain = [
                    {"pair": [pbr.PREP_LABELS.index(forced_by[(k, cell)]) + 1,
                              pbr.OUTCOME_LABELS.index(k) + 1],
                     "lambda": list(cell),
                     "violated_equation": "Born=0 vs model>0"}
                    for k in zeroed
                ]
                return InnerResult(False, None, {
                    "lambda": list(cell),
                    "forced_zeros": chain,
                    "pair": chain[0]["pair"],
                    "violated_equation":
                        "outcome completeness: sum_k xi(k) = 1 at this cell, "
                        "but every xi(k) is forced to 0 by a zero-Born pair",
                })
            forced[(pbr.NULL, cell)] = Fraction(1)

    var_index = {}
    for k in outcomes:
        for cell in cells:
            if (k, cell) not in forced:
                var_index[(k, cell)] = len(var_index)

    def term(key):
        """(var_id, fixed_value): one of the two is None."""
        if key in forced:
            return None, forced[key]
        return var_index[key], None

    equalities = []
    # outcome completeness per cell
    for cell in cells:
        coeffs, const = {}, Fraction(0)
        for k in outcomes:
            v, fx = term((k, cell))
            if v is None:
                const += fx
            else:
                coeffs[v] = coeffs.get(v, Fraction(0)) + 1
        if not coeffs:  # every real outcome forced to 0 and the no-show to 1
            continue
        equalities.append((coeffs, Fraction(1) - const))
    # Born reproduction; with a null outcome the match is post-selected:
    # sum_cell p xi(k) = born * (1 - sum_cell p xi(null))
    for prep in pbr.PREP_LABELS:
        for k in pbr.OUTCOME_LABELS:
            b = born[(prep, k)]
            coeffs, const = {}, Fraction(0)
            for cell, w in joints[prep].items():
                if w == 0:
                    continue
                v, fx = term((k, cell))
                if v is None:
                    const += w * fx
                else:
                    coeffs[v] = coeffs.get(v, Fraction(0)) + w
                if null_budget is not None:
                    vn, fxn = term((pbr.NULL, cell))
                    if vn is None:
                        const += b * w * fxn
                    else:
                        coeffs[vn] = coeffs.get(vn, Fraction(0)) + b * w
            # A row with every entry forced balances.  Without a budget the
            # completeness chain has returned unless b = 0; with one, the
            # forced no-shows make its rhs b - b * sum(w) = 0.
            if coeffs:
                equalities.append((coeffs, b - const))
    inequalities = []
    if null_budget is not None:
        # per-preparation cap on the unconditioned no-show rate
        for prep in pbr.PREP_LABELS:
            coeffs, const = {}, Fraction(0)
            for cell, w in joints[prep].items():
                v, fx = term((pbr.NULL, cell))
                if v is None:
                    const += w * fx
                else:
                    coeffs[v] = coeffs.get(v, Fraction(0)) + w
            rhs = null_budget - const
            if not coeffs:
                if const > null_budget:
                    return InnerResult(False, None, {
                        "lambda": None, "pair": None,
                        "violated_equation":
                            f"forced no-show rate {pbr.frac_str(const)} exceeds "
                            f"budget {pbr.frac_str(Fraction(null_budget))} for {prep}",
                    })
                continue
            inequalities.append((coeffs, rhs))

    res = find_feasible(len(var_index), equalities, inequalities)
    if not res.feasible:
        return InnerResult(False, None, None)
    xi = dict(forced)
    for key, idx in var_index.items():
        xi[key] = res.solution[idx]
    return InnerResult(True, xi, None)


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
            inner = inner_feasibility(joints, born, cells, problem.null_budget)
            if inner.feasible:
                return "feasible", tested, (p0, pplus)
            certificate = inner.certificate
    return "infeasible", tested, certificate


def witness_to_model(witness: dict) -> OntologicalModel:
    """Rebuild a verdict witness as a joint-space ontological model with one
    four-or-five outcome measurement "R", suitable for reproduction_check."""
    all_cells = sorted({tuple(map(int, key.split(",")))
                        for cells in witness["joints"].values() for key in cells})
    space = OnticSpace(tuple(all_cells))
    preparations = {}
    for prep, cells in witness["joints"].items():
        w = {tuple(map(int, key.split(","))): Fraction(v) for key, v in cells.items()}
        preparations[prep] = EpistemicState(
            space, tuple(w.get(c, Fraction(0)) for c in space.labels))
    outcomes = tuple(witness["outcomes"])
    table = []
    for k in outcomes:
        row = []
        for cell in space.labels:
            key = f"{k}|{cell[0]},{cell[1]}"
            row.append(Fraction(witness["xi"].get(key, "0")))
        table.append(tuple(row))
    measurements = {"R": ResponseFunction(space, outcomes, tuple(table))}
    return OntologicalModel(space, preparations, measurements)


def model_replay(witness: dict, born: Mapping) -> dict:
    """``pbr.replay_witness``'s dict, computed through the model: Fraction
    predictions from ``predicted_probability``, compared with Born raw and
    after post-selection on a real outcome."""
    model = witness_to_model(witness)
    has_null = pbr.NULL in witness["outcomes"]
    post_ok, raw_ok, null_rates = True, True, []
    for p in pbr.PREP_LABELS:
        null_rate = (predicted_probability(model, p, "R", pbr.NULL) if has_null
                     else Fraction(0))
        null_rates.append(null_rate)
        for k in pbr.OUTCOME_LABELS:
            raw = predicted_probability(model, p, "R", k)
            if raw != born[(p, k)]:
                raw_ok = False
            detected = 1 - null_rate
            if detected == 0 or raw / detected != born[(p, k)]:
                post_ok = False
    return {"post_selected_match": post_ok, "unconditioned_match": raw_ok,
            "no_show_rate": max(null_rates)}
