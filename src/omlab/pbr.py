"""The product-preparation no-go scenario as exact constraint satisfaction.

The scenario pairs the four product preparations over {|0>, |+>} with the
entangled four-outcome basis that is orthogonal to them one by one.  A
forced overlap q is decided at the support level, with no grid: on the grid
of step 1/D the shared ontic state * carries f = ceil(qD)/D or more, so the
cell (*, *) carries >= f^2 in all four preparations, where the zero-Born
pairs force every real outcome to 0.  That chain starves outcome
completeness; with a no-show outcome it puts every no-show rate at >= f^2,
so budgets below f^2 fail, and from f^2 up (three or more ontic states) one
exact LP at p0 = (f, 1-f, 0, ...), p+ = (f, 0, 1-f, ...) gives the witness.
The rest (no forced overlap, or a budget on one or two ontic states) is a
two-stage search: an outer grid over weight vectors and an exact inner LP
over the joint response entries, whose presolve finds the same chains.
The no-show outcome is "absorbed": Born statistics are matched after
post-selecting on real outcomes, and a budget caps each no-show rate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from . import quantum
from .exact import HALF, INV_SQRT2, ONE, ZERO
from .models import (
    EpistemicState,
    OnticSpace,
    OntologicalModel,
    ResponseFunction,
    frac_str,
    reproduction_check,
)
from .simplex import find_feasible
from .toy import ALL_TOY_MEASUREMENTS, CompositeToyState, make_correlated, product_composite, toy_state

PREP_LABELS = ("Psi1", "Psi2", "Psi3", "Psi4")
OUTCOME_LABELS = ("phi1", "phi2", "phi3", "phi4")
NULL = "null"


class PbrError(ValueError):
    pass


# Amplitudes over |00>, |01>, |10>, |11>; the tests rebuild them as sums of
# tensor products of |0>, |1>, |+> and |->.
_PREPARATIONS = {
    "Psi1": (ONE, ZERO, ZERO, ZERO),               # |0>|0>
    "Psi2": (INV_SQRT2, INV_SQRT2, ZERO, ZERO),    # |0>|+>
    "Psi3": (INV_SQRT2, ZERO, INV_SQRT2, ZERO),    # |+>|0>
    "Psi4": (HALF, HALF, HALF, HALF),              # |+>|+>
}
_MEASUREMENT_KETS = {
    "phi1": (ZERO, INV_SQRT2, INV_SQRT2, ZERO),    # (|0>|1> + |1>|0>)/sqrt2
    "phi2": (HALF, -HALF, HALF, HALF),             # (|0>|-> + |1>|+>)/sqrt2
    "phi3": (HALF, HALF, -HALF, HALF),             # (|+>|1> + |->|0>)/sqrt2
    "phi4": (INV_SQRT2, ZERO, ZERO, -INV_SQRT2),   # (|+>|-> + |->|+>)/sqrt2
}


@dataclass(frozen=True)
class PbrScenario:
    preparations: Mapping[str, quantum.Ket]
    measurement_kets: Mapping[str, quantum.Ket]

    def born_table(self) -> dict:
        """Exact Born probabilities, (prep, outcome) -> Fraction: the rank-one
        effect |phi_k><phi_k| gives Tr(E_k rho) = |<phi_k|Psi>|^2."""
        return {(p, k): quantum.inner(self.measurement_kets[k], psi).abs2().real_fraction()
                for p, psi in self.preparations.items() for k in OUTCOME_LABELS}


def gram_defects(kets: Mapping[str, quantum.Ket]) -> list:
    """The label pairs (a, b) whose exact <a|b> differs from the identity's
    entry; empty iff the kets are orthonormal."""
    return [(a, b) for a, b in itertools.product(kets, repeat=2)
            if not (quantum.inner(kets[a], kets[b])
                    - quantum.ExactComplex.of(Fraction(int(a == b)))).is_zero()]


def build_pbr_scenario() -> PbrScenario:
    """Construct the scenario in exact arithmetic; each ket checks its norm.
    Its invariants (an orthonormal measurement basis, <phi_j|Psi_j> = 0) are
    verified by the tests and by the report's checks, not on every
    construction."""
    return PbrScenario({p: quantum.Ket(a) for p, a in _PREPARATIONS.items()},
                       {k: quantum.Ket(a) for k, a in _MEASUREMENT_KETS.items()})


# --------------------------------------------------------------------------
# feasibility problems

MAX_LAMBDA_SIZE = 8


@dataclass(frozen=True)
class FeasibilityProblem:
    """Two-stage search space for a reproducing response function.

    The single-system ontic space has ``lambda_size`` states; epistemic
    weights range over the grid of multiples of 1/grid_denominator.  With
    ``q`` set, both weight vectors must put at least q on the first ontic
    state (the forced overlap).  ``relax_product`` swaps the product-form
    joints for a family of non-product joints that keep only the positive
    shared diagonal cell, the weakest reading under which the argument still
    bites.  ``null_budget`` adds the no-show outcome and caps each
    preparation's unconditioned no-show rate; zero means no escape.
    """

    lambda_size: int = 4
    grid_denominator: int = 4
    q: Fraction | None = Fraction(1, 4)
    relax_product: bool = False
    null_budget: Fraction | None = None

    def __post_init__(self):
        if not 1 <= self.lambda_size <= MAX_LAMBDA_SIZE:
            raise PbrError(f"lambda size must be in 1..{MAX_LAMBDA_SIZE}")
        if self.grid_denominator < 1:
            raise PbrError("grid denominator must be >= 1")
        if self.q is not None:
            object.__setattr__(self, "q", Fraction(self.q))
            if not 0 < self.q <= 1:
                raise PbrError("q must lie in (0, 1]")
        if self.null_budget is not None:
            budget = Fraction(self.null_budget)
            if not 0 <= budget < 1:
                raise PbrError("null budget must lie in [0, 1)")
            # a zero budget is the plain problem: with no no-show rate allowed
            # the post-selected constraints are the direct Born constraints
            object.__setattr__(self, "null_budget", budget or None)

    @property
    def labels(self) -> tuple:
        return tuple(range(1, self.lambda_size + 1))

    @property
    def cells(self) -> tuple:
        return tuple(itertools.product(self.labels, repeat=2))


def weight_grid(n: int, denominator: int, floor: Fraction | None = None) -> Iterator[tuple]:
    """All length-n vectors of multiples of 1/denominator summing to 1,
    optionally with a floor on the first entry.  Mass-concentrated
    vectors come first so that delta-style witnesses are found early."""
    d = denominator

    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for k in range(remaining, -1, -1):
            for rest in rec(remaining - k, slots - 1):
                yield (k,) + rest

    min_floor = 0 if floor is None else math.ceil(floor * d)
    for combo in rec(d, n):
        if combo[0] < min_floor:
            continue
        yield tuple(Fraction(k, d) for k in combo)


def product_joint(p0: Sequence[Fraction], pplus: Sequence[Fraction],
                  labels: Sequence) -> dict:
    """(Prod. 2): joint weights for the four preparations as products."""
    singles = {"0": dict(zip(labels, p0)), "+": dict(zip(labels, pplus))}
    pattern = {"Psi1": ("0", "0"), "Psi2": ("0", "+"), "Psi3": ("+", "0"), "Psi4": ("+", "+")}
    joints = {}
    for prep, (k, l) in pattern.items():
        joints[prep] = {
            (a, b): singles[k][a] * singles[l][b]
            for a, b in itertools.product(labels, repeat=2)
            if singles[k][a] * singles[l][b] > 0
        }
    return joints


def relaxed_joints(p0: Sequence[Fraction], pplus: Sequence[Fraction],
                   labels: Sequence) -> list:
    """Non-product joint families keeping only the shared positive diagonal
    cell that the positivity reading guarantees.

    Every family places the guaranteed q^2-style mass on (l*, l*) and
    redistributes the rest without any product structure: concentrated on a
    preparation-specific private cell, or spread uniformly.
    """
    star = labels[0]
    base = min(p0[0], pplus[0]) ** 2
    cells = list(itertools.product(labels, repeat=2))
    families = [product_joint(p0, pplus, labels)]
    if base <= 0:
        # no shared positive cell: the positivity reading has nothing to add
        return families
    # concentrated: rest of the mass on one private off-diagonal cell each;
    # a one-state space has no such cell, and there base is 1
    spare = [c for c in cells if c != (star, star)]
    concentrated = {}
    for i, prep in enumerate(PREP_LABELS):
        concentrated[prep] = {(star, star): base}
        if spare:
            concentrated[prep][spare[i % len(spare)]] = 1 - base
    families.append(concentrated)
    # spread: rest of the mass uniform over all other cells
    if len(cells) > 1:
        share = (1 - base) / (len(cells) - 1)
        families.append({
            prep: {c: (base if c == (star, star) else share) for c in cells}
            for prep in PREP_LABELS
        })
    return families


BORN_ZERO_PAIRS = tuple((p, k) for p, k in zip(PREP_LABELS, OUTCOME_LABELS))


@dataclass(frozen=True)
class InnerResult:
    feasible: bool
    xi: dict | None            # (outcome, cell) -> Fraction
    certificate: dict | None   # contradiction chain for this joint family


def _inner_feasibility(joints: Mapping[str, Mapping], born: Mapping,
                       cells: Sequence, null_budget: Fraction | None) -> InnerResult:
    """Exact LP over response entries for fixed joint weights.

    Presolve propagates the zero-Born equalities (all coefficients are
    nonnegative, so positive-weight cells force zero entries); if that
    starves an outcome-completeness row the contradiction chain is returned
    directly, otherwise the reduced system goes to the simplex.
    """
    outcomes = list(OUTCOME_LABELS) + ([NULL] if null_budget is not None else [])
    forced: dict = {}
    forced_by: dict = {}
    for prep, k in BORN_ZERO_PAIRS:
        if born[(prep, k)] != 0:
            continue
        for cell, w in joints[prep].items():
            if w > 0 and (k, cell) not in forced:
                forced[(k, cell)] = Fraction(0)
                forced_by[(k, cell)] = prep
    for cell in cells:
        zeroed = [k for k in OUTCOME_LABELS if (k, cell) in forced]
        if len(zeroed) == len(OUTCOME_LABELS):
            if null_budget is None:
                chain = [
                    {"pair": [PREP_LABELS.index(forced_by[(k, cell)]) + 1,
                              OUTCOME_LABELS.index(k) + 1],
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
            forced[(NULL, cell)] = Fraction(1)

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
    for prep in PREP_LABELS:
        for k in OUTCOME_LABELS:
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
                    vn, fxn = term((NULL, cell))
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
        for prep in PREP_LABELS:
            coeffs, const = {}, Fraction(0)
            for cell, w in joints[prep].items():
                v, fx = term((NULL, cell))
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
                            f"forced no-show rate {frac_str(const)} exceeds "
                            f"budget {frac_str(Fraction(null_budget))} for {prep}",
                    })
                continue
            inequalities.append((coeffs, rhs))

    res = find_feasible(len(var_index), equalities, inequalities)
    if not res.feasible:
        return InnerResult(False, None, {
            "lambda": None, "pair": None,
            "violated_equation": "exact LP phase-1 certifies infeasibility "
                                 f"(residual {frac_str(res.phase1_value)})",
        })
    xi = dict(forced)
    for key, idx in var_index.items():
        xi[key] = res.solution[idx]
    return InnerResult(True, xi, None)


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: str                 # "feasible" | "infeasible"
    witness: dict | None
    certificate: dict | None
    tested_points: int          # grid points (times joint families) covered
    grid_note: str
    decided_by: str             # "support" | "grid"

    def to_json(self) -> dict:
        doc = {"status": self.status, "tested_points": self.tested_points,
               "grid_note": self.grid_note, "decided_by": self.decided_by}
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        return doc


def _witness_payload(p0, pplus, joints, xi, labels, outcomes) -> dict:
    return {
        "p0": [frac_str(w) for w in p0],
        "pplus": [frac_str(w) for w in pplus],
        "lambda": list(labels),
        "joints": {prep: {f"{a},{b}": frac_str(w) for (a, b), w in cells.items()}
                   for prep, cells in joints.items()},
        "xi": {f"{k}|{a},{b}": frac_str(v) for (k, (a, b)), v in sorted(
            xi.items(), key=lambda kv: (kv[0][0], kv[0][1]))},
        "outcomes": list(outcomes),
    }


def _star_floor(problem: FeasibilityProblem) -> Fraction:
    """f = ceil(qD)/D: the least grid weight on the shared ontic state."""
    return Fraction(math.ceil(problem.q * problem.grid_denominator), problem.grid_denominator)


def no_show_price(problem: FeasibilityProblem) -> Fraction | None:
    """The least no-show budget that admits a model under the forced overlap:
    f^2 on three or more ontic states; None where no budget below 1 does
    (one or two ontic states, or f = 1)."""
    f = _star_floor(problem)
    return f * f if problem.lambda_size >= 3 and f < 1 else None


def solve_feasibility(problem: FeasibilityProblem,
                      born: Mapping | None = None) -> FeasibilityVerdict:
    """Decide whether a reproducing model exists; exact throughout.

    Returns "feasible" with a witness, or "infeasible" with a contradiction
    certificate.  A forced overlap is decided at the support level (see the
    module docstring); the rest searches the weight grid.  The universal
    statement for arbitrary weights is the analytic theorem; the verdict
    covers the grid stated in ``grid_note``.  ``born`` is the scenario's Born
    table, built here when not given.
    """
    if born is None:
        born = build_pbr_scenario().born_table()
    budget, n, labels = problem.null_budget, problem.lambda_size, problem.labels
    if problem.q is None or (budget is not None and n <= 2):
        return _grid_search(problem, born)
    f = _star_floor(problem)
    if budget is None or budget < f * f:
        # every preparation puts >= f^2 on (*, *) = (1, 1): the presolve's zero chain
        chain = _inner_feasibility(dict.fromkeys(PREP_LABELS, {(1, 1): f * f}),
                                   born, [(1, 1)], None).certificate
        if budget is not None:
            chain.update(bound=frac_str(f * f), budget=frac_str(budget), violated_equation=
                         "no-show rate >= bound in every preparation, above the budget")
        return FeasibilityVerdict("infeasible", None, chain, _grid_size(problem),
                                  _grid_note(problem), "support")
    # p0 = (f, 1-f, 0, ...), p+ = (f, 0, 1-f, ...): one LP on the 3x3 block
    # of cells they weigh
    rest = [Fraction(0)] * (n - 3)
    p0, pplus = [f, 1 - f, Fraction(0)] + rest, [f, Fraction(0), 1 - f] + rest
    joints = product_joint(p0, pplus, labels)
    inner = _inner_feasibility(joints, born, tuple(itertools.product(labels[:3], repeat=2)), budget)
    if not inner.feasible:
        raise PbrError(f"no model at the closed-form point for budget {frac_str(budget)}")
    witness = _witness_payload(p0, pplus, joints, inner.xi, labels, OUTCOME_LABELS + (NULL,))
    return FeasibilityVerdict("feasible", witness, None, 1, _grid_note(problem), "support")


def _grid_size(problem: FeasibilityProblem) -> int:
    """Grid points times joint families under the forced overlap: C(D-k+L-2,
    L-2) weight vectors put k >= ceil(qD) units on the star."""
    n, d = problem.lambda_size, problem.grid_denominator
    side = 1 if n == 1 else sum(math.comb(d - k + n - 2, n - 2)
                                for k in range(math.ceil(problem.q * d), d + 1))
    return side * side * ((3 if n > 1 else 2) if problem.relax_product else 1)


def _grid_search(problem: FeasibilityProblem, born: Mapping) -> FeasibilityVerdict:
    """The weight enumeration: the first witness found, or the certificate of
    the last point once every point (and joint family) is infeasible."""
    labels = problem.labels
    cells = problem.cells
    outcomes = list(OUTCOME_LABELS) + ([NULL] if problem.null_budget is not None else [])
    tested = 0
    last_certificate = None
    grid = list(weight_grid(problem.lambda_size, problem.grid_denominator, floor=problem.q))
    for p0 in grid:
        for pplus in grid:
            families = (relaxed_joints(p0, pplus, labels) if problem.relax_product
                        else [product_joint(p0, pplus, labels)])
            for joints in families:
                tested += 1
                inner = _inner_feasibility(joints, born, cells, problem.null_budget)
                if inner.feasible:
                    witness = _witness_payload(p0, pplus, joints, inner.xi, labels, outcomes)
                    return FeasibilityVerdict("feasible", witness, None, tested,
                                              _grid_note(problem), "grid")
                last_certificate = inner.certificate
    return FeasibilityVerdict("infeasible", None, last_certificate, tested,
                              _grid_note(problem), "grid")


def _grid_note(problem: FeasibilityProblem) -> str:
    q = "none" if problem.q is None else frac_str(problem.q)
    return (f"all weight vectors with step 1/{problem.grid_denominator} on "
            f"{problem.lambda_size} ontic states, forced overlap q={q}, "
            f"relax_product={problem.relax_product}")


# --------------------------------------------------------------------------
# replaying witnesses through the ontological-models framework

def witness_to_model(witness: dict) -> OntologicalModel:
    """Rebuild a verdict witness as a joint-space ontological model with one
    four-or-five outcome measurement, suitable for reproduction_check."""
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


def replay_witness(witness: dict, born: Mapping | None = None) -> dict:
    """Check a witness against the exact Born table.

    Without a null outcome the unconditioned statistics must match; with
    one, the post-selected statistics must match while the raw ones are
    flagged as doing the post-selection work, and ``no_show_rate`` is the
    largest per-preparation no-show rate.  ``born`` is the scenario's Born
    table, built here when not given.
    """
    if born is None:
        born = build_pbr_scenario().born_table()
    model = witness_to_model(witness)
    has_null = NULL in witness["outcomes"]
    if not has_null:
        table = {(p, "R", k): born[(p, k)] for p in PREP_LABELS for k in OUTCOME_LABELS}
        report = reproduction_check(model, table)
        return {"post_selected_match": report.ok, "unconditioned_match": report.ok,
                "rows": len(report.rows)}
    from .models import predicted_probability
    post_ok, raw_ok, null_rates = True, True, []
    for p in PREP_LABELS:
        null_rate = predicted_probability(model, p, "R", NULL)
        null_rates.append(null_rate)
        for k in OUTCOME_LABELS:
            raw = predicted_probability(model, p, "R", k)
            if raw != born[(p, k)]:
                raw_ok = False
            detected = 1 - null_rate
            if detected == 0 or raw / detected != born[(p, k)]:
                post_ok = False
    return {"post_selected_match": post_ok, "unconditioned_match": raw_ok,
            "rows": 16, "no_show_rate": max(null_rates)}


# --------------------------------------------------------------------------
# CHSH demonstrator

@dataclass(frozen=True)
class ChshReport:
    quantum_value: float
    quantum_value_exact: str
    local_bound: Fraction
    toy_maximum: Fraction
    gap: float


def _singlet_correlation(ka: int, kb: int):
    """<singlet| A(ka) (x) B(kb) |singlet> at eighth-of-pi angles, exact."""
    obs = quantum.kron(quantum.spin_observable_eighth(ka),
                       quantum.spin_observable_eighth(kb))
    val = quantum.expectation(quantum.SINGLET, obs)
    if not val.is_real():
        raise PbrError("correlation came out complex")
    return val


def _toy_observables():
    """All +/-1 valued block observables on one toy system."""
    obs = []
    for meas in ALL_TOY_MEASUREMENTS:
        pos, neg = meas.partition
        obs.append({**{s: 1 for s in pos}, **{s: -1 for s in neg}})
        obs.append({**{s: -1 for s in pos}, **{s: 1 for s in neg}})
    return obs


def _toy_kb_composites():
    states = []
    two_supports = [frozenset(c) for c in itertools.combinations(range(1, 5), 2)]
    for sa, sb in itertools.product(two_supports, repeat=2):
        states.append(product_composite(toy_state(*sa), toy_state(*sb)))
    for image in itertools.permutations(range(1, 5)):
        states.append(make_correlated(dict(zip(range(1, 5), image))))
    states.append(CompositeToyState(frozenset(itertools.product(range(1, 5), repeat=2))))
    return states


def _toy_chsh_maximum(state: CompositeToyState, observables: Sequence[dict]) -> Fraction:
    """max |S| over the settings (a1, a2, b1, b2), with S = c[a1][b1] +
    c[a1][b2] + c[a2][b1] - c[a2][b2] and c the correlations as integer
    numerators over |support|.  For fixed (a1, a2), S = u[b1] + v[b2] with
    u = c[a1] + c[a2] and v = c[a1] - c[a2], so |S| peaks at max u + max v
    or at -(min u + min v)."""
    corr = [[sum(oa[a] * ob[b] for a, b in state.support) for ob in observables]
            for oa in observables]
    best = 0
    for c1, c2 in itertools.product(corr, repeat=2):
        u = [x + y for x, y in zip(c1, c2)]
        v = [x - y for x, y in zip(c1, c2)]
        best = max(best, max(u) + max(v), -(min(u) + min(v)))
    return Fraction(best, len(state.support))


def chsh_gap_demo() -> ChshReport:
    """Quantum singlet value at the maximal-violation angles vs the local
    deterministic bound and the best any toy composite state can do."""
    # settings: A at 0 and pi/2, B at pi/4 and -pi/4 (in eighths of pi)
    e = {}
    for ka, kb in itertools.product((0, 2), (1, 7)):
        e[(ka, kb)] = _singlet_correlation(ka, kb)
    s_exact = e[(0, 1)] + e[(0, 7)] + e[(2, 1)] - e[(2, 7)]
    s_val = abs(s_exact.to_complex().real)

    best_local = max(
        abs(a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2)
        for a1, a2, b1, b2 in itertools.product((1, -1), repeat=4)
    )

    observables = _toy_observables()
    toy_best = max(_toy_chsh_maximum(state, observables) for state in _toy_kb_composites())
    return ChshReport(
        quantum_value=s_val,
        quantum_value_exact="2*sqrt2",
        local_bound=Fraction(best_local),
        toy_maximum=toy_best,
        gap=s_val - float(best_local),
    )
