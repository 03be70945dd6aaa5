"""The product-preparation no-go scenario as exact constraint satisfaction.

The scenario pairs the four product preparations over {|0>, |+>} with the
entangled four-outcome basis that is orthogonal to them one by one.  Every
verdict is decided at the support level, from which preparations weigh
which cells; no weight grid is searched (arXiv:1111.3328; 1409.1570, s. 7).

* No forced overlap on two or more ontic states: the psi-ontic point
  p0 = e1, p+ = e2 weighs (1,1), (1,2), (2,1), (2,2), one preparation
  each, so each cell answers with its preparation's Born row, times 1 - b
  next to a no-show rate b under a budget b.  One ontic state is one cell.
* A forced overlap q: on the grid of step 1/D the shared ontic state *
  carries f = ceil(qD)/D or more, so (*, *) carries >= f^2 in all four
  preparations, where the zero-Born pairs force every real outcome to 0.
  That chain starves outcome completeness; with a no-show outcome every
  no-show rate is >= f^2, so budgets below f^2 fail.  From f^2 up (three or
  more ontic states) p0 = (f, 1-f, 0, ...), p+ = (f, 0, 1-f, ...) with the
  closed-form response of ``_price_response`` is the witness: a no-show
  only on (*, *), so every no-show rate is exactly f^2.
* A budget on one or two ontic states: at every grid point a preparation
  weighs only cells where the zero-Born pairs leave it no real outcome, so
  its no-show rate is 1.  Product joints: if S0 = S+ = {1, 2} every cell
  lies in all four supports; if S0 = {1}, Psi1 weighs only (1,1); if
  S+ = {1}, Psi4 does.  Relaxed joints: the spread family weighs every cell
  in every preparation (only (1,1) if f = 1); in the concentrated one Psi1
  weighs (1,1) and a cell shared with Psi4, so phi4 (Born value 1/2 for
  Psi1) is forced on both.  The certificate is the grid's last point's.

The no-show outcome is "absorbed": Born statistics are matched after
post-selecting on real outcomes, and a budget caps each no-show rate.  No
verdict solves an LP; ``replay_witness`` checks every witness by exact
substitution, in integer numerators over one common denominator.  It reads
each "n/d" or "n" string with ``int``, and only other forms with ``Fraction``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from . import quantum
from .exact import HALF, INV_SQRT2, ONE, ZERO, ExactComplex
from .reports import CheckResult, fmt, frac_str, row

PREP_LABELS = ("Psi1", "Psi2", "Psi3", "Psi4")
OUTCOME_LABELS = ("phi1", "phi2", "phi3", "phi4")
NULL = "null"


class PbrError(ValueError):
    pass


def _model_error(message: str) -> Exception:
    """``models.ModelError(message)``, for a witness that fails its replay;
    ``models`` is imported only here, so a replay that passes never loads it."""
    from .models import ModelError

    return ModelError(message)


def _read_ratio(s) -> tuple:
    """An exact rational string as (numerator, denominator), d > 0, not
    necessarily in lowest terms.  "n/d" and "n" with an optional "-", ASCII
    digits and d != 0 are read with ``int``; any other form goes to
    ``Fraction``, so the strings accepted, their values and the errors
    raised are ``Fraction``'s."""
    if isinstance(s, str) and s.isascii():
        num, slash, den = s.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
            d = int(den) if slash else 1
            if d:
                return int(num), d
    v = Fraction(s)
    return v.numerator, v.denominator


def _over_lcm(strings) -> tuple:
    """Exact rational strings as (numerators, their least common denominator)."""
    pairs = [_read_ratio(s) for s in strings]
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


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
    """The four product preparations and the entangled measurement basis,
    each as exact kets by label."""

    preparations: Mapping[str, quantum.Ket]
    measurement_kets: Mapping[str, quantum.Ket]

    def born_table(self) -> dict:
        """Exact Born probabilities, (prep, outcome) -> |<phi_k|Psi>|^2."""
        return {(p, k): quantum.transition_probability(self.measurement_kets[k], psi)
                for p, psi in self.preparations.items() for k in OUTCOME_LABELS}


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
    """The question whether a reproducing response function exists.

    The single-system ontic space has ``lambda_size`` states; epistemic
    weights range over the grid of multiples of 1/grid_denominator.  With
    ``q`` set, both weight vectors must put at least q on the first ontic
    state (the forced overlap).  ``relax_product`` changes no verdict, as no
    joint other than the product is built: it multiplies ``tested_points``
    by the joint families per grid point and shows in the grid note.
    ``null_budget`` adds the no-show outcome and caps each preparation's
    unconditioned no-show rate; zero means no escape.  The unknowns are the
    response entries xi(k | cell); ``solve_feasibility`` fixes them in
    closed form or refutes them at the support level.
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


def product_joint(p0: Sequence[Fraction], pplus: Sequence[Fraction],
                  labels: Sequence) -> dict:
    """(Prod. 2): joint weights for the four preparations as products, on the
    product of the two supports, in label order."""
    supports = {"0": [(a, w) for a, w in zip(labels, p0) if w > 0],
                "+": [(a, w) for a, w in zip(labels, pplus) if w > 0]}
    pattern = {"Psi1": ("0", "0"), "Psi2": ("0", "+"), "Psi3": ("+", "0"), "Psi4": ("+", "+")}
    return {prep: {(a, b): wa * wb for a, wa in supports[k] for b, wb in supports[l]}
            for prep, (k, l) in pattern.items()}


BORN_ZERO_PAIRS = tuple((p, k) for p, k in zip(PREP_LABELS, OUTCOME_LABELS))


def _star_certificate(born: Mapping, budget: Fraction | None = None) -> dict:
    """The contradiction at (*, *) = (1, 1) when every preparation weighs it.

    Each zero-Born pair (Psi_j, phi_j) forces xi(phi_j | 1, 1) = 0, as every
    weight is nonnegative, so outcome completeness starves there: the zero
    chain.  With a no-show budget the chain forces xi(null | 1, 1) = 1
    instead, so a Psi1 that weighs only (1, 1) has no-show rate 1 > budget.
    """
    chain = []
    for prep, k in BORN_ZERO_PAIRS:
        if born[(prep, k)] != 0:
            raise PbrError(f"Born({prep}, {k}) is not 0: no zero chain at (1, 1)")
        chain.append({"pair": [PREP_LABELS.index(prep) + 1, OUTCOME_LABELS.index(k) + 1],
                      "lambda": [1, 1], "violated_equation": "Born=0 vs model>0"})
    if budget is not None:
        return {"lambda": None, "pair": None, "violated_equation":
                f"forced no-show rate 1/1 exceeds budget {frac_str(budget)} for Psi1"}
    return {
        "lambda": [1, 1],
        "forced_zeros": chain,
        "pair": chain[0]["pair"],
        "violated_equation":
            "outcome completeness: sum_k xi(k) = 1 at this cell, "
            "but every xi(k) is forced to 0 by a zero-Born pair",
    }


def _price_response(f: Fraction, t: Fraction) -> dict:
    """(outcome, cell) -> xi on the 3x3 block that p0 = (f, 1-f, 0, ...),
    p+ = (f, 0, 1-f, ...) weigh, all 45 entries, zeros included.

    A one-parameter slice of the block's solutions: only (1, 1) has a
    no-show, forced to 1, so each no-show rate is f^2, and the real outcomes
    reproduce Born after post-selection for every t.  As a + c = 1, every
    entry lies in [0, 1] iff max(0, (1 - 3f) / (4(1 - f))) <= t <=
    min(1/2, (1 + f) / (4(1 - f))); ``solve_feasibility`` takes the least t,
    at which this is the exact simplex's vertex at budget f^2.
    """
    h = Fraction(1, 2)
    a = (3 * f - 1) / (4 * f) + t * (1 - f) / f
    c = (1 + f) / (4 * f) - t * (1 - f) / f
    columns = {
        (1, 1): {NULL: Fraction(1)},
        (1, 2): {"phi2": a, "phi4": c}, (2, 1): {"phi3": a, "phi4": c},
        (1, 3): {"phi1": a, "phi3": c}, (3, 1): {"phi1": a, "phi2": c},
        (2, 2): {"phi2": h - t, "phi3": h - t, "phi4": 2 * t},
        (2, 3): {"phi1": h - t, "phi3": h, "phi4": t},
        (3, 2): {"phi1": h - t, "phi2": h, "phi4": t},
        (3, 3): {"phi1": 1 - 2 * t, "phi2": t, "phi3": t},
    }
    zero = Fraction(0)
    return {(k, cell): column.get(k, zero)
            for cell, column in columns.items() for k in OUTCOME_LABELS + (NULL,)}


@dataclass(frozen=True)
class FeasibilityVerdict:
    """A PBR verdict: its status, a witness model or a certificate, the
    grid points covered, a note on the grid, and the stage that decided it."""

    status: str                 # "feasible" | "infeasible"
    witness: dict | None
    certificate: dict | None
    tested_points: int          # grid points (times joint families) covered
    grid_note: str
    decided_by: str             # the deciding stage: always "support" now

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
        "xi": {f"{k}|{a},{b}": frac_str(v) for (k, (a, b)), v in sorted(xi.items())},
        "outcomes": list(outcomes),
    }


def _star_floor(problem: FeasibilityProblem) -> Fraction:
    """f = ceil(qD)/D: the least grid weight on the shared ontic state."""
    return Fraction(math.ceil(problem.q * problem.grid_denominator), problem.grid_denominator)


def no_show_price(problem: FeasibilityProblem) -> Fraction | None:
    """The least no-show budget that admits a model: 0 without a forced
    overlap, f^2 under one on three or more ontic states; None where no
    budget below 1 does (one ontic state, two under an overlap, or f = 1)."""
    if problem.q is None:
        return Fraction(0) if problem.lambda_size >= 2 else None
    f = _star_floor(problem)
    return f * f if problem.lambda_size >= 3 and f < 1 else None


def solve_feasibility(problem: FeasibilityProblem,
                      born: Mapping | None = None) -> FeasibilityVerdict:
    """Decide whether a reproducing model exists; exact throughout.

    Returns "feasible" with a witness, or "infeasible" with a contradiction
    certificate, by the support-level cases of the module docstring, each in
    closed form: without a forced overlap, the psi-ontic witness p0 = e1,
    p+ = e2; with a budget on one or two ontic states, Psi1's forced no-show
    rate 1, as every grid point leaves a preparation no real outcome on the
    cells it weighs; under a forced overlap, the (*, *) zero chain below the
    price f^2 and the ``_price_response`` witness from it.  The verdict
    covers the grid in ``grid_note``, the analytic theorem all weights;
    ``born``, the Born table, is built here when not given.
    """
    if born is None:
        born = build_pbr_scenario().born_table()
    budget, n, labels = problem.null_budget, problem.lambda_size, problem.labels
    if problem.q is None and n >= 2:
        # each weighed cell answers with its one preparation's Born row
        p0, pplus = ([Fraction(int(a == j)) for a in labels] for j in (1, 2))
        joints = product_joint(p0, pplus, labels)
        xi = {(k, cell): (1 - (budget or 0)) * born[(prep, k)]
              for prep, (cell,) in joints.items() for k in OUTCOME_LABELS}
        outcomes = OUTCOME_LABELS
        if budget is not None:
            xi.update({(NULL, cell): budget for (cell,) in joints.values()})
            outcomes += (NULL,)
        witness = _witness_payload(p0, pplus, joints, xi, labels, outcomes)
        return FeasibilityVerdict("feasible", witness, None, 1, _grid_note(problem), "support")
    if budget is not None and n <= 2:
        # Psi1 weighing only the fully forced (1, 1) is the grid's last point
        return FeasibilityVerdict("infeasible", None, _star_certificate(born, budget),
                                  _grid_size(problem), _grid_note(problem), "support")
    f = Fraction(1) if problem.q is None else _star_floor(problem)
    if budget is None or budget < f * f:
        # every preparation puts >= f^2 on (*, *) = (1, 1): the zero chain
        chain = _star_certificate(born)
        if budget is not None:
            chain.update(bound=frac_str(f * f), budget=frac_str(budget), violated_equation=
                         "no-show rate >= bound in every preparation, above the budget")
        return FeasibilityVerdict("infeasible", None, chain, _grid_size(problem),
                                  _grid_note(problem), "support")
    # p0 = (f, 1-f, 0, ...), p+ = (f, 0, 1-f, ...) with the closed-form response
    rest = [Fraction(0)] * (n - 3)
    p0, pplus = [f, 1 - f, Fraction(0)] + rest, [f, Fraction(0), 1 - f] + rest
    xi = _price_response(f, max(Fraction(0), (1 - 3 * f) / (4 * (1 - f))))
    witness = _witness_payload(p0, pplus, product_joint(p0, pplus, labels), xi, labels,
                               OUTCOME_LABELS + (NULL,))
    return FeasibilityVerdict("feasible", witness, None, 1, _grid_note(problem), "support")


def _grid_size(problem: FeasibilityProblem) -> int:
    """Grid points times joint families: C(D-k+L-2, L-2) weight vectors put
    k units on the star, and summed over k >= m = ceil(qD) that is
    C(D-m+L-1, L-1) (the hockey-stick identity); one ontic state has one
    vector."""
    n, d = problem.lambda_size, problem.grid_denominator
    side = 1 if n == 1 else math.comb(d - math.ceil(problem.q * d) + n - 1, n - 1)
    return side * side * ((3 if n > 1 else 2) if problem.relax_product else 1)


def _grid_note(problem: FeasibilityProblem) -> str:
    q = "none" if problem.q is None else frac_str(problem.q)
    return (f"all weight vectors with step 1/{problem.grid_denominator} on "
            f"{problem.lambda_size} ontic states, forced overlap q={q}, "
            f"relax_product={problem.relax_product}")


# --------------------------------------------------------------------------
# replaying witnesses in exact integer arithmetic

def replay_witness(witness: dict, born: Mapping | None = None) -> dict:
    """Check a witness against the exact Born table, reading each of its
    strings once, as integers: "n/d" and "n" with ``int``, any other form
    with ``Fraction``.  The joint weights, and the response entries on the
    cells the joints weigh, become integers over one common denominator
    each, so every check and every prediction is an ``int`` sum over one
    support.

    The statistics post-selected on a real outcome and the raw ones are each
    compared with Born; without a null outcome the two are the same.  With
    one, the raw ones show whether post-selection does work, and
    ``no_show_rate`` is the largest per-preparation no-show rate (0 without
    one).  ``born`` is the scenario's Born table, built here when not given.
    """
    if born is None:
        born = build_pbr_scenario().born_table()
    joints = {prep: {tuple(map(int, key.split(","))): w for key, w in cells.items()}
              for prep, cells in witness["joints"].items()}
    cells = sorted({cell for weighed in joints.values() for cell in weighed})
    weights, wden = _over_lcm(w for weighed in joints.values() for w in weighed.values())
    supports, weights = {}, iter(weights)
    for prep, weighed in joints.items():
        supports[prep] = support = list(zip(weighed, weights))
        mass = sum(w for _, w in support)
        if any(w < 0 for _, w in support):
            raise _model_error("negative epistemic weight")
        if mass != wden:
            raise _model_error(f"epistemic weights sum to {Fraction(mass, wden)}, not 1")
    outcomes = witness["outcomes"]
    keys = [(k, cell) for k in outcomes for cell in cells]
    entries, xden = _over_lcm(witness["xi"].get(f"{k}|{a},{b}", "0") for k, (a, b) in keys)
    if any(not 0 <= x <= xden for x in entries):
        raise _model_error("response entries must lie in [0, 1]")
    xi = dict(zip(keys, entries))
    for cell in cells:
        column = sum(xi[k, cell] for k in outcomes)
        if column != xden:
            raise _model_error(f"response column for {cell!r} sums to "
                               f"{Fraction(column, xden)}, not 1")
    missing = [f"preparation {p!r}" for p in PREP_LABELS if p not in supports]
    missing += [f"outcome {k!r}" for k in OUTCOME_LABELS if k not in outcomes]
    if missing:
        raise _model_error(f"unknown {missing[0]}")
    total = wden * xden  # the denominator of every prediction
    post_ok, raw_ok, nulls = True, True, []
    for p in PREP_LABELS:
        null = sum(w * xi[NULL, cell] for cell, w in supports[p]) if NULL in outcomes else 0
        nulls.append(null)
        for k in OUTCOME_LABELS:
            raw, b = sum(w * xi[k, cell] for cell, w in supports[p]), born[(p, k)]
            raw_ok &= raw * b.denominator == b.numerator * total
            post_ok &= null != total and raw * b.denominator == b.numerator * (total - null)
    return {"post_selected_match": post_ok, "unconditioned_match": raw_ok,
            "no_show_rate": Fraction(max(nulls), total)}


# --------------------------------------------------------------------------
# CHSH demonstrator

@dataclass(frozen=True)
class ChshReport:
    """The quantum CHSH value, the local deterministic bound and the toy
    composites' maximum."""

    quantum_value: float  # |S|, rounded
    s_exact: ExactComplex  # S itself
    local_bound: Fraction
    toy_maximum: Fraction


def _singlet_correlation(ka: int, kb: int):
    """<singlet| A(ka) (x) B(kb) |singlet> at eighth-of-pi angles, exact."""
    obs = quantum.kron(quantum.spin_observable_eighth(ka),
                       quantum.spin_observable_eighth(kb))
    val = quantum.expectation(quantum.SINGLET, obs)
    if not val.is_real():
        raise PbrError("correlation came out complex")
    return val


def chsh_gap_demo() -> ChshReport:
    """Quantum singlet value at the maximal-violation angles vs the local
    deterministic bound and the best any toy composite state can do.

    The toy's best is decided by an argument, not by enumerating composites
    (arXiv:quant-ph/0401052).  A toy measurement's outcome is the block that
    holds the ontic state, so once the four settings are fixed, each ontic
    pair gives every setting a value +-1, and that pair's
    S = A1(B1 + B2) + A2(B1 - B2) is +-2: one bracket is 0, the other +-2.
    A composite's S is the mean of this over its uniform support, so
    |S| <= 2 for every composite, knowledge-balanced or not.  The bound is
    attained by 0 (x) 0 with Z for all four settings, where S = 2 Z Z on
    every pair; that value is computed here, exactly, from the toy's tables.
    """
    from .toy import MEAS_Z_TOY, STATE_SUPPORT

    # settings: A at 0 and pi/2, B at pi/4 and -pi/4 (in eighths of pi)
    e = _singlet_correlation
    s_exact = e(0, 1) + e(0, 7) + e(2, 1) - e(2, 7)

    best_local = max(abs(a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2)
                     for a1, a2, b1, b2 in itertools.product((1, -1), repeat=4))

    # Z's value on each ontic state of 0's support: +1 on its first block
    z = {lam: 1 if lam in MEAS_Z_TOY.partition[0] else -1 for lam in STATE_SUPPORT["0"]}
    pairs = list(itertools.product(z, repeat=2))
    toy_s = Fraction(sum(2 * z[a] * z[b] for a, b in pairs), len(pairs))
    return ChshReport(quantum_value=abs(s_exact.to_complex().real), s_exact=s_exact,
                      local_bound=Fraction(best_local), toy_maximum=toy_s)


# --------------------------------------------------------------------------
# report rows: nogo pbr and nogo chsh

def gram_check(kets) -> CheckResult:
    """The measurement kets' exact Gram matrix is the identity; the detail
    names the label pairs where it is not."""
    defects = quantum.gram_defects({k: ket.amplitudes for k, ket in kets.items()})
    return row("pbr measurement basis Gram = identity", True, not defects, "DERIVED",
               detail={"defects": [f"<{a}|{b}>" for a, b in defects]} if defects else None)


def pbr_checks(q, lambda_size: int, grid_denominator: int,
               relax_product: bool, null_budget) -> list:
    """``q`` and ``null_budget`` are fractions or fraction strings; None
    means no forced overlap and no no-show escape respectively."""
    checks = []
    scenario = build_pbr_scenario()
    born = scenario.born_table()
    for prep, k in BORN_ZERO_PAIRS:
        # <phi_j|Psi_j> = 0 iff its Born table entry |<phi_j|Psi_j>|^2 is 0
        p = born[(prep, k)]
        checks.append(row(f"pbr <{k}|{prep}>", "0",
                          "0" if p == 0 else f"|<{k}|{prep}>|^2 = {fmt(p)}", "PAPER"))
    checks.append(gram_check(scenario.measurement_kets))
    problem = FeasibilityProblem(lambda_size=lambda_size, grid_denominator=grid_denominator,
                                 q=q, relax_product=relax_product, null_budget=null_budget)
    escape = problem.null_budget is not None
    verdict = solve_feasibility(problem, born)
    # the escape's price; None where no budget below 1 admits a model
    price = no_show_price(problem)
    expected_status = ("feasible" if price is not None and (problem.null_budget or 0) >= price
                       else "infeasible")
    checks.append(row(f"pbr verdict ({verdict.grid_note})", expected_status,
                      verdict.status, "DERIVED", detail=verdict.to_json()))
    if verdict.status == "infeasible":
        checks.append(row("pbr certificate present", True,
                          verdict.certificate is not None, "DERIVED",
                          detail=verdict.certificate))
    else:
        replay = replay_witness(verdict.witness, born)
        checks.append(row("pbr witness reproduces Born (post-selected)", True,
                          replay["post_selected_match"], "DERIVED"))
        if escape:
            checks.append(row("pbr null witness: raw statistics differ from Born",
                              True, not replay["unconditioned_match"], "TRIVIAL"))
    if escape and price:
        # from the price up the verdict's witness is the price's own, whose
        # no-show rate does not read the budget; below it, solve at the price
        if verdict.status == "infeasible":
            at_price = solve_feasibility(replace(problem, null_budget=price), born)
            replay = replay_witness(at_price.witness, born)
        checks.append(row("pbr minimal no-show budget = f^2", price,
                          replay["no_show_rate"] if replay["post_selected_match"]
                          else "no reproducing witness", "DERIVED"))
    return checks


def chsh_checks() -> list:
    rep = chsh_gap_demo()
    target = 2 * math.sqrt(2)
    s_squared = rep.s_exact * rep.s_exact
    return [
        row("chsh quantum singlet value", target, rep.quantum_value, "DERIVED",
            passed=rep.s_exact.is_real() and (s_squared - 8).is_zero()),
        row("chsh local deterministic bound", Fraction(2), rep.local_bound, "DERIVED"),
        row("chsh toy composite maximum", Fraction(2), rep.toy_maximum, "DERIVED"),
        row("chsh gap positive", True,
            (s_squared - rep.local_bound ** 2).is_positive(), "DERIVED"),
    ]
