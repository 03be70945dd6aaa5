"""Command-line entry point: named verification runs with JSON/text reports.

Verbs mirror the library surface: ``verify`` replays the toy-theory
demonstrations against exact expectations, ``simulate mz`` runs the
interferometer in either formalism, ``nogo`` drives the constraint
searches (expected-infeasible verdicts count as passes), and ``gaussian``
exercises the restricted Liouville suite.  Exit status is 0 iff the
emitted report has checks and every one passed.

Each check function imports the omlab modules it runs, so that a process
builds the classes of its own command's sector only: ``nogo pbr`` loads no
toy-theory, Hardy or Gaussian module.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .models import frac_str
from .reports import CheckResult, ReportDocument, RunConfig, emit


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _support_name(block) -> str:
    return "v".join(str(x) for x in sorted(block))


def _dist_name(dist: dict) -> str:
    items = sorted(dist.items(), key=lambda kv: _support_name(kv[0]))
    return "{" + ", ".join(f"{_support_name(k)}: {_fmt(v)}" for k, v in items) + "}"


def _check(name, expected, observed, provenance, passed=None, detail=None) -> CheckResult:
    e, o = _fmt(expected), _fmt(observed)
    if passed is None:
        passed = e == o
    return CheckResult(name, e, o, provenance, bool(passed), detail)


# --------------------------------------------------------------------------
# verify targets

def toy_born_checks() -> list:
    from . import toy
    from .models import reproduction_check

    model = toy.build_toy_model()
    table = toy.toy_born_table()
    report = reproduction_check(model, table)
    checks = [
        _check(f"toy-born {r.prep}|{r.meas}:{r.outcome}", r.quantum_value,
               r.model_value, "DERIVED", passed=r.match)
        for r in report.rows
    ]
    checks.append(_check("toy-born all 36 triples", "36/36",
                         f"{sum(1 for r in report.rows if r.match)}/{len(report.rows)}",
                         "DERIVED", passed=report.ok))
    return checks


class _EachChoice:
    """A stand-in rng for one branch of a sampler that draws once: ``choice``
    returns element ``k`` of its argument and keeps the argument's length."""

    def __init__(self, k: int):
        self.k, self.n = k, None

    def choice(self, seq):
        if self.n is not None:
            raise ValueError("the kernel enumerates one choice per measurement")
        self.n = len(seq)
        return seq[self.k]


def _ontic_kernel(lam: int, meas) -> dict:
    """(outcome block, resampled state) -> probability, for one ontic
    measurement of ``lam``: each element ``choice`` draws has weight 1/len."""
    from . import toy

    kernel, k, n = {}, 0, 1
    while k < n:
        rng = _EachChoice(k)
        out = toy.ontic_simulate_measurement(lam, meas, rng)
        n = rng.n
        kernel[out] = kernel.get(out, 0) + Fraction(1, n)
        k += 1
    return kernel


def kernel_check() -> CheckResult:
    """Each KB state pushed through the ontic kernel gives, for each
    measurement, the Born outcome distribution and, given each outcome, the
    updated epistemic state; the detail names the pairs where it does not."""
    from . import toy

    kernels = {(lam, m): _ontic_kernel(lam, m)
               for lam in toy.STATES for m in toy.MEASUREMENT_TABLE.values()}
    bad = []
    for label, support in toy.STATE_SUPPORT.items():
        state = toy.ToyEpistemicState(support)
        for name, m in toy.MEASUREMENT_TABLE.items():
            joint = {}  # (outcome block, resampled state) -> probability
            for lam, p in zip(toy.STATES, state.probs):
                for out, w in kernels[lam, m].items():
                    joint[out] = joint.get(out, 0) + p * w
            outcomes = {b: sum(w for (block, _), w in joint.items() if block == b)
                        for b in m.partition}
            if outcomes != toy.measurement_distribution(state, m) or any(
                    tuple(joint.get((b, x), 0) / pb for x in toy.STATES)
                    != toy.measure_update(state, m, b).probs
                    for b, pb in outcomes.items() if pb):
                bad.append(f"{name} on {label}")
    n = len(toy.STATE_SUPPORT) * len(toy.MEASUREMENT_TABLE)
    return _check("noncomm ontic kernel = Born outcomes + updated state",
                  f"{n}/{n}", f"{n - len(bad)}/{n}", "DERIVED",
                  detail={"mismatches": bad} if bad else None)


def noncomm_checks(seed: int) -> list:
    from . import toy

    t = toy.noncommutativity_demo()
    half = Fraction(1, 2)
    expect_ab = {frozenset({1, 3}): half, frozenset({2, 4}): half}
    expect_ba = {frozenset({1, 2}): half, frozenset({3, 4}): half}
    expect_aa = {frozenset({1, 2}): Fraction(1), frozenset({3, 4}): Fraction(0)}
    checks = [
        _check("noncomm A-then-B outcomes", _dist_name(expect_ab),
               _dist_name(t.a_then_b), "PAPER"),
        _check("noncomm B-then-A outcomes", _dist_name(expect_ba),
               _dist_name(t.b_then_a), "PAPER"),
        _check("noncomm A repeated is certain", _dist_name(expect_aa),
               _dist_name(t.a_then_a), "PAPER"),
        _check("noncomm orderings differ", True, t.differs(), "PAPER"),
        kernel_check(),
    ]
    # seeded ontic replay of the B statistics on 1v2; by Hoeffding a fair
    # sampler leaves the band with probability at most delta
    rng = random.Random(seed)
    n, delta = 4000, 1e-9
    hits = 0
    for _ in range(n):
        lam = rng.choice((1, 2))
        block, _ = toy.ontic_simulate_measurement(lam, toy.MEAS_X_TOY, rng)
        hits += block == frozenset({1, 3})
    radius = math.sqrt(math.log(2 / delta) / (2 * n))
    checks.append(_check(f"noncomm sampled frequency (n={n}, Hoeffding delta={delta:g})",
                         "|freq-1/2| <= sqrt(ln(2/delta)/(2n))",
                         f"{abs(hits / n - 0.5):.6f} vs {radius:.6f}",
                         "DERIVED", passed=abs(hits / n - 0.5) <= radius))
    return checks


def combine_checks() -> list:
    from . import toy

    listed = [
        ((1, 2), toy.CombinationRule.RULE_1, (3, 4), (1, 3)),
        ((1, 2), toy.CombinationRule.RULE_2, (3, 4), (2, 4)),
        ((2, 3), toy.CombinationRule.RULE_4, (1, 4), (2, 4)),
        ((1, 4), toy.CombinationRule.RULE_4, (2, 3), (1, 3)),
        ((1, 3), toy.CombinationRule.RULE_3, (2, 4), (2, 3)),
        ((1, 3), toy.CombinationRule.RULE_4, (2, 4), (1, 4)),
    ]
    checks = []
    for a, rule, b, want in listed:
        got = toy.combine(toy.toy_state(*a), toy.toy_state(*b), rule)
        checks.append(_check(
            f"combine {_support_name(a)} +{rule.value} {_support_name(b)}",
            _support_name(want), _support_name(got.support), "PAPER"))
    report = toy.analogy_failure_check()
    flagged = {(str(r.left), r.rule.value, str(r.right)) for r in report.mismatches()}
    for left, rule, right in (("1v3", 3, "2v4"), ("1v3", 4, "2v4")):
        checks.append(_check(f"analogy mismatch flagged: {left} +{rule} {right}",
                             True, (left, rule, right) in flagged, "PAPER"))
    match_case = next(r for r in report.rows
                      if str(r.left) == "1v2" and r.rule is toy.CombinationRule.RULE_1)
    checks.append(_check("analogy +1 case matches", True, match_case.match, "PAPER"))
    checks.append(_check("analogy mismatch count over ordered table", 4,
                         len(report.mismatches()), "DERIVED"))
    return checks


def steering_checks() -> list:
    from . import toy

    state = toy.make_correlated({1: 1, 2: 2, 3: 3, 4: 4})
    r1 = toy.steering_inference(state, toy.MEAS_X_TOY, frozenset({1, 3}))
    bob_support = sorted(s for s, w in r1.bob_marginal.items() if w > 0)
    checks = [
        _check("steering: Bob marginal support after X={1,3}", "[1, 3]",
               str(bob_support), "PAPER"),
        _check("steering: Bob marginal uniform", "1/2",
               _fmt(r1.bob_marginal[1]), "PAPER"),
    ]
    checks.append(_check("steering retrodiction singles out state", 1,
                         toy.steering_retrodiction_demo(), "PAPER"))
    product = toy.product_composite(toy.toy_state(1, 2), toy.toy_state(3, 4))
    before = toy.marginal(product, 1)
    r2 = toy.steering_inference(product, toy.MEAS_X_TOY, frozenset({1, 3}))

    def marg_name(m):
        return "{" + ", ".join(f"{s}: {_fmt(w)}" for s, w in sorted(m.items())) + "}"

    checks.append(_check("steering: product state leaves Bob unchanged",
                         marg_name(before), marg_name(r2.bob_marginal), "TRIVIAL"))
    return checks


def no_signaling_checks() -> list:
    from . import toy

    state = toy.make_correlated({1: 1, 2: 2, 3: 3, 4: 4})
    rep = toy.no_signaling_check(state, toy.ALL_TOY_MEASUREMENTS)
    checks = [_check("no-signaling variation (correlated state)", Fraction(0),
                     rep.max_variation, "DERIVED")]
    product = toy.product_composite(toy.toy_state(1, 2), toy.toy_state(1, 3))
    rep2 = toy.no_signaling_check(product, toy.ALL_TOY_MEASUREMENTS)
    checks.append(_check("no-signaling variation (product state)", Fraction(0),
                         rep2.max_variation, "TRIVIAL"))
    return checks


# --------------------------------------------------------------------------
# simulate mz

def mz_checks(phase: str, model: str, source: str, theta: float | None) -> list:
    from . import exact, quantum, toy

    checks = []
    phase_in = phase == "pi"
    want_q = {("first_splitter", True): ("1", Fraction(0), Fraction(1)),
              ("first_splitter", False): ("0", Fraction(1), Fraction(0)),
              ("upper_arm", True): (None, Fraction(1, 2), Fraction(1, 2)),
              ("upper_arm", False): (None, Fraction(1, 2), Fraction(1, 2))}
    label, d1, d2 = want_q[(source, phase_in)]
    if model in ("quantum", "both"):
        final = quantum.mz_evolve(phase_in, source)
        p1, p2 = (quantum.born_probability(final, quantum.MEAS_DETECTORS, d)
                  for d in ("d1", "d2"))
        checks.append(_check(f"mz quantum P(d1), P(d2) [{source}, phase={phase_in}]",
                             f"({_fmt(d1)}, {_fmt(d2)})", f"({_fmt(p1)}, {_fmt(p2)})",
                             "PAPER"))
    if model in ("toy", "both") and source == "upper_arm":
        dist = toy.measurement_distribution(toy.mz_toy_run(phase_in, source), toy.MEAS_Z_TOY)
        t1, t2 = dist[frozenset({1, 2})], dist[frozenset({3, 4})]  # d1, d2
        checks.append(_check(f"mz toy P(d1), P(d2) [{source}, phase={phase_in}]",
                             f"({_fmt(d1)}, {_fmt(d2)})", f"({_fmt(t1)}, {_fmt(t2)})",
                             "DERIVED"))
    elif model in ("toy", "both"):
        toy_final = toy.mz_toy_run(phase_in)
        checks.append(_check(f"mz toy final state [phase={phase_in}]",
                             _support_name(toy.STATE_SUPPORT[label]),
                             _support_name(toy_final.support), "PAPER"))
        if model == "both":
            ident = quantum.identify_pm_state(final)
            corr = ident is not None and toy.STATE_SUPPORT[ident] == toy_final.support
            checks.append(_check("mz correspondence toy <-> quantum", True, corr,
                                 "DERIVED"))
    if theta is not None:
        p1f, p2f = quantum.mz_detection_probabilities(theta, source)
        want = math.cos(theta / 2) ** 2 if source == "first_splitter" else 0.5
        checks.append(_check(f"mz float-mode P(d1) at theta={theta:.6g}",
                             f"{want:.12g}", f"{p1f:.12g}", "PAPER",
                             passed=abs(p1f - want) <= exact.FLOAT_TOL))
    return checks


# --------------------------------------------------------------------------
# nogo targets

def gram_check(kets) -> CheckResult:
    """The measurement kets' exact Gram matrix is the identity; the detail
    names the label pairs where it is not."""
    from . import quantum

    defects = quantum.gram_defects({k: ket.amplitudes for k, ket in kets.items()})
    return _check("pbr measurement basis Gram = identity", True, not defects, "DERIVED",
                  detail={"defects": [f"<{a}|{b}>" for a, b in defects]} if defects else None)


def pbr_checks(q, lambda_size: int, grid_denominator: int,
               relax_product: bool, null_budget) -> list:
    """``q`` and ``null_budget`` are fractions or fraction strings; None
    means no forced overlap and no no-show escape respectively."""
    from . import pbr

    checks = []
    scenario = pbr.build_pbr_scenario()
    born = scenario.born_table()
    for j in range(1, 5):
        # <phi_j|Psi_j> = 0 iff its Born table entry |<phi_j|Psi_j>|^2 is 0
        p = born[(f"Psi{j}", f"phi{j}")]
        checks.append(_check(f"pbr <phi{j}|Psi{j}>", "0",
                             "0" if p == 0 else f"|<phi{j}|Psi{j}>|^2 = {_fmt(p)}", "PAPER"))
    checks.append(gram_check(scenario.measurement_kets))
    problem = pbr.FeasibilityProblem(lambda_size=lambda_size,
                                     grid_denominator=grid_denominator,
                                     q=q, relax_product=relax_product,
                                     null_budget=null_budget)
    escape = problem.null_budget is not None
    verdict = pbr.solve_feasibility(problem, born)
    # the escape's price; None where no budget below 1 admits a model
    price = pbr.no_show_price(problem)
    expected_status = ("feasible" if price is not None and (problem.null_budget or 0) >= price
                       else "infeasible")
    checks.append(_check(f"pbr verdict ({verdict.grid_note})", expected_status,
                         verdict.status, "DERIVED",
                         detail=verdict.to_json()))
    if verdict.status == "infeasible":
        checks.append(_check("pbr certificate present", True,
                             verdict.certificate is not None, "DERIVED",
                             detail=verdict.certificate))
    else:
        replay = pbr.replay_witness(verdict.witness, born)
        checks.append(_check("pbr witness reproduces Born (post-selected)", True,
                             replay["post_selected_match"], "DERIVED"))
        if escape:
            checks.append(_check("pbr null witness: raw statistics differ from Born",
                                 True, not replay["unconditioned_match"], "TRIVIAL"))
    if escape and price:
        # from the price up the verdict's witness is the price's own, whose
        # no-show rate does not read the budget; below it, solve at the price
        if verdict.status == "infeasible":
            at_price = pbr.solve_feasibility(replace(problem, null_budget=price), born)
            replay = pbr.replay_witness(at_price.witness, born)
        checks.append(_check("pbr minimal no-show budget = f^2", price,
                             replay["no_show_rate"] if replay["post_selected_match"]
                             else "no reproducing witness", "DERIVED"))
    return checks


def zero_facts_check(facts) -> CheckResult:
    """The zero-probability facts are exactly the paper's two."""
    zero_names = sorted(str(f) for f in facts if f.is_zero)
    return _check("hardy zero facts",
                  "P(d1 | psi, theta=pi) is zero; P(d2 | psi, theta=0) is zero",
                  "; ".join(zero_names), "PAPER")


def hardy_checks(lambda_size: int, drop_invar: bool) -> list:
    from . import hardy

    report = hardy.hardy_verdict(lambda_size, drop_invar=drop_invar)
    checks = [zero_facts_check(report.facts)]
    expected = drop_invar  # overlap survives only without flag invariance
    checks.append(_check(
        f"hardy overlap possible (size {lambda_size}, drop_invar={drop_invar})",
        expected, report.overlap_possible, "DERIVED",
        detail=report.to_json()))
    if report.assignment is not None:
        checks.append(_check("hardy escape assignment replays zero facts", True,
                             hardy.replay_zero_facts(report.assignment, report.facts),
                             "DERIVED"))
    return checks


def chsh_checks() -> list:
    from . import pbr

    rep = pbr.chsh_gap_demo()
    target = 2 * math.sqrt(2)
    s_squared = rep.s_exact * rep.s_exact
    return [
        _check("chsh quantum singlet value", f"{target:.12g}",
               f"{rep.quantum_value:.12g}", "DERIVED",
               passed=rep.s_exact.is_real() and (s_squared - 8).is_zero()),
        _check("chsh local deterministic bound", Fraction(2), rep.local_bound,
               "DERIVED"),
        _check("chsh toy composite maximum", Fraction(2), rep.toy_maximum,
               "DERIVED"),
        _check("chsh gap positive", True,
               (s_squared - rep.local_bound ** 2).is_positive(), "DERIVED"),
    ]


# --------------------------------------------------------------------------
# gaussian targets

def _conditioning_oracle(state, index: int, value: float):
    """Precision-matrix route, independent of the module's Schur route."""
    import numpy as np

    prec = np.linalg.inv(state.covariance)
    rest = [i for i in range(state.dim) if i != index]
    prec_rr = prec[np.ix_(rest, rest)]
    prec_ri = prec[np.ix_(rest, [index])]
    cov = np.linalg.inv(prec_rr)
    mean = state.mean[rest] - (cov @ prec_ri).ravel() * (value - state.mean[index])
    return mean, cov


def gaussian_suite_checks(hbar_like: float) -> list:
    import numpy as np

    from . import gaussian

    checks = []
    boundary = gaussian.coherent_boundary(hbar_like)
    v = gaussian.validity_check(boundary)
    checks.append(_check("gaussian boundary min eigenvalue", "0",
                         f"{v.min_eigenvalue:.3e}", "DERIVED",
                         passed=abs(v.min_eigenvalue) <= 1e-12 * hbar_like))
    tight = gaussian.GaussianEpistemicState(np.zeros(2), (hbar_like / 10) * np.eye(2), hbar_like)
    checks.append(_check("gaussian over-tight state invalid", False,
                         gaussian.validity_check(tight).valid, "DERIVED"))
    ent = gaussian.entropy(boundary)
    quad = gaussian.entropy_by_quadrature(boundary)
    checks.append(_check("gaussian entropy closed form vs quadrature",
                         f"{ent:.9f}", f"{quad:.9f}", "DERIVED",
                         passed=abs(ent - quad) <= 1e-6))
    epr = gaussian.epr_correlated(3.0, hbar_like)
    epr_min = gaussian.validity_check(epr).min_eigenvalue
    checks.append(_check("gaussian EPR r=3 on the uncertainty boundary", "0",
                         f"{epr_min:.3e}", "DERIVED",
                         passed=abs(epr_min) <= 1e-12 * hbar_like))
    var = gaussian.epr_quadrature_variances(epr)
    want = hbar_like * math.exp(-6)
    checks.append(_check("gaussian EPR var of difference quadrature",
                         f"{want:.12g}", f"{var['var_q_diff']:.12g}", "DERIVED",
                         passed=abs(var["var_q_diff"] - want) <= 1e-9 * hbar_like))
    res = gaussian.epr_inference(epr, "q", 1.0)
    mean_o, cov_o = _conditioning_oracle(epr, 0, 1.0)
    delta = abs(res.bob.mean[0] - mean_o[1])
    checks.append(_check("gaussian conditioning vs precision-matrix oracle",
                         "<= 1e-6", f"{delta:.3e}", "DERIVED",
                         passed=delta <= 1e-6 and np.allclose(
                             res.bob.covariance, cov_o[1:, 1:], atol=1e-9 * hbar_like)))
    checks.append(_check("gaussian Bob posterior validity", True,
                         res.bob_validity.valid, "DERIVED"))
    marg = gaussian.marginal_mode(epr, 0)
    checks.append(_check("gaussian EPR marginal variance grows", True,
                         bool(marg.covariance[0, 0] >= hbar_like * math.cosh(6) * (1 - 1e-9)),
                         "DERIVED"))
    return checks


def gaussian_epr_checks(squeeze: float, hbar_like: float, measure: str,
                        value: float) -> list:
    from . import gaussian

    gaussian.check_squeeze(squeeze)
    epr = gaussian.epr_correlated(squeeze, hbar_like)
    res = gaussian.epr_inference(epr, measure, value)
    sign = 1.0 if measure == "q" else -1.0
    want = sign * math.tanh(2 * squeeze) * value
    got = res.bob.mean[0] if measure == "q" else res.bob.mean[1]
    return [
        _check(f"gaussian epr posterior mean ({measure}={value})",
               f"{want:.9g}", f"{got:.9g}", "DERIVED",
               passed=abs(got - want) <= 1e-9,
               detail=res.bob.to_json()),
        _check("gaussian epr posterior validity", True, res.bob_validity.valid,
               "DERIVED"),
    ]


# --------------------------------------------------------------------------
# options and dispatch

def _fraction_misfit(text) -> str | None:
    """None if ``text`` is a string that ``Fraction`` reads and ``str`` can
    write in lowest terms, else the form it misses."""
    if not (isinstance(text, str) and _reads(Fraction, text)):
        return "a fraction string or None"
    if not _reads(str, Fraction(text)):  # a term longer than the int-to-string digit limit
        return f"a fraction within the int-to-string limit of {sys.get_int_max_str_digits()} digits"
    return None


def _fraction_or_none(text):
    """An argparse type: a fraction in lowest terms, or None for 'none'."""
    if text in ("none", "None"):
        return None
    try:
        return str(Fraction(text))
    except (ValueError, ZeroDivisionError):
        import argparse  # argparse reports every value this rejects

        raise argparse.ArgumentTypeError(f"{text!r} is not {_fraction_misfit(text)}"
                                         if _reads(Fraction, text)
                                         else f"invalid fraction value: {text!r}") from None


def _path(text):
    """An argparse type: a path, which a blank string is not."""
    if not text:
        import argparse  # argparse reports the blank value

        raise argparse.ArgumentTypeError(f"invalid path value: {text!r}")
    return text


def _reads(parse, text) -> bool:
    """Whether ``parse`` (``float``, ``Fraction`` or ``str``) takes ``text``
    without a ValueError or ZeroDivisionError."""
    try:
        parse(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


class Option:
    """One CLI option, declared once: its flag, the ``RunConfig.args`` key it
    fills, its default as an args value, and the rest of its argparse spec."""

    def __init__(self, flag: str, key: str, default, **spec):
        self.flag = flag
        self.key = key
        self.default = default
        self.spec = spec

    def misfit(self, value) -> str | None:
        """None if ``value`` has the form ``config_from_args`` gives this
        option's args value, else that form in words."""
        spec = self.spec
        if value is None and (self.default is None or spec.get("type") is _fraction_or_none):
            return None  # the option's absence, or a fraction option's 'none'
        if "choices" in spec:
            fits = isinstance(value, str) and value in spec["choices"]
            return None if fits else "one of " + ", ".join(map(repr, spec["choices"]))
        if spec.get("action") == "store_true":
            return None if isinstance(value, bool) else "a bool"
        if spec["type"] is _fraction_or_none:
            return _fraction_misfit(value)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if spec["type"] is int:
            return None if number and isinstance(value, int) else "an int"
        return None if number else "a real number"


# the flags every command takes, before or after its verb
COMMON = (Option("--format", "format", "text", choices=("json", "text")),
          Option("--output", "output", None, type=_path,
                 help="write report here (default: $OMLAB_OUTPUT_DIR/<cmd>.<fmt>)"))
SEED = Option("--seed", "seed", 0, type=int)
LAMBDA_SIZE = Option("--lambda-size", "lambda_size", 4, type=int)
LAMBDA = Option("--lambda", "hbar_like", 1.0, type=float,
                help="uncertainty parameter, in [1e-300, 1e+280]")

# "verb target" -> (options in --help order, checks called with their args).
# A verb's targets are its commands here, in order; its options, theirs.
COMMANDS = {
    "verify toy-born": ((), toy_born_checks),
    "verify noncomm": ((SEED,), noncomm_checks),
    "verify combine-table": ((), combine_checks),
    "verify steering": ((), steering_checks),
    "verify no-signaling": ((), no_signaling_checks),
    "simulate mz": ((
        Option("--phase", "phase", "pi", choices=("0", "pi")),
        Option("--model", "model", "both", choices=("quantum", "toy", "both")),
        Option("--source", "source", "first_splitter", choices=("first_splitter", "upper_arm")),
        Option("--theta", "theta", None, type=float,
               help="extra float-mode run at an arbitrary phase"),
    ), mz_checks),
    "nogo pbr": ((
        Option("--q", "q", "1/4", type=_fraction_or_none,
               help="forced overlap floor as a fraction; 'none' disables"),
        LAMBDA_SIZE,
        Option("--grid-denominator", "grid_denominator", 4, type=int),
        Option("--null-budget", "null_budget", None, type=_fraction_or_none,
               help="no-show budget as a fraction; enables the escape"),
        Option("--relax-product", "relax_product", False, action="store_true"),
    ), pbr_checks),
    "nogo hardy": ((
        LAMBDA_SIZE,
        Option("--drop-invar", "drop_invar", False, action="store_true"),
    ), hardy_checks),
    "nogo chsh": ((), chsh_checks),
    # its EPR rows are fixed at r = 3 and a q reading of 1
    "gaussian suite": ((LAMBDA,), gaussian_suite_checks),
    "gaussian epr": ((
        Option("--squeeze", "squeeze", 3.0, type=float, help="EPR squeezing r, in [0, 13]"),
        LAMBDA,
        Option("--measure", "measure", "q", choices=("q", "p")),
        Option("--value", "value", 1.0, type=float, help="the quadrature reading, finite"),
    ), gaussian_epr_checks),
}
_DEMONSTRATIONS = [entry for name, entry in COMMANDS.items() if name.startswith("verify ")]


def verify_all_checks(**args) -> list:
    """The demonstrations in table order, each given the args it declares."""
    return [c for options, checks in _DEMONSTRATIONS
            for c in checks(**{opt.key: args[opt.key] for opt in options})]


COMMANDS["verify all"] = (tuple(dict.fromkeys(opt for options, _ in _DEMONSTRATIONS
                                              for opt in options)), verify_all_checks)

# verb -> help, in usage order
VERBS = {"verify": "replay exact demonstrations", "simulate": "run the interferometer",
         "nogo": "constraint-based no-go analyses", "gaussian": "restricted Liouville suite"}


def run(config: RunConfig) -> ReportDocument:
    """Execute the configured command and assemble the report document, whose
    config is ``config`` with its args resolved by ``_dispatch``, or as given
    if they do not resolve."""
    start = time.perf_counter()
    try:
        args = _dispatch(config)
        config = replace(config, args=args)
        checks = COMMANDS[config.command][1](**args)
    except Exception as exc:  # surface module errors as failed checks
        checks = [CheckResult("run completed without errors", "no exception",
                              f"{type(exc).__name__}: {exc}", "TRIVIAL", False,
                              {"type": type(exc).__name__, "origin": _origin(exc)})]
    return ReportDocument(config, tuple(checks), time.perf_counter() - start)


def _origin(exc: Exception) -> str:
    """Package-relative ``file:function`` of the innermost omlab frame of
    ``exc``: the function, not the line, so that an edit above the raise
    leaves the report's bytes alone."""
    import traceback  # only failed runs get here

    package = Path(__file__).resolve().parent
    frame = [f for f in traceback.extract_tb(exc.__traceback__)
             if Path(f.filename).resolve().is_relative_to(package)][-1]
    return f"{Path(frame.filename).resolve().relative_to(package.parent).as_posix()}:{frame.name}"


def _dispatch(config: RunConfig) -> dict:
    """The args ``config``'s command is run with: each given one, checked
    against the command's declared options, and each omitted one at its
    default.  A command or arg that ``COMMANDS`` does not declare, or a value
    of the wrong form, raises ValueError."""
    if config.command not in COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    options = COMMANDS[config.command][0]
    declared = {opt.key: opt for opt in options}
    for key, value in config.args.items():
        if key not in declared:
            raise ValueError(f"{key!r} is not an arg of {config.command!r} "
                             f"(its args: {', '.join(declared) or 'none'})")
        form = declared[key].misfit(value)
        if form is not None:
            raise ValueError(f"{config.command!r} takes {key} as {form}, not {value!r}")
    return {opt.key: config.args.get(opt.key, opt.default) for opt in options}


class NegativeNumber:
    """After the verb, a minus sign and then anything ``float`` reads is a
    value, so that ``--value -1e3`` and ``--theta -inf`` give the option its
    value.  argparse's own negative-number pattern, which each verb parser
    replaces by this, takes only -N and -N.N."""

    @staticmethod
    def match(text: str) -> bool:
        return text.startswith("-") and _reads(float, text)


def _options(verb: str) -> dict:
    """flag -> option, for the options of ``verb``'s commands in ``COMMANDS`` order."""
    return {opt.flag: opt for command, (options, _) in COMMANDS.items()
            if command.startswith(verb + " ") for opt in options}


class _Reader:
    """What ``build_parser`` gives: ``parse_args`` reads the one form the lab
    issues, ``[--format F | --output PATH]... VERB TARGET [OPTION [VALUE]]...``
    with each value the token after its flag, into argparse's namespace
    (``verb``, the options before it, ``target``, the rest; a repeated flag keeps
    its first place and last value), and hands every other command line, help
    and usage errors included, to ``_argparse``, which parses it the same way."""

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        return self._read(argv) or _argparse(argv)

    @staticmethod
    def _read(argv):
        ns, flags = {"verb": None}, {opt.flag: opt for opt in COMMON}
        args = iter(argv)
        for arg in args:
            opt = flags.get(arg)
            if ns["verb"] is None and arg in VERBS:
                command = f"{arg} {next(args, '')}"
                if command not in COMMANDS:
                    return None
                ns["verb"], ns["target"] = command.split(" ")
                flags = {opt.flag: opt for opt in COMMANDS[command][0]}
            elif opt is None:
                return None
            elif "action" in opt.spec:  # store_true
                ns[opt.key] = True
            else:
                text = next(args, "-")  # a missing value reads as "-", which is declined
                if text.startswith("-") and not (ns["verb"] and NegativeNumber.match(text)):
                    return None
                try:
                    ns[opt.key] = opt.spec.get("type", str)(text)
                except Exception:  # argparse reruns the type, and reports or raises as it does
                    return None
                if "choices" in opt.spec and text not in opt.spec["choices"]:
                    return None
        return SimpleNamespace(**ns) if ns["verb"] else None


def _argparse(argv):
    """Parse ``argv`` with argparse, every verb's parser built by ``add_parser``.  A
    command's option given before the verb, an option given no string value (argparse
    stores ``[]`` for ``--opt=--``) and an option of the verb that the named target
    does not take are usage errors."""
    import argparse

    def declare(parser, options):
        for opt in options:
            parser.add_argument(opt.flag, dest=opt.key, default=argparse.SUPPRESS, **opt.spec)
        return parser

    class AfterTheCommand(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            takers = [repr(c) for c, (options, _) in COMMANDS.items()
                      if any(opt.flag == option_string for opt in options)]
            raise argparse.ArgumentError(
                self, f"an option of {' and '.join(takers)}, which goes after the command")

    # Common flags live in a parent so they parse both before and after the
    # verb; SUPPRESS keeps subparser defaults from clobbering values.
    common = declare(argparse.ArgumentParser(add_help=False), COMMON)
    # No prefix matching: --lambda must not silently mean --lambda-size.
    parser = argparse.ArgumentParser(
        prog="omlab", parents=[common], allow_abbrev=False,
        description="desk-scale checks for ontological models of quantum theory")
    # the top-level parser reads only what comes before the verb, where a
    # command's option is a usage error that says where the option goes
    for flag in dict.fromkeys(opt.flag for options, _ in COMMANDS.values() for opt in options):
        parser.add_argument(flag, nargs="?", action=AfterTheCommand,
                            default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in VERBS.items():
        p = verbs.add_parser(verb, parents=[common], help=help_text, allow_abbrev=False)
        p._negative_number_matcher = NegativeNumber
        p.add_argument("target", choices=[c.partition(" ")[2] for c in COMMANDS
                                          if c.startswith(verb + " ")])
        declare(p, _options(verb).values())
    ns, unrecognized = parser.parse_known_args(argv)
    for opt in (*COMMON, *_options(ns.verb).values()):
        if isinstance(getattr(ns, opt.key, ""), list):
            verbs.choices[ns.verb].error(f"argument {opt.flag}: expected one argument")
    command = f"{ns.verb} {ns.target}"
    own = COMMANDS[command][0]
    for opt in _options(ns.verb).values():
        if opt not in own and hasattr(ns, opt.key):
            verbs.choices[ns.verb].error(
                f"argument {opt.flag}: not an option of {command!r} "
                f"(its options: {', '.join(o.flag for o in own) or 'none'})")
    if unrecognized:
        parser.error(f"unrecognized arguments: {' '.join(unrecognized)}")
    return ns


def build_parser() -> _Reader:
    return _Reader()


def config_from_args(ns) -> RunConfig:
    """The command line's config: its command and the options it gave;
    ``cli.run`` gives the others their defaults."""
    command = f"{ns.verb} {ns.target}"
    args = {opt.key: getattr(ns, opt.key) for opt in COMMANDS[command][0] if hasattr(ns, opt.key)}
    return RunConfig(command, args, output=getattr(ns, "output", None))


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    fmt = getattr(ns, "format", "text")
    config = config_from_args(ns)
    report = run(config)
    rendered = emit(report, fmt)
    print(rendered)
    out_path = config.output
    if out_path is None and os.environ.get("OMLAB_OUTPUT_DIR"):
        slug = config.command.replace(" ", "-")
        out_path = os.path.join(os.environ["OMLAB_OUTPUT_DIR"], f"{slug}.{fmt}")
    if out_path is not None:
        try:
            if not os.path.basename(out_path) or os.path.isdir(out_path):
                raise IsADirectoryError("Is a directory")  # and so no file to create
            os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
            with open(out_path, "w") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"omlab: error: cannot write the report to {out_path!r}: {exc}",
                  file=sys.stderr)
            return 1
    return 0 if report.all_passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
