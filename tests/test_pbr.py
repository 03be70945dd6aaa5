"""Product-preparation scenario: construction invariants, the support-level
verdicts against an enumeration oracle, the no-show escape and the CHSH gap."""

import importlib.util
import itertools
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pbr_oracle import grid_search, inner_feasibility, model_replay, witness_to_model
from toy_composites import kb_composites

from omlab import cli, exact, pbr, quantum, toy
from omlab.exact import INV_SQRT2, SQRT2, ExactComplex
from omlab.models import (
    EpistemicState,
    ModelError,
    OnticSpace,
    overlap_witness,
    reproduction_check,
)

F = Fraction

# Frozen Born table: |<phi_k|Psi_j>|^2, worked out by hand from the
# amplitude lists (each inner product is 0, 1/2 or 1/sqrt2).
BORN_EXPECTED = {
    ("Psi1", "phi1"): F(0), ("Psi1", "phi2"): F(1, 4),
    ("Psi1", "phi3"): F(1, 4), ("Psi1", "phi4"): F(1, 2),
    ("Psi2", "phi1"): F(1, 4), ("Psi2", "phi2"): F(0),
    ("Psi2", "phi3"): F(1, 2), ("Psi2", "phi4"): F(1, 4),
    ("Psi3", "phi1"): F(1, 4), ("Psi3", "phi2"): F(1, 2),
    ("Psi3", "phi3"): F(0), ("Psi3", "phi4"): F(1, 4),
    ("Psi4", "phi1"): F(1, 2), ("Psi4", "phi2"): F(1, 4),
    ("Psi4", "phi3"): F(1, 4), ("Psi4", "phi4"): F(0),
}


# ------------------------------------------------------------- scenario

def test_scenario_orthogonality_and_gram():
    sc = pbr.build_pbr_scenario()
    for j in range(1, 5):
        ov = quantum.inner(sc.measurement_kets[f"phi{j}"], sc.preparations[f"Psi{j}"])
        assert ov.is_zero()
    for a, b in itertools.product(pbr.OUTCOME_LABELS, repeat=2):
        ov = quantum.inner(sc.measurement_kets[a], sc.measurement_kets[b])
        want = F(1) if a == b else F(0)
        assert (ov - quantum.ExactComplex.of(want)).is_zero()


def test_scenario_born_table_frozen_values():
    assert pbr.build_pbr_scenario().born_table() == BORN_EXPECTED


def test_preparations_are_products_of_zero_and_plus():
    sc = pbr.build_pbr_scenario()
    k0, kp = quantum.KET_0, quantum.KET_PLUS
    pattern = {"Psi1": (k0, k0), "Psi2": (k0, kp), "Psi3": (kp, k0), "Psi4": (kp, kp)}
    for name, (a, b) in pattern.items():
        assert sc.preparations[name].amplitudes == quantum.tensor(a, b).amplitudes


def test_measurement_kets_are_the_entangled_sums():
    sc = pbr.build_pbr_scenario()
    k0, k1, kp, km = quantum.KET_0, quantum.KET_1, quantum.KET_PLUS, quantum.KET_MINUS
    pattern = {"phi1": ((k0, k1), (k1, k0)), "phi2": ((k0, km), (k1, kp)),
               "phi3": ((kp, k1), (km, k0)), "phi4": ((kp, km), (km, kp))}
    for name, (a, b) in pattern.items():
        first, second = quantum.tensor(*a), quantum.tensor(*b)
        want = tuple(INV_SQRT2 * (x + y)
                     for x, y in zip(first.amplitudes, second.amplitudes))
        assert sc.measurement_kets[name].amplitudes == want


# ------------------------------------------------------------- support decision

def make_state(weights):
    return EpistemicState(OnticSpace((1, 2, 3, 4)), tuple(F(w) for w in weights))


def test_support_decision_prices_the_toy_states():
    # q=1/2 on the step-1/2 grid: state 1 carries 1/2 under both (1/2, 1/2, 0, 0)
    # and (1/2, 0, 1/2, 0), so every product puts 1/4 on the cell (1, 1)
    problem = pbr.FeasibilityProblem(lambda_size=4, grid_denominator=2, q=F(1, 2),
                                     null_budget=F(1, 8))
    below = pbr.solve_feasibility(problem)
    assert (below.status, below.decided_by) == ("infeasible", "support")
    assert below.certificate["lambda"] == [1, 1]
    assert (below.certificate["bound"], below.certificate["budget"]) == ("1/4", "1/8")
    at = pbr.solve_feasibility(replace(problem, null_budget=F(1, 4)))
    assert (at.status, at.decided_by, at.tested_points) == ("feasible", "support", 1)
    assert at.witness["p0"] == ["1/2", "1/2", "0/1", "0/1"]
    assert at.witness["pplus"] == ["1/2", "0/1", "1/2", "0/1"]
    replay = pbr.replay_witness(at.witness)
    assert replay["post_selected_match"] and replay["no_show_rate"] == F(1, 4)


def test_support_decision_needs_a_forced_overlap():
    # without q no ontic state is shared: disjoint point masses, with no LP
    verdict = pbr.solve_feasibility(pbr.FeasibilityProblem(lambda_size=4, grid_denominator=2,
                                                           q=None))
    assert (verdict.status, verdict.decided_by, verdict.tested_points) == (
        "feasible", "support", 1)
    assert verdict.to_json()["decided_by"] == "support"
    s0, sp = (make_state(verdict.witness[side]) for side in ("p0", "pplus"))
    assert overlap_witness(s0, sp) is None
    assert sorted(verdict.witness["xi"]) == sorted(
        f"{k}|{cell}" for k in pbr.OUTCOME_LABELS for cell in ("1,1", "1,2", "2,1", "2,2"))


def test_support_decision_rejects_zero_q():
    with pytest.raises(pbr.PbrError):
        pbr.FeasibilityProblem(q=F(0))


def compare_with_the_oracle(problem, born) -> bool:
    """The verdict agrees with the enumeration oracle in status; an infeasible
    one also in tested points and certificate, and a feasible one replays.
    Returns whether the certificates differ because the oracle's last point
    was decided by the simplex, which leaves no certificate."""
    verdict = pbr.solve_feasibility(problem, born)
    status, tested, found = grid_search(problem, born)
    assert (verdict.status, verdict.decided_by) == (status, "support"), problem
    assert verdict.to_json()["decided_by"] == "support"
    if status == "feasible":
        replay = pbr.replay_witness(verdict.witness, born)
        assert replay["post_selected_match"], problem
        assert replay["unconditioned_match"] == (problem.null_budget is None), problem
        return False
    assert verdict.tested_points == tested, problem
    if found is None:
        return True
    assert verdict.certificate == found, problem
    return False


def test_support_verdict_matches_the_grid_search():
    born = pbr.build_pbr_scenario().born_table()
    for n, d in itertools.product(range(1, 5), range(2, 5)):
        for units, relax in itertools.product(range(1, d + 1), (False, True)):
            problem = pbr.FeasibilityProblem(lambda_size=n, grid_denominator=d,
                                             q=F(units, d), relax_product=relax)
            assert not compare_with_the_oracle(problem, born)


def test_unforced_verdict_matches_the_grid_search():
    born = pbr.build_pbr_scenario().born_table()
    for n, d, budget, relax in itertools.product(range(1, 5), range(1, 5), (None, F(1, 2)),
                                                 (False, True)):
        problem = pbr.FeasibilityProblem(lambda_size=n, grid_denominator=d, q=None,
                                         relax_product=relax, null_budget=budget)
        assert not compare_with_the_oracle(problem, born)
        verdict = pbr.solve_feasibility(problem, born)
        assert verdict.status == ("infeasible" if n == 1 else "feasible")
        assert pbr.no_show_price(problem) == (None if n == 1 else 0)
        if n >= 2:
            # the psi-ontic point; on two ontic states it is the oracle's witness
            assert (verdict.witness["p0"][:2], verdict.witness["pplus"][:2]) == (
                ["1/1", "0/1"], ["0/1", "1/1"])
            if n == 2:
                assert grid_search(problem, born)[2] == tuple(
                    tuple(F(x) for x in verdict.witness[side]) for side in ("p0", "pplus"))


def test_small_budget_verdict_matches_the_grid_search():
    # one or two ontic states with a budget: 30 of these 360 problems end the
    # enumeration on a relaxed spread family with zero-weight cells, decided
    # by the simplex; the verdict names Psi1's forced no-show rate there too
    born = pbr.build_pbr_scenario().born_table()
    qs = (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(1))
    lp_decided = []
    for n, d, q, budget, relax in itertools.product(
            (1, 2), range(1, 7), qs, (F(1, 16), F(1, 2), F(7, 8)), (False, True)):
        problem = pbr.FeasibilityProblem(lambda_size=n, grid_denominator=d, q=q,
                                         relax_product=relax, null_budget=budget)
        if compare_with_the_oracle(problem, born):
            lp_decided.append(problem)
        verdict = pbr.solve_feasibility(problem, born)
        assert verdict.certificate["violated_equation"] == (
            f"forced no-show rate 1/1 exceeds budget {pbr.frac_str(budget)} for Psi1")
    assert len(lp_decided) == 30
    assert all((p.lambda_size, p.relax_product, pbr._star_floor(p)) == (2, True, 1)
               for p in lp_decided)


def test_unforced_budget_witness_keeps_raw_statistics_apart():
    # every q=none budget op: the no-show rate stays b > 0, so the raw
    # statistics differ from Born and only the post-selected ones match
    for n, relax, budget in itertools.product(range(2, 9), (False, True),
                                              ("1/16", "1/2", "7/8")):
        argv = ["nogo", "pbr", "--q", "none", "--lambda-size", str(n), "--null-budget", budget]
        report = cli.run(cli.config_from_args(cli.build_parser().parse_args(
            argv + ["--relax-product"] * relax)))
        passed = {c.name: c.passed for c in report.checks}
        assert passed["pbr null witness: raw statistics differ from Born"], argv
        assert passed["pbr witness reproduces Born (post-selected)"] and report.all_passed


def candidate_lp(n, d, units, budget, born):
    """The oracle's inner LP at p0 = (f, 1-f, 0, ...), p+ = (f, 0, 1-f, ...)
    on the 3x3 block of states 1..3, built here from the formula."""
    f = F(units, d)
    p0 = (f, 1 - f) + (F(0),) * (n - 2)
    pplus = (f, F(0), 1 - f) + (F(0),) * (n - 3)
    joints = pbr.product_joint(p0, pplus, tuple(range(1, n + 1)))
    cells = tuple(itertools.product((1, 2, 3), repeat=2))
    return inner_feasibility(joints, born, cells, budget)


def xi_payload(xi) -> dict:
    """(outcome, cell) -> Fraction as a witness's "xi" strings."""
    return {f"{k}|{a},{b}": pbr.frac_str(v) for (k, (a, b)), v in xi.items()}


def test_candidate_lp_is_feasible_exactly_from_f_squared():
    born = pbr.build_pbr_scenario().born_table()
    for n, d in itertools.product(range(3, 6), range(2, 7)):
        for units in range(1, d):
            price = F(units, d) ** 2
            vertex = candidate_lp(n, d, units, price, born)
            assert vertex.feasible, (n, d, units)
            assert not candidate_lp(n, d, units, price - F(1, d ** 3), born).feasible
            problem = pbr.FeasibilityProblem(lambda_size=n, grid_denominator=d,
                                             q=F(units, d), null_budget=price)
            assert pbr.no_show_price(problem) == price
            verdict = pbr.solve_feasibility(problem, born)
            assert verdict.status == "feasible"
            assert pbr.replay_witness(verdict.witness, born)["no_show_rate"] == price
            # at the price the closed form is the oracle LP's vertex
            assert verdict.witness["xi"] == xi_payload(vertex.xi), (n, d, units)
            above = pbr.solve_feasibility(replace(problem, null_budget=price + F(1, d ** 3)),
                                          born)
            replay = pbr.replay_witness(above.witness, born)
            assert above.status == "feasible" and replay["post_selected_match"]
            assert replay["no_show_rate"] == price, (n, d, units)


def perfbench_checks():
    """perfbench's checker, loaded from its file: it recomputes the Born
    table with numpy and shares no code with omlab."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def budget_args(units, d, budget) -> dict:
    """The report args perfbench's witness check reads."""
    return {"q": pbr.frac_str(F(units, d)), "relax_product": False,
            "null_budget": pbr.frac_str(budget)}


def test_budget_witness_replays_over_the_documented_range():
    # the closed form alone, no LP: every ontic-space size, D <= 12 and
    # f = k/D < 1; the witness at the price serves every budget above it
    born = pbr.build_pbr_scenario().born_table()
    checks = perfbench_checks()
    cases = 0
    for n, d in itertools.product(range(3, 9), range(2, 13)):
        for units in range(1, d):
            price = F(units, d) ** 2
            problem = pbr.FeasibilityProblem(lambda_size=n, grid_denominator=d,
                                             q=F(units, d), null_budget=price)
            witness = pbr.solve_feasibility(problem, born).witness
            for budget in (price + F(1, d ** 3), F(99, 100)):
                above = pbr.solve_feasibility(replace(problem, null_budget=budget), born)
                assert above.witness == witness, (problem, budget)
            assert len(witness["xi"]) == 45
            replay = pbr.replay_witness(witness, born)
            assert replay["post_selected_match"], problem
            assert replay["no_show_rate"] == price, problem
            assert checks._check_witness(budget_args(units, d, price), witness) == []
            cases += 1
    assert cases == 396


def test_budget_witness_mutants_are_rejected():
    # t below the least admissible value makes a = (3f - 1)/(4f) + t(1 - f)/f
    # negative for f < 1/3; t above 1/2 makes 1/2 - t negative
    born = pbr.build_pbr_scenario().born_table()
    checks = perfbench_checks()
    mutants = 0
    for d in range(2, 13):
        for units in range(1, d):
            f, step = F(units, d), F(1, d ** 3)
            problem = pbr.FeasibilityProblem(lambda_size=3, grid_denominator=d, q=f,
                                             null_budget=f * f)
            witness = pbr.solve_feasibility(problem, born).witness
            least = max(F(0), (1 - 3 * f) / (4 * (1 - f)))
            assert xi_payload(pbr._price_response(f, least)) == witness["xi"]
            bad = [F(1, 2) + step] + ([least - step] if f < F(1, 3) else [])
            for t in bad:
                mutant = dict(witness, xi=xi_payload(pbr._price_response(f, t)))
                with pytest.raises(ModelError, match="response entries must lie in"):
                    pbr.replay_witness(mutant, born)
                assert checks._check_witness(budget_args(units, d, f * f), mutant), (f, t)
                mutants += 1
    assert mutants == 66 + 18


def emitted_witnesses(born):
    """Every witness solve_feasibility emits over L = 1..8, D <= 12, every
    floor k/D and q = none, with no budget and with the budgets in (0, 1)
    among f^2 - 1/D^3, f^2 and f^2 + 1/D^3 (1/D^3 and 1/2 for q = none)."""
    for n, d in itertools.product(range(1, 9), range(1, 13)):
        step = F(1, d ** 3)
        for q in [None] + [F(units, d) for units in range(1, d + 1)]:
            price = None if q is None else F(math.ceil(q * d), d) ** 2
            budgets = (step, F(1, 2)) if q is None else (price - step, price, price + step)
            for budget in [None] + [b for b in budgets if 0 < b < 1]:
                problem = pbr.FeasibilityProblem(lambda_size=n, grid_denominator=d, q=q,
                                                 null_budget=budget)
                witness = pbr.solve_feasibility(problem, born).witness
                if witness is not None:
                    yield problem, witness


def test_replay_agrees_with_the_model_route_on_every_emitted_witness():
    born = pbr.build_pbr_scenario().born_table()
    table = {(p, "R", k): born[(p, k)] for p in pbr.PREP_LABELS for k in pbr.OUTCOME_LABELS}
    replayed = with_null = 0
    for problem, witness in emitted_witnesses(born):
        replay = pbr.replay_witness(witness, born)
        assert replay == model_replay(witness, born), problem
        assert type(replay["no_show_rate"]) is F and replay["post_selected_match"], problem
        if pbr.NULL in witness["outcomes"]:
            with_null += 1
        else:
            assert reproduction_check(witness_to_model(witness), table).ok, problem
        replayed += 1
    # q = none on L >= 2: no budget, 1/D^3 for D > 1 and 1/2; forced overlaps
    # on L >= 3: the 66 floors below 1, at and above f^2
    assert (replayed, with_null) == (7 * (12 + 11 + 12) + 6 * 66 * 2, 7 * (11 + 12) + 6 * 66 * 2)


def replace_entry(witness, key, value, prep=None) -> dict:
    """A copy of the witness with ``prep``'s joint weight on the cell ``key``,
    or without ``prep`` the response entry ``key``, set to the Fraction value."""
    if prep is None:
        return dict(witness, xi={**witness["xi"], key: pbr.frac_str(value)})
    weights = {**witness["joints"][prep], key: pbr.frac_str(value)}
    return dict(witness, joints={**witness["joints"], prep: weights})


def same_model_error(witness, born) -> str:
    """The ModelError message the replay raises, once the model route
    (witness_to_model, predicted_probability) has raised the same one."""
    with pytest.raises(ModelError) as by_model:
        model_replay(witness, born)
    with pytest.raises(ModelError) as by_replay:
        pbr.replay_witness(witness, born)
    assert type(by_replay.value) is ModelError is exact.ModelError
    assert str(by_replay.value) == str(by_model.value)
    return str(by_replay.value)


def test_replay_rejects_malformed_witnesses_as_the_model_route_does():
    born = pbr.build_pbr_scenario().born_table()
    mutants = 0
    for d, units in ((d, u) for d in range(2, 13) for u in range(1, d)):
        step = F(1, d ** 3)
        for q, budget in ((F(units, d), F(units, d) ** 2), (None, None)):
            witness = pbr.solve_feasibility(pbr.FeasibilityProblem(
                lambda_size=3, grid_denominator=d, q=q, null_budget=budget), born).witness
            cell, weight = next(iter(witness["joints"]["Psi2"].items()))
            negative = replace_entry(witness, cell, -F(weight), prep="Psi2")
            assert same_model_error(negative, born) == "negative epistemic weight"
            heavy = replace_entry(witness, cell, F(weight) + step, prep="Psi2")
            assert same_model_error(heavy, born) == (
                f"epistemic weights sum to {1 + step}, not 1")
            key = next(k for k, v in sorted(witness["xi"].items()) if F(v) > 0)
            above = replace_entry(witness, key, 1 + step)
            assert same_model_error(above, born) == "response entries must lie in [0, 1]"
            short = replace_entry(witness, key, F(witness["xi"][key]) - step)
            a, b = key.split("|")[1].split(",")
            assert same_model_error(short, born) == (
                f"response column for ({a}, {b}) sums to {1 - step}, not 1")
            dropped = dict(witness, outcomes=[k for k in witness["outcomes"] if k != "phi3"])
            assert same_model_error(dropped, born).startswith("response column for")
            # phi3's entries moved onto phi4: every column still sums to 1
            moved = dict(dropped, xi=dict(witness["xi"]))
            for key3 in [k for k in moved["xi"] if k.startswith("phi3|")]:
                key4 = "phi4|" + key3.split("|")[1]
                moved["xi"][key4] = pbr.frac_str(F(moved["xi"].get(key4, "0"))
                                                 + F(moved["xi"].pop(key3)))
            assert same_model_error(moved, born) == "unknown outcome 'phi3'"
            mutants += 6
    assert mutants == 6 * 2 * 66
    # a valid response that never detects anything on Psi1's one cell: Psi1
    # has no rate to post-select on, and the others no no-show
    witness = pbr.solve_feasibility(pbr.FeasibilityProblem(q=None), born).witness
    (cell,) = witness["joints"]["Psi1"]
    blind = dict(witness, outcomes=witness["outcomes"] + [pbr.NULL], xi={
        **{k: v for k, v in witness["xi"].items() if not k.endswith(f"|{cell}")},
        f"{pbr.NULL}|{cell}": "1/1"})
    replay = pbr.replay_witness(blind, born)
    assert replay == model_replay(blind, born)
    assert replay == {"post_selected_match": False, "unconditioned_match": False,
                      "no_show_rate": 1}


def assert_reads_as_fraction(text):
    """The ratio reader gives (v.numerator * k, v.denominator * k), k >= 1,
    where Fraction(text) is v, and raises what Fraction raises elsewhere."""
    try:
        value = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            exact.read_ratio(text)
        return
    num, den = exact.read_ratio(text)
    k = den // value.denominator
    assert k >= 1 and (num, den) == (value.numerator * k, value.denominator * k)


@pytest.mark.parametrize("text", ["-0/1", "007/8", "3/00", "3/-8", "+3/8", "3_0/8", " 3/8",
                                  "1.5", "-", ""], ids=repr)
def test_the_ratio_reader_reads_each_edge_form_as_fraction_does(text):
    assert_reads_as_fraction(text)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.fractions(max_denominator=10 ** 6).map(pbr.frac_str),
                 st.text(alphabet="0123456789-+/._e \u0663", max_size=8)))
def test_the_ratio_reader_reads_what_fraction_reads(text):
    assert_reads_as_fraction(text)


def test_replay_reads_equal_strings_in_any_form_fraction_reads():
    born = pbr.build_pbr_scenario().born_table()
    problem = pbr.FeasibilityProblem(lambda_size=4, grid_denominator=4, q=F(1, 4),
                                     null_budget=F(1, 16))
    witness = pbr.solve_feasibility(problem, born).witness  # one of emitted_witnesses
    assert pbr.NULL in witness["outcomes"]
    forms = itertools.cycle([lambda n, d: f"{2 * n}/{2 * d}", lambda n, d: f"+{n}/{d}",
                             lambda n, d: f" {n}/{d}"])

    def recast(text):
        n, d = text.split("/")
        return next(forms)(int(n), int(d))

    joints = {prep: {cell: recast(w) for cell, w in weighed.items()}
              for prep, weighed in witness["joints"].items()}
    xi = {key: recast(v) for key, v in witness["xi"].items()}
    assert pbr.replay_witness(dict(witness, joints=joints, xi=xi), born) == (
        pbr.replay_witness(witness, born))
    cell = next(iter(joints["Psi1"]))
    with pytest.raises(ZeroDivisionError):
        pbr.replay_witness(dict(witness, joints={**joints, "Psi1": {cell: "1/0"}}), born)
    with pytest.raises(ValueError):
        pbr.replay_witness(dict(witness, xi={**xi, f"phi1|{cell}": "x"}), born)


def test_replay_reads_the_strings_frac_str_writes_without_fraction(monkeypatch):
    born = pbr.build_pbr_scenario().born_table()
    witnesses = [pbr.solve_feasibility(pbr.FeasibilityProblem(
        lambda_size=4, grid_denominator=4, q=q, null_budget=budget), born).witness
        for q, budget in ((None, None), (F(1, 4), F(1, 16)))]
    expected = [pbr.replay_witness(witness, born) for witness in witnesses]

    def no_text(*args):
        assert not any(isinstance(a, str) for a in args), args
        return F(*args)

    monkeypatch.setattr(pbr, "Fraction", no_text)
    assert [pbr.replay_witness(witness, born) for witness in witnesses] == expected


def test_enumeration_confirms_the_price_without_the_bound():
    born = pbr.build_pbr_scenario().born_table()
    # one or two ontic states: no budget below 1 admits a model, in either mode
    for n, d, relax in itertools.product((1, 2), (2, 3), (False, True)):
        for units, budget in itertools.product(range(1, d + 1), (F(1, 2), F(3, 4), F(15, 16))):
            problem = pbr.FeasibilityProblem(lambda_size=n, grid_denominator=d,
                                             q=F(units, d), relax_product=relax,
                                             null_budget=budget)
            assert pbr.no_show_price(problem) is None
            assert grid_search(problem, born)[0] == "infeasible", problem
    # three ontic states: every grid point fails just below f^2, as the
    # support decision says without enumerating
    for d, relax in itertools.product((2, 3), (False, True)):
        for units in range(1, d):
            problem = pbr.FeasibilityProblem(
                lambda_size=3, grid_denominator=d, q=F(units, d), relax_product=relax,
                null_budget=F(units, d) ** 2 - F(1, d ** 3))
            status, tested, _ = grid_search(problem, born)
            support = pbr.solve_feasibility(problem, born)
            assert status == support.status == "infeasible", problem
            assert tested == support.tested_points


# ------------------------------------------------------------- feasibility

def default_problem(**overrides):
    base = dict(lambda_size=4, grid_denominator=4, q=F(1, 4))
    base.update(overrides)
    return pbr.FeasibilityProblem(**base)


def test_forced_overlap_is_infeasible_with_certificate():
    verdict = pbr.solve_feasibility(default_problem())
    assert verdict.status == "infeasible"
    cert = verdict.certificate
    assert cert["lambda"] == [1, 1]
    assert cert["pair"] in [[j, j] for j in range(1, 5)]
    assert len(cert["forced_zeros"]) == 4
    assert all(fz["pair"][0] == fz["pair"][1] for fz in cert["forced_zeros"])
    # the chain is read off the Born table: a nonzero diagonal entry breaks it
    born = {**pbr.build_pbr_scenario().born_table(), ("Psi3", "phi3"): F(1, 4)}
    for budget in (None, F(1, 8)):
        with pytest.raises(pbr.PbrError, match="Born"):
            pbr.solve_feasibility(default_problem(lambda_size=2, null_budget=budget), born)


def brute_force_overlap_cell_infeasible(denominator: int) -> bool:
    """Independent oracle for the overlap cell: its response column must
    both sum to 1 (outcome completeness) and vanish entirely (each zero
    Born pair puts positive weight there).  Enumerate every rational column
    with entries k/denominator and report whether any satisfies both."""
    grid = [F(k, denominator) for k in range(denominator + 1)]
    for column in itertools.product(grid, repeat=4):
        satisfies_completeness = sum(column) == 1
        satisfies_zero_born_rows = all(x == 0 for x in column)
        if satisfies_completeness and satisfies_zero_born_rows:
            return False
    return True


def test_overlap_cell_brute_force_oracle():
    assert brute_force_overlap_cell_infeasible(4)


def test_no_overlap_gives_delta_witness():
    verdict = pbr.solve_feasibility(default_problem(q=None))
    assert verdict.status == "feasible"
    p0 = [F(x) for x in verdict.witness["p0"]]
    pp = [F(x) for x in verdict.witness["pplus"]]
    s0 = make_state(p0)
    sp = make_state(pp)
    assert overlap_witness(s0, sp) is None  # the psi-ontic delta shape
    assert s0.is_point_mass() and sp.is_point_mass()
    replay = pbr.replay_witness(verdict.witness)
    assert replay["post_selected_match"] and replay["unconditioned_match"]


def test_witness_replays_through_reproduction_check():
    verdict = pbr.solve_feasibility(default_problem(q=None))
    model = witness_to_model(verdict.witness)
    born = pbr.build_pbr_scenario().born_table()
    table = {(p, "R", k): born[(p, k)]
             for p in pbr.PREP_LABELS for k in pbr.OUTCOME_LABELS}
    report = reproduction_check(model, table)
    assert report.ok and len(report.rows) == 16


def test_relaxed_product_still_infeasible():
    verdict = pbr.solve_feasibility(default_problem(relax_product=True))
    assert verdict.status == "infeasible"
    assert verdict.tested_points == 1200  # three joint families per grid point


def test_lambda_size_bound_enforced():
    with pytest.raises(pbr.PbrError):
        pbr.FeasibilityProblem(lambda_size=9)


def test_smaller_lambda_and_grid_still_infeasible():
    verdict = pbr.solve_feasibility(default_problem(lambda_size=2,
                                                    grid_denominator=2,
                                                    q=F(1, 2)))
    assert verdict.status == "infeasible"


def scipy_inner_feasible(joints, born, cells) -> bool:
    """Second implementation of the inner feasibility question via a float
    LP; no presolve, no shared code with the exact route."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    var_idx = {}
    for k in pbr.OUTCOME_LABELS:
        for cell in cells:
            var_idx[(k, cell)] = len(var_idx)
    n = len(var_idx)
    rows, rhs = [], []
    for cell in cells:
        row = [0.0] * n
        for k in pbr.OUTCOME_LABELS:
            row[var_idx[(k, cell)]] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for prep in pbr.PREP_LABELS:
        for k in pbr.OUTCOME_LABELS:
            row = [0.0] * n
            for cell, w in joints[prep].items():
                row[var_idx[(k, cell)]] += float(w)
            rows.append(row)
            rhs.append(float(born[(prep, k)]))
    res = scipy_opt.linprog(c=[0.0] * n, A_eq=rows, b_eq=rhs,
                            bounds=[(0, 1)] * n, method="highs")
    return bool(res.success)


def test_inner_lp_agrees_with_float_lp_on_grid_points():
    born = pbr.build_pbr_scenario().born_table()
    labels = (1, 2, 3, 4)
    cells = tuple(itertools.product(labels, repeat=2))
    weight_pairs = [
        # overlapping pairs: infeasible
        ((F(1, 2), F(1, 2), F(0), F(0)), (F(1, 2), F(0), F(1, 2), F(0))),
        ((F(1, 4), F(3, 4), F(0), F(0)), (F(1, 4), F(0), F(3, 4), F(0))),
        ((F(1), F(0), F(0), F(0)), (F(1), F(0), F(0), F(0))),
        ((F(1, 4), F(1, 4), F(1, 4), F(1, 4)), (F(1, 2), F(1, 2), F(0), F(0))),
        # disjoint pairs: feasible
        ((F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0))),
        ((F(1, 2), F(1, 2), F(0), F(0)), (F(0), F(0), F(1, 2), F(1, 2))),
        ((F(3, 4), F(1, 4), F(0), F(0)), (F(0), F(0), F(1), F(0))),
    ]
    for p0, pp in weight_pairs:
        joints = pbr.product_joint(p0, pp, labels)
        exact = inner_feasibility(joints, born, cells, None)
        assert exact.feasible == scipy_inner_feasible(joints, born, cells), (p0, pp)


# ------------------------------------------------------------- null escape

def test_null_extension_budget_half_is_feasible_and_post_selected():
    verdict = pbr.solve_feasibility(replace(default_problem(), null_budget=F(1, 2)))
    assert verdict.status == "feasible"
    replay = pbr.replay_witness(verdict.witness)
    assert replay["post_selected_match"]
    assert not replay["unconditioned_match"]  # post-selection does real work


def test_null_extension_zero_budget_reduces_to_plain_verdict():
    problem = replace(default_problem(), null_budget=F(0))
    assert problem.null_budget is None
    verdict = pbr.solve_feasibility(problem)
    plain = pbr.solve_feasibility(default_problem())
    assert verdict.status == plain.status == "infeasible"


def test_null_extension_budget_sweep_converges_to_plain_verdict():
    statuses = []
    for budget in (F(1, 2), F(1, 4), F(1, 8), F(0)):
        problem = replace(default_problem(), null_budget=budget)
        statuses.append(pbr.solve_feasibility(problem).status)
    assert statuses[0] == "feasible"
    assert statuses[-1] == "infeasible"
    # once the budget is too small the verdict stays infeasible
    seen_infeasible = False
    for s in statuses:
        if s == "infeasible":
            seen_infeasible = True
        elif seen_infeasible:
            pytest.fail(f"verdicts not monotone: {statuses}")


def test_null_budget_validation():
    with pytest.raises(pbr.PbrError):
        replace(default_problem(), null_budget=F(3, 2))


# ------------------------------------------------------------- CHSH

def test_chsh_quantum_value_and_bounds():
    rep = pbr.chsh_gap_demo()
    assert rep.quantum_value == pytest.approx(2 * 2 ** 0.5, abs=1e-9)
    assert rep.local_bound == 2
    assert rep.toy_maximum == 2
    assert rep.s_exact == -2 * SQRT2


def chsh_rows(monkeypatch, correlation) -> dict:
    monkeypatch.setattr(pbr, "_singlet_correlation", correlation)
    return {c.name: c.passed for c in pbr.chsh_checks()}


def test_chsh_rows_decide_s_exactly(monkeypatch):
    exact = pbr._singlet_correlation

    def rounded(ka, kb):  # the correlation as its nearest double, a rational
        return ExactComplex.of(F(exact(ka, kb).to_complex().real))

    # S is now rational and within 1e-9 of -2 sqrt2, which no tolerance tells apart
    rows = chsh_rows(monkeypatch, rounded)
    assert abs(pbr.chsh_gap_demo().quantum_value - 2 * 2 ** 0.5) <= 1e-9
    assert rows == {"chsh quantum singlet value": False, "chsh local deterministic bound": True,
                    "chsh toy composite maximum": True, "chsh gap positive": True}
    # S = 1/2 + 1/2 + 1/2 + 1/2 = 2 meets the local bound: no gap
    rows = chsh_rows(monkeypatch, lambda ka, kb: ExactComplex.of(F(1, 2) if ka == 0 or kb == 1
                                                                  else F(-1, 2)))
    assert not rows["chsh gap positive"]


def test_chsh_singlet_correlations_are_minus_cosine():
    # E(ka, kb) = -cos((ka-kb) * pi/4), exact at eighth angles
    import math
    for ka, kb in itertools.product((0, 1, 2, 7), repeat=2):
        val = pbr._singlet_correlation(ka, kb).to_complex().real
        assert val == pytest.approx(-math.cos((ka - kb) * math.pi / 4), abs=1e-12)


def signed_toy_observables() -> list:
    """The six +/-1 block observables, both signs of each toy measurement,
    as value lists over the ontic states 1..4."""
    return [[sign if s in meas.partition[0] else -sign for s in toy.STATES]
            for meas in toy.ALL_TOY_MEASUREMENTS for sign in (1, -1)]


def test_toy_chsh_maximum_is_the_local_bound(monkeypatch):
    # all 65,535 nonempty sets of ontic pairs, knowledge-balanced or not,
    # against the 6^4 signed settings summed as integer numerators
    signed = np.array(signed_toy_observables(), dtype=np.int8)
    pairs = list(itertools.product(toy.STATES, repeat=2))
    masks = np.arange(1, 1 << len(pairs))
    cells = ((masks[:, None] >> np.arange(len(pairs))) & 1).astype(np.int8)
    corr = np.einsum("ia,nab,jb->nij", signed, cells.reshape(-1, 4, 4), signed).astype(np.int8)
    brute = np.zeros(len(masks), dtype=np.int8)
    for a1, a2 in itertools.product(range(len(signed)), repeat=2):
        # S[b1, b2] = c[a1, b1] + c[a1, b2] + c[a2, b1] - c[a2, b2]
        s = (corr[:, a1, :, None] + corr[:, a1, None, :]
             + corr[:, a2, :, None] - corr[:, a2, None, :])
        brute = np.maximum(brute, np.abs(s).reshape(len(masks), -1).max(axis=1))
    sizes = cells.sum(axis=1, dtype=np.int64)
    assert (brute <= 2 * sizes).all()  # |S| <= 2 on every support
    # the knowledge-balanced composites attain the bound, as the demo reports
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    index = [sum(bit[pair] for pair in state.support) - 1 for state in kb_composites()]
    kb_best = max(F(int(brute[i]), int(sizes[i])) for i in index)
    assert kb_best == pbr.chsh_gap_demo().toy_maximum == 2
    # a relabelled 0 state is read by the demo: its S drops to 0
    monkeypatch.setitem(toy.STATE_SUPPORT, "0", frozenset({1, 3}))
    rows = {c.name: c.passed for c in pbr.chsh_checks()}
    assert rows == {"chsh quantum singlet value": True, "chsh local deterministic bound": True,
                    "chsh toy composite maximum": False, "chsh gap positive": True}
