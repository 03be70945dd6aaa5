"""Product-preparation scenario: construction invariants, the two-stage
feasibility search, the no-show escape and the CHSH gap."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from omlab import pbr, quantum
from omlab.models import EpistemicState, OnticSpace, overlap_witness, reproduction_check

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


def test_scenario_rejects_bad_q():
    with pytest.raises(pbr.PbrError):
        pbr.build_pbr_scenario(F(0))


# ------------------------------------------------------------- delta lemma

def make_state(weights):
    return EpistemicState(OnticSpace((1, 2, 3, 4)), tuple(F(w) for w in weights))


def test_delta_lemma_toy_states():
    res = pbr.check_delta_lemma(make_state(("1/2", "1/2", 0, 0)),
                                make_state(("1/2", 0, "1/2", 0)), F(1, 2))
    assert res.holds and res.lambda_star == 1 and res.joint_bound == F(1, 4)


def test_delta_lemma_disjoint():
    res = pbr.check_delta_lemma(make_state((1, 0, 0, 0)),
                                make_state((0, 1, 0, 0)), F(1, 100))
    assert not res.holds


def test_delta_lemma_rejects_zero_q():
    with pytest.raises(pbr.PbrError):
        pbr.check_delta_lemma(make_state((1, 0, 0, 0)),
                              make_state((1, 0, 0, 0)), F(0))


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
    model = pbr.witness_to_model(verdict.witness)
    born = pbr.build_pbr_scenario().born_table()
    table = {(p, "R", k): born[(p, k)]
             for p in pbr.PREP_LABELS for k in pbr.OUTCOME_LABELS}
    report = reproduction_check(model, table)
    assert report.ok and len(report.rows) == 16


def test_relaxed_product_still_infeasible():
    verdict = pbr.solve_feasibility(default_problem(relax_product=True))
    assert verdict.status == "infeasible"
    assert verdict.tested_points == 1200  # three joint families per grid point


def test_verdict_stable_under_overlap_relabeling():
    verdicts = set()
    for star in range(4):
        v = pbr.solve_feasibility(default_problem(star_index=star))
        verdicts.add(v.status)
    assert verdicts == {"infeasible"}


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
        exact = pbr._inner_feasibility(joints, born, cells, None)
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
    assert rep.gap == pytest.approx(2 * 2 ** 0.5 - 2, abs=1e-9)


def test_chsh_singlet_correlations_are_minus_cosine():
    # E(ka, kb) = -cos((ka-kb) * pi/4), exact at eighth angles
    import math
    for ka, kb in itertools.product((0, 1, 2, 7), repeat=2):
        val = pbr._singlet_correlation(ka, kb).to_complex().real
        assert val == pytest.approx(-math.cos((ka - kb) * math.pi / 4), abs=1e-12)
