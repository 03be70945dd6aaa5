"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines stream;
each criterion enforces its stated tolerance and wall-clock budget.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from omlab import gaussian, hardy, pbr, quantum, toy
from omlab.models import (
    classify,
    overlap_witness,
    permute_labels,
    reproduction_check,
)

F = Fraction
HALF = F(1, 2)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed > budget_s:
        print(f"ACCEPTANCE {number:2d} FAIL  {description} "
              f"(runtime {elapsed:.2f}s > {budget_s}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_s}s budget")
    print(f"ACCEPTANCE {number:2d} PASS  {description} ({elapsed:.2f}s)")


def test_criterion_1_toy_born_reproduction():
    with criterion(1, "all 36 toy-model triples match the Born table exactly", 1.0):
        report = reproduction_check(toy.build_toy_model(), toy.toy_born_table())
        assert len(report.rows) == 36
        assert report.ok
        assert all(r.model_value in (F(0), HALF, F(1)) for r in report.rows)


def test_criterion_2_mach_zehnder_both_formalisms():
    with criterion(2, "interferometer: quantum (0,1)/(1,0), toy 3v4/1v2, maps agree", 1.0):
        for phase, (want_d1, want_d2), want_support in (
                (True, (F(0), F(1)), {3, 4}),
                (False, (F(1), F(0)), {1, 2})):
            final = quantum.mz_evolve(phase)
            assert quantum.born_probability(final, quantum.MEAS_DETECTORS, "d1") == want_d1
            assert quantum.born_probability(final, quantum.MEAS_DETECTORS, "d2") == want_d2
            toy_final = toy.mz_toy_run(phase)
            assert toy_final.support == want_support
            label = quantum.identify_pm_state(final)
            assert label is not None
            assert toy.STATE_SUPPORT[label] == toy_final.support


def test_criterion_3_hardy_instance():
    with criterion(3, "upper-arm runs are 1/2-1/2; no overlapping assignment "
                      "for sizes 2..8; escape exists without invariance", 10.0):
        for phase in (True, False):
            final = quantum.mz_evolve(phase, "upper_arm")
            assert quantum.born_probability(final, quantum.MEAS_DETECTORS, "d1") == HALF
            assert quantum.born_probability(final, quantum.MEAS_DETECTORS, "d2") == HALF
        for size in range(2, 9):
            assert not hardy.hardy_verdict(size).overlap_possible
        escape = hardy.hardy_verdict(4, drop_invar=True)
        assert escape.overlap_possible
        assert hardy.replay_zero_facts(escape.assignment, escape.facts)


def test_criterion_4_pbr_feasibility_suite():
    with criterion(4, "orthogonality exact; forced overlap infeasible with "
                      "certificate; delta witness without overlap; null escape "
                      "matches Born after post-selection", 60.0):
        scenario = pbr.build_pbr_scenario()
        for j in range(1, 5):
            assert quantum.inner(scenario.measurement_kets[f"phi{j}"],
                                 scenario.preparations[f"Psi{j}"]).is_zero()
        problem = pbr.FeasibilityProblem(lambda_size=4, grid_denominator=4, q=F(1, 4))
        verdict = pbr.solve_feasibility(problem)
        assert verdict.status == "infeasible"
        assert verdict.certificate is not None
        assert verdict.certificate["lambda"] == [1, 1]

        free = pbr.solve_feasibility(pbr.FeasibilityProblem(
            lambda_size=4, grid_denominator=4, q=None))
        assert free.status == "feasible"
        replay = pbr.replay_witness(free.witness)
        assert replay["post_selected_match"] and replay["unconditioned_match"]

        null = pbr.solve_feasibility(replace(problem, null_budget=HALF))
        assert null.status == "feasible"
        null_replay = pbr.replay_witness(null.witness)
        assert null_replay["post_selected_match"]
        assert not null_replay["unconditioned_match"]


def test_criterion_5_noncommutativity_transcript():
    with criterion(5, "A-then-B gives {1v3,2v4} at 1/2; B-then-A gives "
                      "{1v2,3v4} at 1/2, by exact enumeration", 1.0):
        t = toy.noncommutativity_demo()
        assert t.a_then_b == {frozenset({1, 3}): HALF, frozenset({2, 4}): HALF}
        assert t.b_then_a == {frozenset({1, 2}): HALF, frozenset({3, 4}): HALF}


def test_criterion_6_combination_rule_table():
    with criterion(6, "every listed combination instance reproduced, ordering "
                      "pair included, both analogy mismatches flagged", 1.0):
        table = [
            ((1, 2), toy.CombinationRule.RULE_1, (3, 4), {1, 3}),
            ((1, 2), toy.CombinationRule.RULE_2, (3, 4), {2, 4}),
            ((2, 3), toy.CombinationRule.RULE_4, (1, 4), {2, 4}),
            ((1, 4), toy.CombinationRule.RULE_4, (2, 3), {1, 3}),
            ((1, 3), toy.CombinationRule.RULE_3, (2, 4), {2, 3}),
            ((1, 3), toy.CombinationRule.RULE_4, (2, 4), {1, 4}),
        ]
        for a, rule, b, want in table:
            assert toy.combine(toy.toy_state(*a), toy.toy_state(*b), rule).support == want
        report = toy.analogy_failure_check()
        flagged = {(str(r.left), r.rule, str(r.right)) for r in report.mismatches()}
        assert ("1v3", toy.CombinationRule.RULE_3, "2v4") in flagged
        assert ("1v3", toy.CombinationRule.RULE_4, "2v4") in flagged


def test_criterion_7_no_signaling():
    with criterion(7, "Bob's statistics identical across Alice's three "
                      "choices on the correlated state, exact", 1.0):
        state = toy.make_correlated({1: 1, 2: 2, 3: 3, 4: 4})
        rep = toy.no_signaling_check(state, toy.ALL_TOY_MEASUREMENTS)
        assert rep.max_variation == 0
        for bi in range(3):
            dists = [rep.bob_distributions[(ai, bi)] for ai in range(3)]
            assert dists[0] == dists[1] == dists[2]


def test_criterion_8_chsh_gap():
    with criterion(8, "singlet value 2*sqrt2 within 1e-9; local and toy "
                      "bounds exactly 2 by enumeration", 5.0):
        rep = pbr.chsh_gap_demo()
        assert abs(rep.quantum_value - 2 * math.sqrt(2)) <= 1e-9
        assert rep.local_bound == 2
        assert rep.toy_maximum == 2


def test_criterion_9_gaussian_suite():
    with criterion(9, "boundary eigenvalue 0 (1e-12); EPR r=3 valid with "
                      "var lam*e^-6 (1e-9); conditioning oracle (1e-6); "
                      "entropy quadrature (1e-6)", 10.0):
        boundary = gaussian.coherent_boundary(1.0)
        res = gaussian.validity_check(boundary)
        assert res.valid and abs(res.min_eigenvalue) <= 1e-12

        epr = gaussian.epr_correlated(3.0)
        assert abs(gaussian.validity_check(epr).min_eigenvalue) <= 1e-12
        var = gaussian.epr_quadrature_variances(epr)
        assert abs(var["var_q_diff"] - math.exp(-6)) <= 1e-9

        inference = gaussian.epr_inference(epr, "q", 1.0)
        prec = np.linalg.inv(epr.covariance)
        rest = [1, 2, 3]
        cov_oracle = np.linalg.inv(prec[np.ix_(rest, rest)])
        mean_oracle = -(cov_oracle @ prec[np.ix_(rest, [0])]).ravel() * 1.0
        assert abs(inference.bob.mean[0] - mean_oracle[1]) <= 1e-6

        ent = gaussian.entropy(boundary)
        quad = gaussian.entropy_by_quadrature(boundary)
        assert abs(ent - quad) <= 1e-6


def test_criterion_10_property_suites():
    with criterion(10, "invariant sweeps: 200+ random cases per family, "
                       "zero failures", 60.0):
        rng = random.Random(2718)

        # Born probabilities sum to one on random float-mode qubit states
        for _ in range(200):
            vec = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
            norm = math.sqrt(sum(abs(a) ** 2 for a in vec))
            if norm < 1e-6:
                continue
            ket = quantum.Ket(tuple(a / norm for a in vec))
            total = sum(quantum.born_probability(ket, quantum.MEAS_Z, o)
                        for o in ("0", "1"))
            assert abs(total - 1) <= 1e-9

        # classification invariant under every relabeling of the toy model
        model = toy.build_toy_model()
        base = classify(model)
        for order in itertools.permutations((1, 2, 3, 4)):
            assert classify(permute_labels(model, order)) == base

        # overlap witness symmetry on random rational state pairs
        from omlab.models import EpistemicState, OnticSpace
        space = OnticSpace((1, 2, 3, 4))
        for _ in range(200):
            def draw():
                raw = [rng.randint(0, 5) for _ in range(4)]
                if sum(raw) == 0:
                    raw[0] = 1
                return EpistemicState(space, tuple(F(x, sum(raw)) for x in raw))
            a, b = draw(), draw()
            assert (overlap_witness(a, b) is None) == (overlap_witness(b, a) is None)

        # permutations act as a group on every KB state
        perms = [toy.ToyPermutation(p) for p in itertools.permutations((1, 2, 3, 4))]
        kb_states = [toy.toy_state(*c) for c in itertools.combinations(range(1, 5), 2)]
        for perm in perms:
            for state in kb_states:
                out = toy.apply_permutation(
                    toy.apply_permutation(state, perm), perm.inverse())
                assert out.support == state.support

        # no-signaling over every KB composite state
        composites = [toy.product_composite(a, b)
                      for a in kb_states for b in kb_states]
        composites += [toy.make_correlated(dict(zip(range(1, 5), img)))
                       for img in itertools.permutations(range(1, 5))]
        for state in composites:
            assert toy.no_signaling_check(state, toy.ALL_TOY_MEASUREMENTS).max_variation == 0

        # symplectic invariance of validity and entropy, 200 random maps
        nprng = np.random.default_rng(99)
        for _ in range(200):
            a, b, r = nprng.uniform(-1.5, 1.5, 3)
            s = (np.array([[1, a], [0, 1]]) @ np.diag([math.exp(r), math.exp(-r)])
                 @ np.array([[1, 0], [b, 1]]))
            cov = nprng.uniform(0.5, 2.0) * np.eye(2)
            st = gaussian.GaussianEpistemicState(np.zeros(2), cov, 1.0)
            mapped = gaussian.GaussianEpistemicState(np.zeros(2), s @ cov @ s.T, 1.0)
            assert gaussian.validity_check(mapped).valid == gaussian.validity_check(st).valid
            assert abs(gaussian.entropy(mapped) - gaussian.entropy(st)) <= 1e-9
