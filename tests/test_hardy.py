"""Possibilistic interferometer argument: facts, invariance, verdicts."""

import itertools

import pytest

from omlab import hardy
from omlab.hardy import (
    DETECTORS,
    HardyError,
    PREP_SPLIT,
    PREP_UPPER,
    THETAS,
)


def fact_set():
    return {(f.preparation, f.theta, f.detector): f.is_zero
            for f in hardy.derive_zero_probability_facts()}


def test_zero_facts_match_the_interferometer():
    facts = fact_set()
    assert facts[(PREP_SPLIT, "pi", "d1")] is True
    assert facts[(PREP_SPLIT, "0", "d2")] is True
    assert facts[(PREP_SPLIT, "pi", "d2")] is False
    assert facts[(PREP_SPLIT, "0", "d1")] is False
    # the upper-arm preparation is 50/50 at both settings
    for theta in THETAS:
        for det in DETECTORS:
            assert facts[(PREP_UPPER, theta, det)] is False


# ------------------------------------------------------- certificate

def test_certificate_names_the_facts_that_block_the_shared_state():
    cert = hardy.hardy_verdict(4).certificate
    assert cert["lambda"] == 1
    facts = hardy.derive_zero_probability_facts()
    blockers = [f for f in facts if str(f) in cert["facts"]]
    assert [(f.preparation, f.theta, f.detector) for f in blockers] == \
        [(PREP_SPLIT, "0", "d2"), (PREP_SPLIT, "pi", "d1")]
    assert cert["violated"].startswith("totality")


@pytest.mark.parametrize("dropped", [(PREP_SPLIT, "0", "d2"), (PREP_SPLIT, "pi", "d1")])
def test_certificate_follows_the_facts(dropped):
    facts = [f for f in hardy.derive_zero_probability_facts()
             if (f.preparation, f.theta, f.detector) != dropped]
    assert len(facts) == 7
    assert hardy.overlap_certificate(facts, enforce_invar=True) is None
    assignment = hardy.search_assignment(4, facts, enforce_invar=True,
                                         require_overlap=True)
    assert assignment.psi_support & assignment.phi_support
    assert hardy.replay_zero_facts(assignment, facts)


# ------------------------------------------------------- verdicts

def test_no_overlapping_assignment_for_sizes_2_to_8():
    for size in range(2, 9):
        report = hardy.hardy_verdict(size)
        assert not report.overlap_possible
        assert report.assignment is None
        assert report.certificate is not None
        assert len(report.certificate["facts"]) == 2


def test_dropping_invariance_exposes_the_escape():
    report = hardy.hardy_verdict(4, drop_invar=True)
    assert report.overlap_possible
    assert report.assignment is not None
    assert report.assignment.psi_support & report.assignment.phi_support
    assert hardy.replay_zero_facts(report.assignment, report.facts)


def test_disjoint_assignment_exists_with_invariance():
    report = hardy.hardy_verdict(4, require_overlap=False)
    assert report.overlap_possible  # here: 'a satisfying assignment exists'
    a = report.assignment
    assert not (a.psi_support & a.phi_support)
    assert hardy.replay_zero_facts(a, report.facts)


def test_minimum_size_guard():
    with pytest.raises(HardyError):
        hardy.hardy_verdict(1)


# ------------------------------------------------------- brute-force oracle

def brute_force_search(lambda_size: int, enforce_invar: bool,
                       require_overlap: bool):
    """Literal enumeration over every per-state configuration tuple.

    Per-configuration predicates are computed once up front; the loop still
    visits every tuple of configurations.
    """
    facts = hardy.derive_zero_probability_facts()
    zero = {(f.preparation, f.theta, f.detector) for f in facts if f.is_zero}
    nonzero = [(f.preparation, f.theta, f.detector) for f in facts if not f.is_zero]
    flag_keys = list(itertools.product(THETAS, DETECTORS))
    configs = list(itertools.product((False, True), (False, True),
                                     itertools.product((False, True), repeat=4)))

    def config_valid(config):
        in_psi, in_phi, bits = config
        flag = dict(zip(flag_keys, bits))
        for theta in THETAS:
            if not any(flag[(theta, d)] for d in DETECTORS):
                return False
        for prep, member in ((PREP_SPLIT, in_psi), (PREP_UPPER, in_phi)):
            if member and any(flag[(theta, d)] for theta, d in flag_keys
                              if (prep, theta, d) in zero):
                return False
        if enforce_invar and in_phi:
            if any(flag[("0", d)] != flag[("pi", d)] for d in DETECTORS):
                return False
        return True

    def config_covers(config):
        in_psi, in_phi, bits = config
        flag = dict(zip(flag_keys, bits))
        cov = set()
        if in_psi and in_phi:
            cov.add("overlap")
        for prep, theta, d in nonzero:
            member = in_psi if prep == PREP_SPLIT else in_phi
            if member and flag[(theta, d)]:
                cov.add((prep, theta, d))
        return cov

    valid = [config_valid(c) for c in configs]
    covers = [config_covers(c) for c in configs]
    needed = set(nonzero)
    if require_overlap:
        needed.add("overlap")
    for combo in itertools.product(range(len(configs)), repeat=lambda_size):
        if not all(valid[i] for i in combo):
            continue
        got = set()
        for i in combo:
            got |= covers[i]
        if needed <= got:
            return True
    return False


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("enforce_invar, require_overlap",
                         [(True, True), (False, True), (True, False)])
def test_search_matches_brute_force(size, enforce_invar, require_overlap):
    fast = hardy.search_assignment(size, hardy.derive_zero_probability_facts(),
                                   enforce_invar=enforce_invar,
                                   require_overlap=require_overlap)
    slow = brute_force_search(size, enforce_invar, require_overlap)
    assert (fast is not None) == slow


# ------------------------------------------------------- assignment type

def test_totality_enforced_by_the_type():
    flags = {(lam, theta, d): False
             for lam in (1, 2) for theta in THETAS for d in DETECTORS}
    with pytest.raises(HardyError):
        hardy.PossibilisticAssignment((1, 2), frozenset(), frozenset(), flags)


def test_report_json_shape():
    doc = hardy.hardy_verdict(3).to_json()
    assert doc["overlap_possible"] is False
    assert "certificate" in doc and "facts" in doc
    doc2 = hardy.hardy_verdict(3, drop_invar=True).to_json()
    assert doc2["overlap_possible"] is True
    assert "assignment" in doc2
