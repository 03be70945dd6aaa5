"""Possibilistic interferometer argument: facts, invariance, verdicts."""

import dataclasses
import itertools

import pytest
from lab_argvs import edge_argvs

from omlab import cli, hardy
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
    report = hardy.hardy_verdict(4, facts=facts)
    assert report.certificate is None
    assignment = report.assignment
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


def test_replay_rejects_a_shared_flag_against_a_zero_fact():
    report = hardy.hardy_verdict(4, drop_invar=True)
    a = report.assignment
    shared = min(a.psi_support & a.phi_support)
    assert not a.flags[(shared, "pi", "d1")]  # P(d1 | psi, theta=pi) is zero
    mutant = hardy.PossibilisticAssignment(
        a.labels, a.psi_support, a.phi_support, {**a.flags, (shared, "pi", "d1"): True})
    assert not hardy.replay_zero_facts(mutant, report.facts)


def test_a_shared_state_is_placed_even_when_it_meets_no_fact():
    report = hardy.hardy_verdict(2, facts=())
    assert report.assignment.psi_support & report.assignment.phi_support


def test_minimum_size_guard():
    with pytest.raises(HardyError):
        hardy.hardy_verdict(1)


def test_maximum_size_guard_names_the_range():
    # before, the escape padded any size with neutral states, all flagged
    with pytest.raises(HardyError, match=r"^lambda size must be in 2\.\.8$"):
        hardy.hardy_verdict(9, drop_invar=True)
    argv = ["nogo", "hardy", "--lambda-size", "9"]
    assert argv in edge_argvs()
    (row,) = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv))).checks
    assert not row.passed
    assert row.observed == "HardyError: lambda size must be in 2..8"
    assert row.detail["origin"] == "omlab/hardy.py:hardy_verdict"


# ------------------------------------------------------- brute-force oracle

def brute_force_search(lambda_size: int, facts, enforce_invar: bool) -> bool:
    """Literal enumeration over every tuple of valid per-state configurations:
    is there one whose supports intersect and that meets every nonzero fact?

    Per-configuration predicates are computed once up front; the loop still
    visits every tuple of valid configurations.
    """
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
        """Bit 0: the state is shared; bit i + 1: it meets nonzero fact i."""
        in_psi, in_phi, bits = config
        flag = dict(zip(flag_keys, bits))
        member = {PREP_SPLIT: in_psi, PREP_UPPER: in_phi}
        return (in_psi and in_phi) | sum(
            2 << i for i, (prep, theta, d) in enumerate(nonzero)
            if member[prep] and flag[(theta, d)])

    covers = [config_covers(c) for c in configs if config_valid(c)]
    needed = (2 << len(nonzero)) - 1
    for combo in itertools.product(covers, repeat=lambda_size):
        got = 0
        for mask in combo:
            got |= mask
        if got == needed:
            return True
    return False


def every_pattern():
    """All 256 zero/nonzero patterns of the eight facts."""
    facts = hardy.derive_zero_probability_facts()
    return [[dataclasses.replace(f, is_zero=z) for f, z in zip(facts, zeros)]
            for zeros in itertools.product((False, True), repeat=len(facts))]


def one_dropped():
    """The eight interferometer fact sets with one fact left out."""
    facts = hardy.derive_zero_probability_facts()
    return [facts[:i] + facts[i + 1:] for i in range(len(facts))]


@pytest.mark.parametrize("enforce_invar", [True, False])
@pytest.mark.parametrize("size, fact_sets", [(2, every_pattern), (3, one_dropped)],
                         ids=["2-every-pattern", "3-one-dropped"])
def test_search_matches_brute_force(size, fact_sets, enforce_invar):
    for facts in fact_sets():
        report = hardy.hardy_verdict(size, drop_invar=not enforce_invar, facts=facts)
        assert report.overlap_possible == brute_force_search(size, facts, enforce_invar)
        if report.assignment is not None:
            assert report.assignment.psi_support & report.assignment.phi_support
            assert hardy.replay_zero_facts(report.assignment, facts)
        # certified exactly when no single shared state is valid
        assert (report.certificate is not None) == \
            (not brute_force_search(1, [f for f in facts if f.is_zero], enforce_invar))


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
