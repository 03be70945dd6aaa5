"""Possibilistic no-go analysis for the altered interferometer.

Two preparations are compared: the balanced superposition made by the
first splitter, and the photon emitted directly into the upper arm.  Each
ontic state carries flags saying which detector can fire at which phase
setting; the zero-probability facts from the quantum run, the invariance of
flags under the phase setting for the upper-arm support, and totality (some
detector must fire) then decide whether the two supports may intersect.
The decision runs per membership class (psi only, phi only, both): as a
flag switched on only meets more nonzero facts, each class has one widest
valid configuration, and these give the verdict, the witness and the
certificate in one pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import quantum
from .reports import CheckResult, row

PREP_SPLIT = "psi"   # state after the first beam splitter
PREP_UPPER = "phi"   # photon emitted into the upper arm
THETAS = ("0", "pi")
DETECTORS = ("d1", "d2")
# the verdict is fixed from 3 ontic states up; 8 is also nogo pbr's bound
MAX_LAMBDA_SIZE = 8


class HardyError(ValueError):
    pass


@dataclass(frozen=True)
class ZeroFact:
    """Whether P(detector | preparation, theta) is exactly zero."""

    preparation: str
    theta: str
    detector: str
    is_zero: bool

    def __str__(self) -> str:
        kind = "zero" if self.is_zero else "nonzero"
        return f"P({self.detector} | {self.preparation}, theta={self.theta}) is {kind}"


def derive_zero_probability_facts() -> tuple:
    """Which (preparation, theta, detector) triples have Born probability
    exactly zero, evaluated from the exact interferometer runs: P(d) =
    |<e_d|final>|^2 is zero iff the amplitude <e_d|final> is exactly 0."""
    facts = []
    for prep, source in ((PREP_SPLIT, "first_splitter"), (PREP_UPPER, "upper_arm")):
        for theta in THETAS:
            final = quantum.mz_evolve(theta == "pi", source)
            for det in DETECTORS:
                amp = quantum.inner(quantum.MEAS_DETECTORS.ket(det), final)
                facts.append(ZeroFact(prep, theta, det, amp.is_zero()))
    return tuple(facts)


@dataclass(frozen=True)
class PossibilisticAssignment:
    """Support sets plus per-state possibility flags.

    ``flags`` maps (lam, theta, detector) -> bool; totality requires at
    least one detector flagged possible for every state and setting.
    """

    labels: tuple
    psi_support: frozenset
    phi_support: frozenset
    flags: Mapping

    def __post_init__(self):
        object.__setattr__(self, "psi_support", frozenset(self.psi_support))
        object.__setattr__(self, "phi_support", frozenset(self.phi_support))
        object.__setattr__(self, "flags", dict(self.flags))
        if not self.psi_support <= set(self.labels) or not self.phi_support <= set(self.labels):
            raise HardyError("supports must be subsets of the ontic space")
        for lam in self.labels:
            for theta in THETAS:
                if not any(self.flags.get((lam, theta, d), False) for d in DETECTORS):
                    raise HardyError(
                        f"totality violated at {lam!r}, theta={theta}: no detector possible")

    def support(self, prep: str) -> frozenset:
        return self.psi_support if prep == PREP_SPLIT else self.phi_support

    def to_json(self) -> dict:
        return {
            "lambda": list(self.labels),
            "psi_support": sorted(self.psi_support),
            "phi_support": sorted(self.phi_support),
            "possible": {
                f"{lam}|theta={theta}": [d for d in DETECTORS if self.flags[(lam, theta, d)]]
                for lam in self.labels for theta in THETAS
            },
        }


# --------------------------------------------------------------------------
# the decision

# A state's membership: the preparations whose supports hold it.
_SHARED = (PREP_SPLIT, PREP_UPPER)
_MEMBERSHIPS = (_SHARED, (PREP_SPLIT,), (PREP_UPPER,))
_FLAG_KEYS = tuple(itertools.product(THETAS, DETECTORS))
_COUNT_WORDS = ("no", "one", "two", "three", "four", "five", "six", "seven", "eight")


def _widest(member: tuple, facts: Sequence[ZeroFact], enforce_invar: bool) -> frozenset | None:
    """The (theta, detector) flags of the widest valid configuration of a
    state in the supports of ``member``; None if it breaks totality.

    Every flag is on except those a member's zero fact turns off; under
    invariance with the upper-arm preparation a member, a detector off at
    one setting is off at both.  Every valid configuration of the
    membership flags a subset of these.
    """
    off = {(f.theta, f.detector) for f in facts if f.is_zero and f.preparation in member}
    if enforce_invar and PREP_UPPER in member:
        off |= {(theta, d) for theta in THETAS for _, d in off}
    on = frozenset(_FLAG_KEYS) - off
    if all(any((theta, d) in on for d in DETECTORS) for theta in THETAS):
        return on
    return None


def replay_zero_facts(assignment: PossibilisticAssignment,
                      facts: Sequence[ZeroFact]) -> bool:
    """An assignment reproduces the facts iff a triple is zero exactly when
    no state in the preparation's support flags it possible."""
    for f in facts:
        possible = any(assignment.flags[(lam, f.theta, f.detector)]
                       for lam in assignment.support(f.preparation))
        if possible == f.is_zero:
            return False
    return True


@dataclass(frozen=True)
class HardyReport:
    """A Hardy verdict: the support size and invariance setting asked, the
    escape assignment or the certificate that none exists, and the zero
    facts it was decided on."""

    lambda_size: int
    drop_invar: bool
    assignment: PossibilisticAssignment | None
    certificate: dict | None
    facts: tuple

    @property
    def overlap_possible(self) -> bool:
        return self.assignment is not None

    def to_json(self) -> dict:
        doc = {
            "lambda_size": self.lambda_size,
            "drop_invar": self.drop_invar,
            "overlap_required": True,  # every verdict asks for a shared state
            "overlap_possible": self.overlap_possible,
            "facts": [str(f) for f in self.facts],
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        if self.assignment is not None:
            doc["assignment"] = self.assignment.to_json()
        return doc


def hardy_verdict(lambda_size: int, drop_invar: bool = False,
                  facts: Sequence[ZeroFact] | None = None) -> HardyReport:
    """Decide whether the two supports may share an ontic state.

    A shared state takes the widest configuration of its membership class,
    as switching a flag on only meets more nonzero facts.  Without one the
    verdict is infeasible at every size, and the certificate names the zero
    facts that turned its flags off.  Otherwise the witness is the shared
    state, then a psi-only and a phi-only state where the nonzero facts
    still need them, padded with neutral states outside both supports that
    flag every detector possible; it exists iff it fits in ``lambda_size``.

    With invariance enforced the shared state needs d1 impossible (the
    pi-setting zero fact) and d2 impossible (the 0-setting zero fact),
    which empties its detector set.  Dropping invariance exposes the escape
    whose flags swing with the setting.  ``facts`` are derived from the
    interferometer when not given.
    """
    if lambda_size < 2:
        raise HardyError("need at least two ontic states")
    if lambda_size > MAX_LAMBDA_SIZE:
        raise HardyError(f"lambda size must be in 2..{MAX_LAMBDA_SIZE}")
    if facts is None:
        facts = derive_zero_probability_facts()
    facts = tuple(facts)
    widest = {member: _widest(member, facts, not drop_invar) for member in _MEMBERSHIPS}
    if widest[_SHARED] is None:
        blockers = [str(f) for f in facts if f.is_zero]
        invariance = "" if drop_invar else "flag invariance plus "
        certificate = {
            "lambda": 1,
            "facts": blockers,
            "violated": f"totality: {invariance}the {_COUNT_WORDS[len(blockers)]} "
                        "zero facts leave no possible detector at either setting",
        }
        return HardyReport(lambda_size, drop_invar, None, certificate, facts)
    # the shared state first, then each class that meets a nonzero fact still
    # unmet; a class's widest flags contain the shared state's
    unmet = [f for f in facts if not f.is_zero]
    states = []
    for member, on in widest.items():
        met = [f for f in unmet if f.preparation in member and (f.theta, f.detector) in on]
        if member == _SHARED or met:
            states.append((member, on))
            unmet = [f for f in unmet if f not in met]
    if unmet or len(states) > lambda_size:
        return HardyReport(lambda_size, drop_invar, None, None, facts)
    states += [((), frozenset(_FLAG_KEYS))] * (lambda_size - len(states))
    labels = tuple(range(1, lambda_size + 1))
    assignment = PossibilisticAssignment(
        labels,
        frozenset(lam for lam, (member, _) in zip(labels, states) if PREP_SPLIT in member),
        frozenset(lam for lam, (member, _) in zip(labels, states) if PREP_UPPER in member),
        {(lam, theta, d): (theta, d) in on
         for lam, (_, on) in zip(labels, states) for theta, d in _FLAG_KEYS})
    return HardyReport(lambda_size, drop_invar, assignment, None, facts)


# --------------------------------------------------------------------------
# report rows: nogo hardy

def zero_facts_check(facts) -> CheckResult:
    """The zero-probability facts are exactly the paper's two."""
    zero_names = sorted(str(f) for f in facts if f.is_zero)
    return row("hardy zero facts",
               "P(d1 | psi, theta=pi) is zero; P(d2 | psi, theta=0) is zero",
               "; ".join(zero_names), "PAPER")


def hardy_checks(lambda_size: int, drop_invar: bool) -> list:
    report = hardy_verdict(lambda_size, drop_invar=drop_invar)
    checks = [zero_facts_check(report.facts)]
    expected = drop_invar  # overlap survives only without flag invariance
    checks.append(row(f"hardy overlap possible (size {lambda_size}, drop_invar={drop_invar})",
                      expected, report.overlap_possible, "DERIVED", detail=report.to_json()))
    if report.assignment is not None:
        checks.append(row("hardy escape assignment replays zero facts", True,
                          replay_zero_facts(report.assignment, report.facts), "DERIVED"))
    return checks
