"""Possibilistic no-go analysis for the altered interferometer.

Two preparations are compared: the balanced superposition made by the
first splitter, and the photon emitted directly into the upper arm.  Each
ontic state carries flags saying which detector can fire at which phase
setting; the zero-probability facts from the quantum run, the invariance of
flags under the phase setting for the upper-arm support, and totality (some
detector must fire) then decide whether the two supports may intersect.
The search over flag assignments is exhaustive: per-state configurations
are enumerated and folded over the ontic space with coverage memoization,
which visits every assignment class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import quantum

PREP_SPLIT = "psi"   # state after the first beam splitter
PREP_UPPER = "phi"   # photon emitted into the upper arm
PREPS = (PREP_SPLIT, PREP_UPPER)
THETAS = ("0", "pi")
DETECTORS = ("d1", "d2")


class HardyError(ValueError):
    pass


@dataclass(frozen=True)
class ZeroFact:
    preparation: str
    theta: str
    detector: str
    is_zero: bool

    def __str__(self) -> str:
        kind = "zero" if self.is_zero else "nonzero"
        return f"P({self.detector} | {self.preparation}, theta={self.theta}) is {kind}"


def derive_zero_probability_facts() -> tuple:
    """Which (preparation, theta, detector) triples have Born probability
    exactly zero, evaluated from the exact interferometer runs: d1 and d2
    catch the up and down arms, so P(d) is |amplitude|^2 on d's arm, zero
    iff that amplitude is exactly 0."""
    facts = []
    for prep, source in ((PREP_SPLIT, "first_splitter"), (PREP_UPPER, "upper_arm")):
        for theta in THETAS:
            final = quantum.mz_evolve(theta == "pi", source)
            for det, amp in zip(DETECTORS, final.amplitudes):
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
# exhaustive search

# A per-state configuration: (in_psi, in_phi, flags for (theta, detector)).
_FLAG_KEYS = tuple(itertools.product(THETAS, DETECTORS))
_CONFIGS = tuple((in_psi, in_phi, bits)
                 for in_psi, in_phi in itertools.product((False, True), repeat=2)
                 for bits in itertools.product((False, True), repeat=4))


def _unpack(config: tuple) -> tuple:
    """(preparation -> membership, (theta, detector) -> possible flag)."""
    in_psi, in_phi, bits = config
    return {PREP_SPLIT: in_psi, PREP_UPPER: in_phi}, dict(zip(_FLAG_KEYS, bits))


def _broken_constraints(config: tuple, zero_facts: Sequence[ZeroFact],
                        enforce_invar: bool) -> list:
    """The constraints a per-state configuration violates: "totality", every
    zero fact whose preparation's support holds the state while the state
    flags that detector possible, and "invariance"."""
    member, flag = _unpack(config)
    broken = []
    if not all(any(flag[(theta, d)] for d in DETECTORS) for theta in THETAS):
        broken.append("totality")
    broken.extend(f for f in zero_facts
                  if member[f.preparation] and flag[(f.theta, f.detector)])
    if enforce_invar and member[PREP_UPPER] and any(
            flag[("0", d)] != flag[("pi", d)] for d in DETECTORS):
        broken.append("invariance")
    return broken


def _valid_configs(facts: Sequence[ZeroFact], enforce_invar: bool) -> tuple:
    zero_facts = [f for f in facts if f.is_zero]
    return tuple(c for c in _CONFIGS
                 if not _broken_constraints(c, zero_facts, enforce_invar))


_COUNT_WORDS = ("no", "one", "two", "three", "four", "five", "six", "seven", "eight")


def overlap_certificate(facts: Sequence[ZeroFact],
                        enforce_invar: bool) -> dict | None:
    """Why no ontic state may lie in both supports; None if one may.

    Every overlap configuration must break a constraint.  The certificate
    names state 1 as the representative (every state admits the same
    configurations) and the zero facts that reject some overlap
    configuration.  The configurations that keep those facts (and
    invariance) are left with no possible detector, so totality is the
    violated row.
    """
    zero_facts = [f for f in facts if f.is_zero]
    broken = [_broken_constraints(c, zero_facts, enforce_invar)
              for c in _CONFIGS if c[0] and c[1]]
    if not all(broken):
        return None
    blockers = [f for f in zero_facts if any(f in b for b in broken)]
    invariance = "flag invariance plus " if enforce_invar else ""
    return {
        "lambda": 1,
        "facts": [str(f) for f in blockers],
        "violated": f"totality: {invariance}the {_COUNT_WORDS[len(blockers)]} "
                    "zero facts leave no possible detector at either setting",
    }


def _demands_met(config: tuple, facts: Sequence[ZeroFact],
                 require_overlap: bool) -> list:
    """Which existential demands on an assignment one state meets: the
    overlap itself (if required), then exact reproduction of each nonzero
    triple (some state in the preparation's support must allow it)."""
    member, flag = _unpack(config)
    met = [member[PREP_SPLIT] and member[PREP_UPPER]] if require_overlap else []
    return met + [member[f.preparation] and flag[(f.theta, f.detector)]
                  for f in facts if not f.is_zero]


def search_assignment(lambda_size: int, facts: Sequence[ZeroFact],
                      enforce_invar: bool, require_overlap: bool):
    """Exhaustive search for a satisfying assignment; None if there is none.

    States are filled one by one from the valid per-state configurations;
    memoizing on the set of covered requirements makes the walk over all
    configuration tuples tractable without skipping any of them.
    """
    configs = _valid_configs(facts, enforce_invar)
    met = [_demands_met(c, facts, require_overlap) for c in configs]
    masks = [sum(1 << i for i, hit in enumerate(m) if hit) for m in met]
    full = (1 << len(met[0])) - 1

    # BFS over coverage masks, remembering one witness path per mask.
    frontier = {0: ()}
    for _ in range(lambda_size):
        nxt = {}
        for covered, path in frontier.items():
            for config, m in zip(configs, masks):
                new = covered | m
                if new not in nxt:
                    nxt[new] = path + (config,)
        frontier = nxt
        if full in frontier:
            break
    if full not in frontier:
        return None
    path = frontier[full]
    # pad with a neutral config (outside both supports, everything possible),
    # which breaks no constraint
    path = path + ((False, False, (True,) * 4),) * (lambda_size - len(path))
    labels = tuple(range(1, lambda_size + 1))
    flags = {(lam, theta, d): b for lam, (_, _, bits) in zip(labels, path)
             for (theta, d), b in zip(_FLAG_KEYS, bits)}
    return PossibilisticAssignment(
        labels, frozenset(lam for lam, c in zip(labels, path) if c[0]),
        frozenset(lam for lam, c in zip(labels, path) if c[1]), flags)


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
    lambda_size: int
    drop_invar: bool
    overlap_required: bool
    overlap_possible: bool
    assignment: PossibilisticAssignment | None
    certificate: dict | None
    facts: tuple

    def to_json(self) -> dict:
        doc = {
            "lambda_size": self.lambda_size,
            "drop_invar": self.drop_invar,
            "overlap_required": self.overlap_required,
            "overlap_possible": self.overlap_possible,
            "facts": [str(f) for f in self.facts],
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        if self.assignment is not None:
            doc["assignment"] = self.assignment.to_json()
        return doc


def hardy_verdict(lambda_size: int, drop_invar: bool = False,
                  require_overlap: bool = True) -> HardyReport:
    """Search for an overlapping possibilistic assignment.

    With invariance enforced no assignment exists at any size: a shared
    state needs d1 impossible (the pi-setting zero fact) and d2 impossible
    (the 0-setting zero fact), which empties its detector set.  Dropping
    invariance exposes the escape assignment whose flags swing with the
    setting, and dropping the overlap requirement splits the ontic space
    between the preparations.
    """
    if lambda_size < 2:
        raise HardyError("need at least two ontic states")
    facts = derive_zero_probability_facts()
    assignment = search_assignment(lambda_size, facts,
                                   enforce_invar=not drop_invar,
                                   require_overlap=require_overlap)
    certificate = (overlap_certificate(facts, enforce_invar=not drop_invar)
                   if require_overlap else None)
    return HardyReport(lambda_size, drop_invar, require_overlap,
                       assignment is not None, assignment, certificate, facts)
