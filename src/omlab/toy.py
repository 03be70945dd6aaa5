"""Spekkens-style toy theory for one and two elementary systems.

A single system has four true states {1,2,3,4}; what an observer may know
is capped by the knowledge-balance rule, so legal epistemic states are
uniform over a 2-element support (maximal knowledge) or over all four
(total ignorance); ``ToyEpistemicState`` enforces the rule when built.
Measurements are 2+2 partitions with a Bayesian update plus an unknown
disturbance, transformations are permutations given by their images, and
the four combination rules act as superposition with a relative phase.

The disturbance rule is fixed here as uniform resampling inside the
obtained outcome block: it is the unique choice that keeps repeated
measurements reproducible and posteriors knowledge-balanced.  On a
composite, ``steering_inference`` is that one update applied to Alice's
coordinate, and ``no_signaling_check`` derives Bob's statistics from it, so
an update that leaked into Bob's coordinate would show up as signaling.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from . import quantum
from .exact import FLOAT_TOL, ExactComplex, phase_eighth
from .models import (
    EpistemicState,
    OnticSpace,
    OntologicalModel,
    ResponseFunction,
    reproduction_check,
)
from .reports import CheckResult, fmt, row

STATES = (1, 2, 3, 4)


class ToyError(ValueError):
    """Malformed toy-theory object or inconsistent operation."""


class ImpossibleToyOutcome(ToyError):
    """Conditioning on an outcome block of zero prior probability."""


def _support_name(block) -> str:
    return "v".join(str(x) for x in sorted(block))


@dataclass(frozen=True)
class ToyEpistemicState:
    """Uniform distribution over a knowledge-balanced support."""

    support: frozenset

    def __post_init__(self):
        s = frozenset(self.support)
        object.__setattr__(self, "support", s)
        if not s <= set(STATES):
            raise ToyError(f"support {set(s)} is not a subset of 1..4")
        if len(s) not in (2, 4):
            raise ToyError("knowledge balance allows supports of size 2 or 4 only")

    @property
    def probs(self) -> tuple:
        w = Fraction(1, len(self.support))
        return tuple(w if s in self.support else Fraction(0) for s in STATES)

    def __repr__(self) -> str:
        return _support_name(self.support)


def toy_state(*members: int) -> ToyEpistemicState:
    return ToyEpistemicState(frozenset(members))


IGNORANCE = toy_state(1, 2, 3, 4)


@dataclass(frozen=True)
class ToyMeasurement:
    """A partition of {1,2,3,4} into two 2-element blocks.

    Construction also indexes the blocks once: each ontic state maps to its
    block and to that block's members in ascending order.  The index is not
    a field of the value, so repr, equality and hashing read ``partition``
    alone.
    """

    partition: tuple  # two frozensets, ordered by smallest member
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(frozenset(b) for b in self.partition)
        if len(blocks) != 2 or any(len(b) != 2 for b in blocks):
            raise ToyError("measurement must have exactly two 2-element blocks")
        if blocks[0] | blocks[1] != set(STATES) or blocks[0] & blocks[1]:
            raise ToyError("blocks must be disjoint and cover 1..4")
        partition = tuple(sorted(blocks, key=min))
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "_index", {lam: (b, tuple(sorted(b)))
                                            for b in partition for lam in b})

    def block_of(self, lam: int) -> frozenset:
        """The block holding ``lam``; anything but a toy state, unhashable
        values included, raises ``ToyError``."""
        try:
            return self._index[lam][0]
        except (KeyError, TypeError):
            raise ToyError(f"{lam} is not a toy state") from None


# --------------------------------------------------------------------------
# the toy <-> qubit correspondence

STATE_SUPPORT = {
    "0": frozenset({1, 2}),
    "1": frozenset({3, 4}),
    "+": frozenset({1, 3}),
    "-": frozenset({2, 4}),
    "+i": frozenset({2, 3}),
    "-i": frozenset({1, 4}),
}
SUPPORT_STATE = {v: k for k, v in STATE_SUPPORT.items()}

# The three partition measurements, each with the blocks of its quantum
# counterpart's outcomes; block b's outcome label is SUPPORT_STATE[b].
MEASUREMENT_TABLE = {
    name: ToyMeasurement(tuple(STATE_SUPPORT[outcome] for outcome in meas.outcomes))
    for name, meas in quantum.MEAS_BY_NAME.items()
}
ALL_TOY_MEASUREMENTS = tuple(MEASUREMENT_TABLE.values())
MEAS_Z_TOY, MEAS_X_TOY, MEAS_Y_TOY = ALL_TOY_MEASUREMENTS


@dataclass(frozen=True)
class ToyPermutation:
    """A bijection on {1,2,3,4}; image[i] is the image of state i+1."""

    image: tuple

    def __post_init__(self):
        if len(self.image) != len(STATES) or set(self.image) != set(STATES):
            raise ToyError(f"{self.image} is not a permutation of 1..4")

    def __call__(self, lam: int) -> int:
        return self.image[lam - 1]

    def inverse(self) -> "ToyPermutation":
        inv = [0] * 4
        for s in STATES:
            inv[self(s) - 1] = s
        return ToyPermutation(tuple(inv))


@dataclass(frozen=True)
class CompositeToyState:
    """Uniform distribution over a set of ontic pairs for systems (a, b)."""

    support: frozenset  # of (a, b) pairs

    def __post_init__(self):
        s = frozenset(tuple(p) for p in self.support)
        object.__setattr__(self, "support", s)
        if not s:
            raise ToyError("composite support must be nonempty")
        for p in s:
            if len(p) != 2 or p[0] not in STATES or p[1] not in STATES:
                raise ToyError(f"{p} is not a pair in 1..4 x 1..4")


# --------------------------------------------------------------------------
# knowledge measure

def _as_prob_vector(probs: Sequence) -> tuple:
    v = tuple(Fraction(p) for p in probs)
    if len(v) != 4 or any(p < 0 for p in v) or sum(v) != 1:
        raise ToyError(f"{probs} is not a probability vector over 1..4")
    return v


def knowledge_measure(probs: Sequence) -> int:
    """Number of canonical-set questions whose answer is certain, maximized
    over all canonical sets.

    A canonical set is a pair of crossing 2-element questions ({1, 2} and
    {1, 3}, say), so both answers are certain only on a single ontic state,
    one on a 2-element support (ask the support itself), and none on a
    larger one: the measure is 3 - |support|, floored at 0.
    """
    support = sum(1 for p in _as_prob_vector(probs) if p)
    return max(0, 3 - support)


# --------------------------------------------------------------------------
# measurement, disturbance, transformation

def measurement_distribution(state: ToyEpistemicState, meas: ToyMeasurement) -> dict:
    """Exact outcome-block probabilities for an epistemic state."""
    n = len(state.support)
    return {b: Fraction(len(b & state.support), n) for b in meas.partition}


def measure_update(state: ToyEpistemicState, meas: ToyMeasurement,
                   outcome_block: frozenset) -> ToyEpistemicState:
    """Post-measurement epistemic state: uniform on the obtained block.

    The Bayesian posterior given the block is re-randomized by the
    measurement disturbance, so the final knowledge is always the uniform
    KB state on the block.
    """
    block = frozenset(outcome_block)
    if block not in meas.partition:
        raise ToyError(f"{sorted(block)} is not a block of {meas!r}")
    if not block & state.support:
        raise ImpossibleToyOutcome(f"block {sorted(block)} has zero prior probability")
    return ToyEpistemicState(block)


def ontic_simulate_measurement(lam: int, meas: ToyMeasurement,
                               rng: random.Random) -> tuple:
    """Simulate one measurement at the ontic level.

    The outcome is the block containing lam (``block_of``, which rejects a
    non-state); the disturbance then resamples the true state with one
    ``rng.choice`` over the block's members in ascending order, read from
    the measurement's index.
    """
    block = meas.block_of(lam)
    return block, rng.choice(meas._index[lam][1])


def apply_permutation(state: ToyEpistemicState, perm: ToyPermutation) -> ToyEpistemicState:
    """Map a state's support elementwise through a permutation."""
    if not isinstance(state, ToyEpistemicState):
        raise ToyError(f"cannot permute {state!r}")
    return ToyEpistemicState(frozenset(perm(s) for s in state.support))


# --------------------------------------------------------------------------
# combination rules

class CombinationRule(Enum):
    """The four ways of combining disjoint KB states, rule +k as RULE_k, with
    their quantum relative-phase tags.  ``_RULES`` below is the convention
    table, fixed by the worked instances in the source model; ``combine`` and
    ``phase`` both read it."""

    RULE_1 = 1
    RULE_2 = 2
    RULE_3 = 3
    RULE_4 = 4

    @property
    def phase(self) -> ExactComplex:
        return phase_eighth(_RULES[self.value][2])


# rule -> (pick from first, pick from second, phase in eighths of pi)
_RULES = {1: (min, min, 0), 2: (max, max, 4), 3: (max, min, 2), 4: (min, max, 6)}


def combine(a: ToyEpistemicState, b: ToyEpistemicState,
            rule: CombinationRule) -> ToyEpistemicState:
    """Combine two disjoint 2-element KB states into a new KB state."""
    if len(a.support) != 2 or len(b.support) != 2:
        raise ToyError("combination needs 2-element supports")
    if a.support & b.support:
        raise ToyError("combination needs disjoint supports")
    first, second, _ = _RULES[rule.value]
    return ToyEpistemicState(frozenset((first(a.support), second(b.support))))


def build_toy_model() -> OntologicalModel:
    """The full six-state, three-measurement model with 0/1 responses."""
    space = OnticSpace(STATES)
    preparations = {
        label: EpistemicState(space, ToyEpistemicState(supp).probs)
        for label, supp in STATE_SUPPORT.items()
    }
    measurements = {}
    for name, meas in MEASUREMENT_TABLE.items():
        outcomes = tuple(SUPPORT_STATE[b] for b in meas.partition)
        table = tuple(
            tuple(Fraction(1) if s in b else Fraction(0) for s in STATES)
            for b in meas.partition
        )
        measurements[name] = ResponseFunction(space, outcomes, table)
    return OntologicalModel(space, preparations, measurements)


def toy_born_table() -> dict:
    """Exact Born probabilities for all 36 (prep, meas, outcome) triples."""
    table = {}
    for prep, ket in quantum.PM_STATES.items():
        for meas_name, meas in quantum.MEAS_BY_NAME.items():
            for outcome in meas.outcomes:
                table[(prep, meas_name, outcome)] = quantum.born_probability(ket, meas, outcome)
    return table


@dataclass(frozen=True)
class AnalogyRow:
    """One combination-rule instance: the toy's combined state beside the
    six-state label and support of the quantum superposition, and whether
    the supports agree."""

    left: ToyEpistemicState
    right: ToyEpistemicState
    rule: CombinationRule
    toy_result: ToyEpistemicState
    quantum_label: str
    quantum_support: frozenset
    match: bool


@dataclass(frozen=True)
class AnalogyReport:
    """The rows of every ordered disjoint pair under every rule."""

    rows: tuple

    def mismatches(self) -> tuple:
        return tuple(r for r in self.rows if not r.match)


def analogy_failure_check() -> AnalogyReport:
    """Compare every combination-rule instance with the quantum superposition.

    For each ordered pair of disjoint KB states and each rule, the toy side
    combines supports while the quantum side forms
    (1/sqrt2)(|a> + phase |b>) and maps the resulting reference state back
    to a support.  The two +3/+4 instances built from |+> and |-> land on
    each other's targets; everything else lines up.
    """
    pairs = []
    for supp_a, supp_b in itertools.permutations(STATE_SUPPORT.values(), 2):
        if not supp_a & supp_b:
            pairs.append((ToyEpistemicState(supp_a), ToyEpistemicState(supp_b)))
    rows = []
    for a, b in pairs:
        ket_a = quantum.PM_STATES[SUPPORT_STATE[a.support]]
        ket_b = quantum.PM_STATES[SUPPORT_STATE[b.support]]
        for rule in CombinationRule:
            toy_result = combine(a, b, rule)
            q = quantum.superpose(ket_a, ket_b, rule.phase)
            label = quantum.identify_pm_state(q)
            if label is None:
                raise ToyError("superposition left the six-state family")
            q_supp = STATE_SUPPORT[label]
            rows.append(AnalogyRow(a, b, rule, toy_result, label, q_supp,
                                   toy_result.support == q_supp))
    return AnalogyReport(tuple(rows))


# --------------------------------------------------------------------------
# interferometry

MZ_SPLITTER = ToyPermutation((1, 3, 2, 4))  # (2 3)
MZ_MIRRORS = ToyPermutation((3, 2, 1, 4))   # (1 3)
MZ_PHASE = ToyPermutation((2, 1, 4, 3))     # (1 2)(3 4)


def mz_toy_run(phase_in: bool, source: str = "first_splitter") -> ToyEpistemicState:
    """Run the gates of ``quantum.mz_gates`` on 1v2, each as its permutation."""
    perms = {"splitter": MZ_SPLITTER, "mirrors": MZ_MIRRORS, "phase": MZ_PHASE}
    state = toy_state(1, 2)
    for gate in quantum.mz_gates(phase_in, source):
        state = apply_permutation(state, perms[gate])
    return state


# --------------------------------------------------------------------------
# composite systems

# The pairing of the steering and no-signaling demos: each of Alice's states
# with the same state of Bob's.
DEMO_PAIRING = {1: 1, 2: 2, 3: 3, 4: 4}


def make_correlated(pairing: Mapping[int, int]) -> CompositeToyState:
    """The perfectly correlated state {(i, pairing(i))} for a bijection."""
    if set(pairing) != set(STATES) or set(pairing.values()) != set(STATES):
        raise ToyError("pairing must be a bijection on 1..4")
    return CompositeToyState(frozenset((s, pairing[s]) for s in STATES))


def product_composite(a: ToyEpistemicState, b: ToyEpistemicState) -> CompositeToyState:
    return CompositeToyState(frozenset(itertools.product(a.support, b.support)))


def marginal(state: CompositeToyState, party: int) -> dict:
    """Exact marginal distribution of one subsystem."""
    n = len(state.support)
    out = {s: Fraction(0) for s in STATES}
    for pair in state.support:
        out[pair[party]] += Fraction(1, n)
    return out


@dataclass(frozen=True)
class SteeringResult:
    """Alice's outcome probability, the updated joint state, Bob's marginal
    and the pairs the composite could have occupied when she measured."""

    probability: Fraction
    updated: CompositeToyState
    bob_marginal: dict
    joint_at_measurement: frozenset  # pairs compatible with the outcome, pre-disturbance


def steering_inference(state: CompositeToyState, alice_meas: ToyMeasurement,
                       alice_outcome: frozenset) -> SteeringResult:
    """Update the joint state on Alice's outcome and report Bob's marginal.

    The joint support is conditioned on Alice's block, and her coordinate is
    resampled uniformly within it while Bob's stays put.
    ``joint_at_measurement`` is the exact retrodiction: the set of ontic
    pairs the composite could have occupied at the moment of measurement.
    """
    block = frozenset(alice_outcome)
    if block not in alice_meas.partition:
        raise ToyError(f"{sorted(block)} is not a block of {alice_meas!r}")
    conditioned = frozenset(p for p in state.support if p[0] in block)
    if not conditioned:
        raise ImpossibleToyOutcome(f"block {sorted(block)} has zero prior probability")
    # Reachable toy states keep the post-measurement distribution uniform:
    # Alice's state is resampled over the whole block beside each of Bob's,
    # so it is uniform iff Bob's states are equally often conditioned on.
    bob = Counter(b for _, b in conditioned)
    if len(set(bob.values())) != 1:
        raise ToyError("post-measurement joint distribution is not uniform")
    updated = CompositeToyState(frozenset(itertools.product(block, bob)))
    prob = Fraction(len(conditioned), len(state.support))
    return SteeringResult(prob, updated, marginal(updated, 1), conditioned)


def steering_retrodiction_demo(second_outcome: frozenset = frozenset({1, 2})) -> int:
    """The two-measurement protocol on the identity-correlated state.

    First measurement {{1,3},{2,4}} with outcome {1,3}: the pairs at that
    moment share a state in {1,3}.  The follow-up {{1,2},{3,4}} with
    ``second_outcome`` leaves Alice's states at its own moment.  The first
    measurement's disturbance stays inside its outcome block, so the first
    run's pairs whose Alice state the second run keeps pin the shared state
    the pair occupied at the first measurement; it is returned.
    """
    state = make_correlated(DEMO_PAIRING)
    r1 = steering_inference(state, MEAS_X_TOY, frozenset({1, 3}))
    r2 = steering_inference(r1.updated, MEAS_Z_TOY, frozenset(second_outcome))
    alice_at_second = {a for a, _ in r2.joint_at_measurement}
    shared = {a for a, _ in r1.joint_at_measurement if a in alice_at_second}
    if len(shared) != 1:
        raise ToyError("retrodiction chain did not single out one state")
    return shared.pop()


@dataclass(frozen=True)
class NoSignalingReport:
    """Bob's distributions under each of Alice's choices, and the largest
    change any choice makes to them."""

    bob_distributions: dict  # (alice_idx, bob_idx) -> {block: Fraction}
    max_variation: Fraction


def no_signaling_check(state: CompositeToyState,
                       alice_options: Sequence[ToyMeasurement]) -> NoSignalingReport:
    """Bob's outcome statistics under every choice Alice can make.

    No-signaling is derived from the steering update: for each of Alice's
    measurements, Bob's distribution over his states is the sum, over her
    possible outcomes, of the outcome's probability times the marginal that
    ``steering_inference`` leaves him.  It is then read off for each of
    Bob's three measurements.
    """
    dists = {}
    for ai, alice_meas in enumerate(alice_options):
        bob = {s: Fraction(0) for s in STATES}
        for block in alice_meas.partition:
            try:
                r = steering_inference(state, alice_meas, block)
            except ImpossibleToyOutcome:
                continue
            for s, w in r.bob_marginal.items():
                bob[s] += r.probability * w
        for bi, bob_meas in enumerate(ALL_TOY_MEASUREMENTS):
            dists[(ai, bi)] = {b: sum(bob[s] for s in b) for b in bob_meas.partition}
    variation = Fraction(0)
    for bi, bob_meas in enumerate(ALL_TOY_MEASUREMENTS):
        for block in bob_meas.partition:
            vals = [dists[(ai, bi)][block] for ai in range(len(alice_options))]
            variation = max(variation, max(vals) - min(vals))
    return NoSignalingReport(dists, variation)


# --------------------------------------------------------------------------
# the non-commutativity transcript

@dataclass(frozen=True)
class NoncommutativityTranscript:
    """Outcome distributions of A alone, of B after A, of A after B and of
    A twice, from one initial state."""

    a_outcome_when_first: dict  # A measured directly on the initial state
    a_then_b: dict              # B-outcome distribution after A went first
    b_then_a: dict              # A-outcome distribution after B went first
    a_then_a: dict              # control: repeating A is deterministic

    def differs(self) -> bool:
        """The A statistics depend on whether B intervened."""
        return self.a_outcome_when_first != self.b_then_a


def _two_stage_distribution(initial: ToyEpistemicState, first: ToyMeasurement,
                            second: ToyMeasurement) -> dict:
    """Exact distribution of the second measurement's outcome blocks."""
    out = {b: Fraction(0) for b in second.partition}
    for block1, p1 in measurement_distribution(initial, first).items():
        if p1 == 0:
            continue
        mid = measure_update(initial, first, block1)
        for block2, p2 in measurement_distribution(mid, second).items():
            out[block2] += p1 * p2
    return out


def noncommutativity_demo() -> NoncommutativityTranscript:
    """A = {{1,2},{3,4}} and B = {{1,3},{2,4}} on the state 1v2, both orders."""
    initial = toy_state(1, 2)
    return NoncommutativityTranscript(
        a_outcome_when_first=measurement_distribution(initial, MEAS_Z_TOY),
        a_then_b=_two_stage_distribution(initial, MEAS_Z_TOY, MEAS_X_TOY),
        b_then_a=_two_stage_distribution(initial, MEAS_X_TOY, MEAS_Z_TOY),
        a_then_a=_two_stage_distribution(initial, MEAS_Z_TOY, MEAS_Z_TOY),
    )


# --------------------------------------------------------------------------
# report rows: the verify targets and simulate mz

def toy_born_checks() -> list:
    report = reproduction_check(build_toy_model(), toy_born_table())
    checks = [
        row(f"toy-born {r.prep}|{r.meas}:{r.outcome}", r.quantum_value,
            r.model_value, "DERIVED", passed=r.match)
        for r in report.rows
    ]
    checks.append(row("toy-born all 36 triples", "36/36",
                      f"{len(report.rows) - len(report.mismatches())}/{len(report.rows)}",
                      "DERIVED", passed=report.ok))
    return checks


def _dist_name(dist: dict) -> str:
    items = sorted(dist.items(), key=lambda kv: _support_name(kv[0]))
    return "{" + ", ".join(f"{_support_name(k)}: {fmt(v)}" for k, v in items) + "}"


class _EachChoice:
    """A stand-in rng for one branch of a sampler that draws at most once:
    ``choice`` returns element ``k`` of its argument and keeps its length."""

    def __init__(self, k: int):
        self.k, self.n = k, None

    def choice(self, seq):
        if self.n is not None:
            raise ValueError("the kernel enumerates one choice per measurement")
        self.n = len(seq)
        return seq[self.k]


def _ontic_kernel(lam: int, meas) -> tuple:
    """(counts, n) for one ontic measurement of ``lam``: the sampler's one
    ``choice`` has ``n`` branches (one if it makes none), and ``counts`` maps
    each (outcome block, resampled state) to the number of branches that
    give it, so its probability is count/n."""
    counts, k, n = {}, 0, 1
    while k < n:
        rng = _EachChoice(k)
        out = ontic_simulate_measurement(lam, meas, rng)
        n = rng.n or 1
        counts[out] = counts.get(out, 0) + 1
        k += 1
    return counts, n


def kernel_check() -> CheckResult:
    """Each KB state pushed through the ontic kernel gives, for each
    measurement, the Born outcome distribution and, given each outcome, the
    updated epistemic state; the detail names the pairs where it does not.

    The state is uniform on its support, so the joint distribution of
    (outcome block, resampled state) is an integer count over one
    denominator: each support state's branch counts are scaled to the lcm
    of their branch numbers.  A ``Fraction`` is made only to compare with
    ``measurement_distribution`` and ``measure_update``."""
    kernels = {(lam, m): _ontic_kernel(lam, m)
               for lam in STATES for m in MEASUREMENT_TABLE.values()}
    bad = []
    for label, support in STATE_SUPPORT.items():
        state = ToyEpistemicState(support)
        for name, m in MEASUREMENT_TABLE.items():
            lcm = math.lcm(*(kernels[lam, m][1] for lam in support))
            joint = {}  # (outcome block, resampled state) -> count over lcm * |support|
            for lam in support:
                counts, n = kernels[lam, m]
                for out, c in counts.items():
                    joint[out] = joint.get(out, 0) + c * (lcm // n)
            outcomes = {b: sum(c for (block, _), c in joint.items() if block == b)
                        for b in m.partition}
            dist = {b: Fraction(c, lcm * len(support)) for b, c in outcomes.items()}
            if dist != measurement_distribution(state, m) or any(
                    tuple(Fraction(joint.get((b, x), 0), c) for x in STATES)
                    != measure_update(state, m, b).probs
                    for b, c in outcomes.items() if c):
                bad.append(f"{name} on {label}")
    n = len(STATE_SUPPORT) * len(MEASUREMENT_TABLE)
    return row("noncomm ontic kernel = Born outcomes + updated state",
               f"{n}/{n}", f"{n - len(bad)}/{n}", "DERIVED",
               detail={"mismatches": bad} if bad else None)


def noncomm_checks(seed: int) -> list:
    t = noncommutativity_demo()
    half = Fraction(1, 2)
    expect_ab = {frozenset({1, 3}): half, frozenset({2, 4}): half}
    expect_ba = {frozenset({1, 2}): half, frozenset({3, 4}): half}
    expect_aa = {frozenset({1, 2}): Fraction(1), frozenset({3, 4}): Fraction(0)}
    checks = [
        row("noncomm A-then-B outcomes", _dist_name(expect_ab),
            _dist_name(t.a_then_b), "PAPER"),
        row("noncomm B-then-A outcomes", _dist_name(expect_ba),
            _dist_name(t.b_then_a), "PAPER"),
        row("noncomm A repeated is certain", _dist_name(expect_aa),
            _dist_name(t.a_then_a), "PAPER"),
        row("noncomm orderings differ", True, t.differs(), "PAPER"),
        kernel_check(),
    ]
    # seeded ontic replay of the B statistics on 1v2; by Hoeffding a fair
    # sampler leaves the band with probability at most delta.  The sampler is
    # read at call time, so a replaced one is the one sampled.
    rng = random.Random(seed)
    choice, simulate, first = rng.choice, ontic_simulate_measurement, frozenset({1, 3})
    n, delta = 4000, 1e-9
    hits = 0
    for _ in range(n):
        block, _ = simulate(choice((1, 2)), MEAS_X_TOY, rng)
        hits += block == first
    radius = math.sqrt(math.log(2 / delta) / (2 * n))
    checks.append(row(f"noncomm sampled frequency (n={n}, Hoeffding delta={delta:g})",
                      "|freq-1/2| <= sqrt(ln(2/delta)/(2n))",
                      f"{abs(hits / n - 0.5):.6f} vs {radius:.6f}",
                      "DERIVED", passed=abs(hits / n - 0.5) <= radius))
    return checks


def combine_checks() -> list:
    listed = [
        ((1, 2), CombinationRule.RULE_1, (3, 4), (1, 3)),
        ((1, 2), CombinationRule.RULE_2, (3, 4), (2, 4)),
        ((2, 3), CombinationRule.RULE_4, (1, 4), (2, 4)),
        ((1, 4), CombinationRule.RULE_4, (2, 3), (1, 3)),
        ((1, 3), CombinationRule.RULE_3, (2, 4), (2, 3)),
        ((1, 3), CombinationRule.RULE_4, (2, 4), (1, 4)),
    ]
    checks = []
    for a, rule, b, want in listed:
        got = combine(toy_state(*a), toy_state(*b), rule)
        checks.append(row(
            f"combine {_support_name(a)} +{rule.value} {_support_name(b)}",
            _support_name(want), _support_name(got.support), "PAPER"))
    report = analogy_failure_check()
    flagged = {(str(r.left), r.rule.value, str(r.right)) for r in report.mismatches()}
    for left, rule, right in (("1v3", 3, "2v4"), ("1v3", 4, "2v4")):
        checks.append(row(f"analogy mismatch flagged: {left} +{rule} {right}",
                          True, (left, rule, right) in flagged, "PAPER"))
    match_case = next(r for r in report.rows
                      if str(r.left) == "1v2" and r.rule is CombinationRule.RULE_1)
    checks.append(row("analogy +1 case matches", True, match_case.match, "PAPER"))
    checks.append(row("analogy mismatch count over ordered table", 4,
                      len(report.mismatches()), "DERIVED"))
    return checks


def steering_checks() -> list:
    state = make_correlated(DEMO_PAIRING)
    r1 = steering_inference(state, MEAS_X_TOY, frozenset({1, 3}))
    bob_support = sorted(s for s, w in r1.bob_marginal.items() if w > 0)
    checks = [
        row("steering: Bob marginal support after X={1,3}", "[1, 3]",
            str(bob_support), "PAPER"),
        row("steering: Bob marginal uniform", "1/2",
            fmt(r1.bob_marginal[1]), "PAPER"),
    ]
    checks.append(row("steering retrodiction singles out state", 1,
                      steering_retrodiction_demo(), "PAPER"))
    product = product_composite(toy_state(1, 2), toy_state(3, 4))
    r2 = steering_inference(product, MEAS_X_TOY, frozenset({1, 3}))
    # Bob's marginals keyed by one-state blocks, each written as its state
    before, after = ({frozenset({lam}): w for lam, w in m.items()}
                     for m in (marginal(product, 1), r2.bob_marginal))
    checks.append(row("steering: product state leaves Bob unchanged",
                      _dist_name(before), _dist_name(after), "TRIVIAL"))
    return checks


def no_signaling_checks() -> list:
    state = make_correlated(DEMO_PAIRING)
    rep = no_signaling_check(state, ALL_TOY_MEASUREMENTS)
    checks = [row("no-signaling variation (correlated state)", Fraction(0),
                  rep.max_variation, "DERIVED")]
    product = product_composite(toy_state(1, 2), toy_state(1, 3))
    rep2 = no_signaling_check(product, ALL_TOY_MEASUREMENTS)
    checks.append(row("no-signaling variation (product state)", Fraction(0),
                      rep2.max_variation, "TRIVIAL"))
    return checks


def mz_checks(phase: str, model: str, source: str, theta: float | None) -> list:
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
        checks.append(row(f"mz quantum P(d1), P(d2) [{source}, phase={phase_in}]",
                          f"({fmt(d1)}, {fmt(d2)})", f"({fmt(p1)}, {fmt(p2)})",
                          "PAPER"))
    if model in ("toy", "both") and source == "upper_arm":
        dist = measurement_distribution(mz_toy_run(phase_in, source), MEAS_Z_TOY)
        t1, t2 = (dist[block] for block in MEAS_Z_TOY.partition)  # d1, d2
        checks.append(row(f"mz toy P(d1), P(d2) [{source}, phase={phase_in}]",
                          f"({fmt(d1)}, {fmt(d2)})", f"({fmt(t1)}, {fmt(t2)})",
                          "DERIVED"))
    elif model in ("toy", "both"):
        toy_final = mz_toy_run(phase_in)
        checks.append(row(f"mz toy final state [phase={phase_in}]",
                          _support_name(STATE_SUPPORT[label]),
                          _support_name(toy_final.support), "PAPER"))
        if model == "both":
            ident = quantum.identify_pm_state(final)
            corr = ident is not None and STATE_SUPPORT[ident] == toy_final.support
            checks.append(row("mz correspondence toy <-> quantum", True, corr,
                              "DERIVED"))
    if theta is not None:
        p1f, p2f = quantum.mz_detection_probabilities(theta, source)
        w1, w2 = ((math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2)
                  if source == "first_splitter" else (0.5, 0.5))
        checks.append(row(f"mz float-mode P(d1), P(d2) at theta={theta:.6g}",
                          f"({fmt(w1)}, {fmt(w2)})", f"({fmt(p1f)}, {fmt(p2f)})", "PAPER",
                          passed=abs(p1f - w1) <= FLOAT_TOL and abs(p2f - w2) <= FLOAT_TOL))
    return checks
