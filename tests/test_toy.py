"""Toy-theory behavior: knowledge balance, measurements, combination rules,
interferometry, composites, steering and no-signaling."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from toy_composites import kb_composites

from omlab import quantum
from omlab import toy
from omlab.toy import (
    ALL_TOY_MEASUREMENTS,
    CombinationRule,
    CompositeToyState,
    ImpossibleToyOutcome,
    MEAS_X_TOY,
    MEAS_Y_TOY,
    MEAS_Z_TOY,
    STATE_SUPPORT,
    STATES,
    ToyEpistemicState,
    ToyError,
    ToyMeasurement,
    ToyPermutation,
    toy_state,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

ALL_KB_SINGLE = [toy_state(*c) for c in itertools.combinations(range(1, 5), 2)]
ALL_PERMS = [ToyPermutation(p) for p in itertools.permutations((1, 2, 3, 4))]


def is_kb(probs) -> bool:
    """The knowledge-balance rule on a probability vector over 1..4: uniform
    on a 2- or 4-element support."""
    n = sum(1 for p in probs if p > 0)
    return len(probs) == 4 and n in (2, 4) and all(p in (0, Fraction(1, n)) for p in probs)


def test_is_kb_rejects_what_knowledge_balance_forbids():
    assert is_kb((HALF, 0, HALF, 0)) and is_kb((QUARTER,) * 4)
    assert not is_kb((1, 0, 0, 0))
    assert not is_kb((HALF, QUARTER, QUARTER, 0))
    assert not is_kb((HALF, HALF, 0))


# ----------------------------------------------------------------- knowledge

def test_knowledge_measure_reference_values():
    assert toy.knowledge_measure((HALF, HALF, 0, 0)) == 1
    assert toy.knowledge_measure((QUARTER,) * 4) == 0
    assert toy.knowledge_measure((1, 0, 0, 0)) == 2


def test_knowledge_measure_all_kb_states():
    for s in ALL_KB_SINGLE:
        assert toy.knowledge_measure(s.probs) == 1


def canonical_sets() -> tuple:
    """Every pair of 1- to 3-element questions that pins down the true state
    uniquely: the enumeration the closed-form measure is graded against."""
    questions = [frozenset(c) for r in (1, 2, 3) for c in itertools.combinations(STATES, r)]
    return tuple((s1, s2) for s1, s2 in itertools.combinations(questions, 2)
                 if all(len(c) <= 1 for c in (s1 & s2, s1 - s2, s2 - s1,
                                                set(STATES) - (s1 | s2))))


def enumerated_knowledge_measure(probs) -> int:
    """Certain answers, maximized over the enumerated canonical sets."""
    def known(question):
        return sum(probs[s - 1] for s in question) in (0, 1)

    return max(sum(known(q) for q in cs) for cs in canonical_sets())


def test_canonical_sets_pin_down_states():
    assert canonical_sets()
    for s1, s2 in canonical_sets():
        cells = [s1 & s2, s1 - s2, s2 - s1, set(range(1, 5)) - (s1 | s2)]
        assert all(len(c) == 1 for c in cells)


def test_knowledge_measure_equals_the_enumeration_on_every_support():
    supports = [c for r in range(1, 5) for c in itertools.combinations(STATES, r)]
    assert len(supports) == 15
    for support in supports:
        for weights in itertools.product((1, 2, 3), repeat=len(support)):
            probs = [Fraction(0)] * 4
            for s, w in zip(support, weights):
                probs[s - 1] = Fraction(w, sum(weights))
            assert toy.knowledge_measure(probs) == enumerated_knowledge_measure(probs), probs


# ----------------------------------------------------------------- updates

def test_measure_update_reference_cases():
    total = toy.IGNORANCE
    got = toy.measure_update(total, MEAS_X_TOY, frozenset({1, 3}))
    assert got.support == {1, 3}

    s12 = toy_state(1, 2)
    assert toy.measure_update(s12, MEAS_Z_TOY, frozenset({1, 2})).support == {1, 2}
    with pytest.raises(ImpossibleToyOutcome):
        toy.measure_update(s12, MEAS_Z_TOY, frozenset({3, 4}))


def test_measure_update_outputs_are_kb_states():
    for s in ALL_KB_SINGLE + [toy.IGNORANCE]:
        for meas in ALL_TOY_MEASUREMENTS:
            for block, p in toy.measurement_distribution(s, meas).items():
                if p > 0:
                    assert toy.measure_update(s, meas, block) == ToyEpistemicState(block)


def test_ontic_simulation_block_and_membership():
    rng = random.Random(11)
    for _ in range(200):
        lam = rng.choice((1, 2, 3, 4))
        block, new_lam = toy.ontic_simulate_measurement(lam, MEAS_X_TOY, rng)
        assert lam in block
        assert new_lam in block


def test_ontic_simulation_repeat_same_outcome():
    rng = random.Random(5)
    for _ in range(200):
        lam = rng.choice((1, 2, 3, 4))
        block1, lam2 = toy.ontic_simulate_measurement(lam, MEAS_Y_TOY, rng)
        block2, _ = toy.ontic_simulate_measurement(lam2, MEAS_Y_TOY, rng)
        assert block1 == block2


def test_ontic_simulation_frequencies_three_sigma():
    # exact value 1/2 from the epistemic prediction; binomial check at n=10000
    n = 10000
    rng = random.Random(42)
    hits = 0
    for _ in range(n):
        lam = rng.choice((1, 2))  # state 1v2
        block, _ = toy.ontic_simulate_measurement(lam, MEAS_X_TOY, rng)
        hits += block == frozenset({1, 3})
    sigma = (0.25 / n) ** 0.5
    assert abs(hits / n - 0.5) <= 3 * sigma


# ----------------------------------------------------------------- noncomm

def test_noncommutativity_transcript_exact():
    t = toy.noncommutativity_demo()
    assert t.a_then_b == {frozenset({1, 3}): HALF, frozenset({2, 4}): HALF}
    assert t.b_then_a == {frozenset({1, 2}): HALF, frozenset({3, 4}): HALF}
    assert t.a_then_a == {frozenset({1, 2}): Fraction(1), frozenset({3, 4}): Fraction(0)}
    assert t.differs()


# ----------------------------------------------------------------- permutations

def test_permutation_reference_cases():
    s12 = toy_state(1, 2)
    assert toy.apply_permutation(s12, toy.MZ_SPLITTER).support == {1, 3}
    s13 = toy_state(1, 3)
    assert toy.apply_permutation(s13, toy.MZ_MIRRORS).support == {1, 3}
    assert toy.apply_permutation(s13, toy.MZ_PHASE).support == {2, 4}
    assert toy.apply_permutation(s13, ToyPermutation(STATES)).support == {1, 3}


def test_mz_permutations_are_their_cycles():
    # (2 3), (1 3) and (1 2)(3 4): each swaps its pairs, fixes the rest and
    # is its own inverse
    for perm, pairs in ((toy.MZ_SPLITTER, [(2, 3)]), (toy.MZ_MIRRORS, [(1, 3)]),
                        (toy.MZ_PHASE, [(1, 2), (3, 4)])):
        swapped = {j: k for a, b in pairs for j, k in ((a, b), (b, a))}
        assert [perm(s) for s in STATES] == [swapped.get(s, s) for s in STATES]
        assert perm.inverse() == perm


def test_permutations_form_a_group():
    identity = ToyPermutation(STATES)
    for p, r in itertools.product(ALL_PERMS, repeat=2):
        # closure: p after r is a bijection on 1..4, so the constructor takes it
        assert ToyPermutation(tuple(p(r(s)) for s in STATES)) in ALL_PERMS
    for p in ALL_PERMS:
        assert all(identity(p(s)) == p(s) == p(identity(s)) for s in STATES)
        # the inverse undoes p on both sides, and it is the only permutation that does
        assert all(p(p.inverse()(s)) == s == p.inverse()(p(s)) for s in STATES)
        assert [r for r in ALL_PERMS if all(p(r(s)) == s for s in STATES)] == [p.inverse()]


@settings(max_examples=200, deadline=None)
@given(st.permutations([1, 2, 3, 4]), st.sampled_from(ALL_KB_SINGLE))
def test_permutation_then_inverse_is_identity_on_states(image, state):
    perm = ToyPermutation(tuple(image))
    there = toy.apply_permutation(state, perm)
    back = toy.apply_permutation(there, perm.inverse())
    assert back.support == state.support


@settings(max_examples=200, deadline=None)
@given(st.permutations([1, 2, 3, 4]), st.sampled_from(ALL_KB_SINGLE))
def test_permutations_preserve_kb_validity(image, state):
    out = toy.apply_permutation(state, ToyPermutation(tuple(image)))
    assert is_kb(out.probs)
    assert out.support == {image[s - 1] for s in state.support}


# ----------------------------------------------------------------- combine

COMBINE_TABLE = [
    ((1, 2), CombinationRule.RULE_1, (3, 4), {1, 3}),
    ((1, 2), CombinationRule.RULE_2, (3, 4), {2, 4}),
    ((2, 3), CombinationRule.RULE_4, (1, 4), {2, 4}),
    ((1, 4), CombinationRule.RULE_4, (2, 3), {1, 3}),
    ((1, 3), CombinationRule.RULE_3, (2, 4), {2, 3}),
    ((1, 3), CombinationRule.RULE_4, (2, 4), {1, 4}),
]


@pytest.mark.parametrize("a, rule, b, want", COMBINE_TABLE)
def test_combine_reference_instances(a, rule, b, want):
    assert toy.combine(toy_state(*a), toy_state(*b), rule).support == want


def test_combine_requires_disjoint_two_element_inputs():
    with pytest.raises(ToyError):
        toy.combine(toy_state(1, 2), toy_state(1, 3), CombinationRule.RULE_1)
    with pytest.raises(ToyError):
        toy.combine(toy.IGNORANCE, toy_state(1, 2), CombinationRule.RULE_1)


def test_combine_closure_over_all_disjoint_pairs_and_rules():
    for a, b in itertools.permutations(ALL_KB_SINGLE, 2):
        if a.support & b.support:
            continue
        for rule in CombinationRule:
            out = toy.combine(a, b, rule)
            assert is_kb(out.probs)
            assert len(out.support & a.support) == len(out.support & b.support) == 1


def test_combination_rules_carry_the_four_phases():
    phases = {r: r.phase for r in CombinationRule}
    assert phases[CombinationRule.RULE_1].to_complex() == pytest.approx(1)
    assert phases[CombinationRule.RULE_2].to_complex() == pytest.approx(-1)
    assert phases[CombinationRule.RULE_3].to_complex() == pytest.approx(1j)
    assert phases[CombinationRule.RULE_4].to_complex() == pytest.approx(-1j)


def test_analogy_failure_crossed_pair():
    report = toy.analogy_failure_check()
    by_key = {(str(r.left), r.rule, str(r.right)): r for r in report.rows}
    r3 = by_key[("1v3", CombinationRule.RULE_3, "2v4")]
    assert str(r3.toy_result) == "2v3" and r3.quantum_label == "-i" and not r3.match
    r4 = by_key[("1v3", CombinationRule.RULE_4, "2v4")]
    assert str(r4.toy_result) == "1v4" and r4.quantum_label == "+i" and not r4.match
    r1 = by_key[("1v2", CombinationRule.RULE_1, "3v4")]
    assert r1.match and r1.quantum_label == "+"
    # the crossed failure is confined to the +/- pair
    assert len(report.mismatches()) == 4
    assert all({str(r.left), str(r.right)} == {"1v3", "2v4"}
               for r in report.mismatches())


# ----------------------------------------------------------------- MZ

def test_mz_toy_runs():
    assert toy.mz_toy_run(True).support == {3, 4}
    assert toy.mz_toy_run(False).support == {1, 2}
    # from the upper arm: mirrors, the phase shifter if in, splitter
    assert toy.mz_toy_run(True, "upper_arm").support == {1, 4}
    assert toy.mz_toy_run(False, "upper_arm").support == {2, 3}
    with pytest.raises(quantum.QuantumError, match="unknown source"):
        toy.mz_toy_run(True, "lower_arm")


def test_mz_toy_quantum_correspondence():
    for phase in (True, False):
        toy_final = toy.mz_toy_run(phase)
        q_final = quantum.mz_evolve(phase)
        label = quantum.identify_pm_state(q_final)
        assert label is not None
        assert STATE_SUPPORT[label] == toy_final.support


def test_toy_model_outcome_labels_follow_the_partition_order():
    # blocks are ordered by their smallest member, so Y's {1,4} ("-i") comes first
    model = toy.build_toy_model()
    assert {name: xi.outcomes for name, xi in model.measurements.items()} == {
        "Z": ("0", "1"), "X": ("+", "-"), "Y": ("-i", "+i")}


def test_correspondence_antipodal_supports_are_complementary():
    antipodes = {"0": "1", "1": "0", "+": "-", "-": "+", "+i": "-i", "-i": "+i"}
    for a, b in antipodes.items():
        assert STATE_SUPPORT[a] | STATE_SUPPORT[b] == {1, 2, 3, 4}
        assert not STATE_SUPPORT[a] & STATE_SUPPORT[b]


# ----------------------------------------------------------------- composites

def test_make_correlated_and_marginals():
    state = toy.make_correlated({1: 1, 2: 2, 3: 3, 4: 4})
    assert state.support == {(1, 1), (2, 2), (3, 3), (4, 4)}
    for party in (0, 1):
        m = toy.marginal(state, party)
        assert all(w == QUARTER for w in m.values())


def test_product_composite():
    prod = toy.product_composite(toy_state(1, 2), toy_state(1, 2))
    assert prod.support == {(a, b) for a in (1, 2) for b in (1, 2)}


def test_make_correlated_rejects_non_bijections():
    with pytest.raises(ToyError):
        toy.make_correlated({1: 1, 2: 1, 3: 3, 4: 4})


def test_permutation_rejects_a_composite_state():
    state = toy.make_correlated({1: 1, 2: 2, 3: 3, 4: 4})
    with pytest.raises(ToyError):
        toy.apply_permutation(state, ToyPermutation((2, 1, 3, 4)))


# ----------------------------------------------------------------- steering

def test_steering_reference_sequence():
    state = toy.make_correlated({1: 1, 2: 2, 3: 3, 4: 4})
    r1 = toy.steering_inference(state, MEAS_X_TOY, frozenset({1, 3}))
    assert r1.probability == HALF
    assert {s for s, w in r1.bob_marginal.items() if w > 0} == {1, 3}
    assert all(w in (Fraction(0), HALF) for w in r1.bob_marginal.values())
    assert r1.joint_at_measurement == {(1, 1), (3, 3)}
    assert r1.updated == toy.product_composite(toy_state(1, 3), toy_state(1, 3))

    r2 = toy.steering_inference(r1.updated, MEAS_Z_TOY, frozenset({1, 2}))
    assert r2.joint_at_measurement == {(1, 1), (1, 3)}
    assert toy.steering_retrodiction_demo() == 1


def test_steering_retrodiction_follows_the_second_outcome():
    # the other Z outcome keeps Alice in {3, 4} at the second measurement,
    # which singles out the other pair the first one left: (3, 3)
    assert toy.steering_retrodiction_demo(frozenset({3, 4})) == 3
    with pytest.raises(ToyError):
        toy.steering_retrodiction_demo(frozenset({1, 3}))  # not a Z outcome


def test_steering_product_state_leaves_bob_alone():
    prod = toy.product_composite(toy_state(1, 2), toy_state(3, 4))
    before = toy.marginal(prod, 1)
    for meas in ALL_TOY_MEASUREMENTS:
        for block in meas.partition:
            try:
                r = toy.steering_inference(prod, meas, block)
            except ImpossibleToyOutcome:
                continue
            assert r.bob_marginal == before


def test_steering_rejects_an_update_that_is_not_uniform():
    # Bob's 1 is twice as likely as his 2 among the pairs Alice's {1, 2} keeps
    state = CompositeToyState(frozenset({(1, 1), (2, 1), (1, 2)}))
    with pytest.raises(ToyError, match="not uniform"):
        toy.steering_inference(state, MEAS_Z_TOY, frozenset({1, 2}))


def test_steering_impossible_outcome():
    prod = toy.product_composite(toy_state(1, 2), toy_state(3, 4))
    with pytest.raises(ImpossibleToyOutcome):
        toy.steering_inference(prod, MEAS_Z_TOY, frozenset({3, 4}))


# ----------------------------------------------------------------- signaling

def test_no_signaling_for_every_kb_composite():
    states = kb_composites()
    assert len(set(states)) == 61
    for state in states:
        rep = toy.no_signaling_check(state, ALL_TOY_MEASUREMENTS)
        assert rep.max_variation == 0


def test_no_signaling_is_derived_from_the_steering_update(monkeypatch):
    """An update that moves Bob's coordinate into Alice's block signals."""
    honest = toy.steering_inference

    def leaky(state, alice_meas, alice_outcome):
        r = honest(state, alice_meas, alice_outcome)
        bob = min(alice_outcome)
        updated = CompositeToyState(frozenset((a, bob) for a, _ in r.updated.support))
        return toy.SteeringResult(r.probability, updated, toy.marginal(updated, 1),
                                  r.joint_at_measurement)

    monkeypatch.setattr(toy, "steering_inference", leaky)
    state = toy.make_correlated({1: 1, 2: 2, 3: 3, 4: 4})
    assert toy.no_signaling_check(state, ALL_TOY_MEASUREMENTS).max_variation == HALF


# ----------------------------------------------------------------- validation

def test_toy_state_validation():
    with pytest.raises(ToyError):
        ToyEpistemicState(frozenset({1}))
    with pytest.raises(ToyError):
        ToyEpistemicState(frozenset({1, 2, 3}))
    with pytest.raises(ToyError):
        ToyEpistemicState(frozenset({0, 5}))


@pytest.mark.parametrize("lam", [0, 5, "1", [1]], ids=repr)
def test_a_non_state_is_a_named_toy_error_from_block_of_and_the_simulator(lam):
    with pytest.raises(ToyError, match=r"is not a toy state"):
        MEAS_X_TOY.block_of(lam)
    with pytest.raises(ToyError, match=r"is not a toy state"):
        toy.ontic_simulate_measurement(lam, MEAS_X_TOY, random.Random(0))


def test_block_index_matches_the_partition_and_stays_out_of_the_value():
    for meas in ALL_TOY_MEASUREMENTS:
        for lam in STATES:
            (block,) = [b for b in meas.partition if lam in b]
            assert meas.block_of(lam) is block
    same = ToyMeasurement(tuple(reversed(MEAS_X_TOY.partition)))
    assert same == MEAS_X_TOY and hash(same) == hash(MEAS_X_TOY)
    assert repr(same) == f"ToyMeasurement(partition={MEAS_X_TOY.partition!r})"


def test_measurement_validation():
    with pytest.raises(ToyError):
        ToyMeasurement((frozenset({1, 2, 3}), frozenset({4})))
    with pytest.raises(ToyError):
        ToyMeasurement((frozenset({1, 2}), frozenset({2, 3})))


@pytest.mark.parametrize("build, message", [
    (lambda: ToyEpistemicState(frozenset({"a", 1})), "is not a subset of 1..4"),
    (lambda: ToyMeasurement((frozenset(), frozenset({1, 2, 3, 4}))), "two 2-element blocks"),
    (lambda: ToyPermutation(("a", 2, 3, 4)), "not a permutation of 1..4"),
    (lambda: CompositeToyState({(1,)}), r"\(1,\) is not a pair in 1..4 x 1..4"),
    (lambda: toy.make_correlated({1: 1, 2: 2, 3: 3}), "bijection on 1..4"),
], ids=["mixed-support", "empty-block", "non-int-image", "one-tuple-pair", "partial-pairing"])
def test_malformed_constructor_input_is_a_named_toy_error(build, message):
    with pytest.raises(ToyError, match=message):
        build()


