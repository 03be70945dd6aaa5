"""Born rule, tensor products and the interferometer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_exact import sparse_scalars

from omlab import quantum as q
from omlab.exact import (FLOAT_TOL, INV_SQRT2, ONE, ZERO, ExactComplex, as_probability,
                         dot, phase_eighth)

HALF = Fraction(1, 2)

float_kets = st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=2, max_size=2)


def _float_ket(amps):
    """The normalized ket of ``amps``, or None if it is too short to scale."""
    vec = [complex(re, im) for re, im in amps]
    norm = sum(abs(a) ** 2 for a in vec) ** 0.5
    return None if norm < 1e-6 else q.Ket(tuple(a / norm for a in vec))


def trace_formula(e: q.Ket, psi: q.Ket):
    """Tr(|e><e| |psi><psi|), summed entry by entry over the two projectors."""
    effect = [[x * y.conjugate() for y in e.amplitudes] for x in e.amplitudes]
    rho = [[x * y.conjugate() for y in psi.amplitudes] for x in psi.amplitudes]
    d = e.dim
    return as_probability(sum((effect[i][j] * rho[j][i] for i in range(d) for j in range(d)),
                              ZERO))


# ---------------------------------------------------------------- Born rule

def test_born_reference_values():
    assert q.born_probability(q.KET_0, q.MEAS_X, "+") == HALF
    assert q.born_probability(q.KET_PLUS, q.MEAS_X, "+") == 1
    assert q.born_probability(q.KET_MINUS, q.MEAS_X, "+") == 0


def test_born_errors():
    with pytest.raises(q.QuantumError):
        q.born_probability(q.KET_0, q.MEAS_X, "bogus")
    with pytest.raises(q.QuantumError):
        q.born_probability(q.tensor(q.KET_0, q.KET_0), q.MEAS_X, "+")


def test_born_sums_to_one_exactly_over_reference_family():
    # every reference state against every canned measurement
    for ket in q.PM_STATES.values():
        for meas in q.MEAS_BY_NAME.values():
            total = sum(q.born_probability(ket, meas, o) for o in meas.outcomes)
            assert total == 1


def test_born_matches_the_trace_formula_exactly():
    for ket in q.PM_STATES.values():
        for meas in q.MEAS_BY_NAME.values():
            for o in meas.outcomes:
                want = trace_formula(meas.ket(o), ket)
                assert isinstance(want, Fraction)
                assert q.born_probability(ket, meas, o) == want


@settings(max_examples=200, deadline=None)
@given(float_kets)
def test_born_matches_the_trace_formula_in_float_mode(amps):
    ket = _float_ket(amps)
    if ket is None:
        return
    for meas in q.MEAS_BY_NAME.values():
        for o in meas.outcomes:
            assert abs(q.born_probability(ket, meas, o) - trace_formula(meas.ket(o), ket)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(float_kets)
def test_born_sums_to_one_float_mode(amps):
    ket = _float_ket(amps)
    if ket is None:
        return
    total = sum(q.born_probability(ket, q.MEAS_Z, o) for o in ("0", "1"))
    assert abs(total - 1) < 1e-9


def test_global_phase_invariance():
    # alpha in {pi/4, pi/2, pi} as exact eighth phases 1, 2, 4
    for k in (1, 2, 4):
        for label, ket in q.PM_STATES.items():
            shifted = q.Ket(tuple(phase_eighth(k) * a for a in ket.amplitudes))
            for meas in q.MEAS_BY_NAME.values():
                for o in meas.outcomes:
                    assert q.born_probability(shifted, meas, o) == \
                        q.born_probability(ket, meas, o)


# ---------------------------------------------------------------- tensor

def test_tensor_basis_products():
    t = q.tensor(q.KET_0, q.KET_0)
    assert t.amplitudes == (ONE, ZERO, ZERO, ZERO)
    t2 = q.tensor(q.KET_0, q.KET_PLUS)
    assert [a.to_complex().real for a in t2.amplitudes] == pytest.approx(
        [2 ** -0.5, 2 ** -0.5, 0, 0])


def test_tensor_keeps_normalization():
    for a, b in itertools.product(q.PM_STATES.values(), repeat=2):
        q.tensor(a, b)  # Ket invariant checks the norm


# ---------------------------------------------------------------- gates

PHASE_GATES = [((phase_eighth(k), ZERO), (ZERO, ONE)) for k in range(8)]


def is_unitary(entries) -> bool:
    """Square, with orthonormal columns."""
    return (all(len(row) == len(entries) for row in entries)
            and not q.gram_defects(dict(enumerate(zip(*entries)))))


def test_gates_are_unitary_and_preserve_norm():
    for entries in [q._HADAMARD, q._PAULI_X, q._PHASE_PI] + PHASE_GATES:
        assert is_unitary(entries)
        for ket in q.PM_STATES.values():
            q.Ket(q.mat_vec(entries, ket.amplitudes))  # norm re-checked by Ket


def test_literal_gate_entries_are_unitary():
    for entries in (q._HADAMARD, q._PAULI_X, q._PHASE_PI):
        assert is_unitary(entries)
    assert q._PHASE_PI == ((phase_eighth(4), ZERO), (ZERO, ONE))  # theta = pi


def test_non_orthonormal_grid_has_gram_defects():
    # columns (1, 0) and (1, 1): <0|1> = <1|0> = 1 and <1|1> = 2
    assert q.gram_defects(dict(enumerate(zip(*((ONE, ONE), (ZERO, ONE)))))) == [
        (0, 1), (1, 0), (1, 1)]
    assert not is_unitary(((ONE,), (ZERO,)))  # one orthonormal column, but not square


# ---------------------------------------------------------------- MZ runs

def test_mz_gates_lists_each_run_in_order():
    assert q.mz_gates(True, "first_splitter") == ("splitter", "mirrors", "phase", "splitter")
    assert q.mz_gates(False, "first_splitter") == ("splitter", "mirrors", "splitter")
    assert q.mz_gates(True, "upper_arm") == ("mirrors", "phase", "splitter")
    assert q.mz_gates(False, "upper_arm") == ("mirrors", "splitter")
    with pytest.raises(q.QuantumError, match="unknown source 'lower_arm'"):
        q.mz_gates(True, "lower_arm")


def test_mz_with_phase_is_down_up_to_global_phase():
    final = q.mz_evolve(True)
    assert q.PM_STATES[q.identify_pm_state(final)] == q.KET_1
    # the amplitude is exactly -1 on the down component
    assert final.amplitudes[0].is_zero()
    assert final.amplitudes[1] == -ONE


def test_mz_without_phase_returns_input():
    final = q.mz_evolve(False)
    assert final.amplitudes == q.KET_0.amplitudes
    assert q.identify_pm_state(final) == "0"


def test_mz_upper_arm_equiprobable_for_both_settings():
    for phase in (True, False):
        final = q.mz_evolve(phase, "upper_arm")
        assert q.born_probability(final, q.MEAS_DETECTORS, "d1") == HALF
        assert q.born_probability(final, q.MEAS_DETECTORS, "d2") == HALF


def test_mz_final_states_orthogonal_across_settings():
    with_phase = q.mz_evolve(True)
    without = q.mz_evolve(False)
    ov = q.inner(with_phase, without)
    assert ov.is_zero()


def test_mz_float_mode_cosine_law():
    import math
    for theta in (0.0, 0.3, math.pi / 3, math.pi):
        p1, p2 = q.mz_detection_probabilities(theta)
        assert p1 == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- helpers

def test_identify_pm_state():
    shifted = q.Ket(tuple(phase_eighth(3) * a for a in q.KET_PLUS_I.amplitudes))
    assert q.identify_pm_state(shifted) == "+i"
    assert q.identify_pm_state(q.mz_evolve(True)) == "1"


# cos(k pi/4) for k = 0..7, written out: the oracle of the table that
# ``spin_observable_eighth`` reads off the eighth-turn phases
COS_EIGHTH = {0: ONE, 1: INV_SQRT2, 2: ZERO, 3: -INV_SQRT2, 4: -ONE,
              5: -INV_SQRT2, 6: ZERO, 7: INV_SQRT2}


def test_spin_observable_eighth_matches_the_literal_cos_table():
    for k in range(-16, 17):
        c, s = COS_EIGHTH[k % 8], COS_EIGHTH[(k - 2) % 8]  # sin(x) = cos(x - pi/2)
        assert q.spin_observable_eighth(k) == ((c, s), (s, -c))


def test_measurement_validation():
    with pytest.raises(q.QuantumError, match="orthonormal"):
        q.ProjectiveMeasurement({"a": q.KET_0, "b": q.KET_PLUS})


def test_measurement_rejects_an_incomplete_basis():
    with pytest.raises(q.QuantumError, match="one ket per dimension"):
        q.ProjectiveMeasurement({"0": q.KET_0})
    with pytest.raises(q.QuantumError, match="one ket per dimension"):
        q.ProjectiveMeasurement({"0": q.KET_0, "00": q.tensor(q.KET_0, q.KET_0)})


def test_gram_defects_flags_an_off_diagonal_1e_9():
    e0, e1 = (1 + 0j, 0j), (0j, 1 + 0j)
    assert q.gram_defects({"a": e0, "b": e1}) == []
    assert q.gram_defects({"a": e0, "b": (1e-9 + 0j, 1 + 0j)}) == [("a", "b"), ("b", "a")]


# ---------------------------------------------------------------- fused kernel
# The operator-by-operator folds below are the forms the fused kernel
# (``exact.dot``, ``exact.dot_abs2``) replaced: one ExactComplex multiply and
# add per term.  They are the kernel's oracles.

def fold_dot(a, b):
    acc = a[0].conjugate() * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x.conjugate() * y
    return acc


def fold_mat_vec(m, v):
    d = len(m)
    return tuple(sum((m[i][k] * v[k] for k in range(1, d)), m[i][0] * v[0]) for i in range(d))


def fold_transition_probability(e, psi):
    amp = fold_dot(e, psi)
    return as_probability(amp * amp.conjugate())


def fold_gram_defects(vectors):
    return [(a, b) for a, b in itertools.product(vectors, repeat=2)
            if fold_dot(vectors[a], vectors[b]) != ExactComplex.of(int(a == b))]


def unchecked_ket(amplitudes) -> q.Ket:
    """A Ket that skips the norm check, so any amplitudes can be paired."""
    ket = object.__new__(q.Ket)
    object.__setattr__(ket, "amplitudes", tuple(amplitudes))
    return ket


def vector_pairs(scalars, min_size=1):
    return st.integers(min_size, 4).flatmap(
        lambda d: st.tuples(st.lists(scalars, min_size=d, max_size=d),
                            st.lists(scalars, min_size=d, max_size=d)))


# |x| <= 4 (1 + sqrt2) sqrt2 < 14 for a sparse scalar, so over 32 a vector of
# length <= 4 has norm below 1 and every |<a|b>|^2 is a probability
small_scalars = sparse_scalars.map(lambda x: x * Fraction(1, 32))


def basis_or_sparse(d):
    """A phased basis vector (so some Gram matrices are the identity) or any."""
    basis = st.tuples(st.integers(0, d - 1), st.integers(0, 7)).map(
        lambda kj: tuple(phase_eighth(kj[1]) if i == kj[0] else ZERO for i in range(d)))
    return st.one_of(basis, st.lists(sparse_scalars, min_size=d, max_size=d).map(tuple))


@settings(max_examples=150, deadline=None)
@given(vector_pairs(sparse_scalars))
def test_fused_dot_equals_the_fold(pair):
    a, b = pair
    assert q._dot(a, b) == fold_dot(a, b)
    assert dot(a, b) == fold_dot([x.conjugate() for x in a], b)
    assert q._dot(a, a) == fold_dot(a, a) and q._close_to(q._dot(a, a), 0) == all(
        x.is_zero() for x in a)


@settings(max_examples=100, deadline=None)
@given(vector_pairs(small_scalars))
def test_fused_transition_probability_equals_the_fold(pair):
    a, b = pair
    got = q.transition_probability(unchecked_ket(a), unchecked_ket(b))
    want = fold_transition_probability(a, b)
    assert got == want and type(got) is type(want)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(sparse_scalars, min_size=d, max_size=d).map(tuple), min_size=d, max_size=d),
    st.lists(sparse_scalars, min_size=d, max_size=d).map(tuple))))
def test_fused_mat_vec_equals_the_fold(mv):
    m, v = mv
    assert q.mat_vec(m, v) == fold_mat_vec(m, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.dictionaries(
    st.sampled_from("abcd"), basis_or_sparse(d), min_size=1, max_size=4)))
def test_fused_gram_defects_equal_the_fold(vectors):
    assert q.gram_defects(vectors) == fold_gram_defects(vectors)


def demote(vector, mask):
    """The vector with the entries that ``mask`` picks turned into complex."""
    return tuple(x.to_complex() if m else x for x, m in zip(vector, mask))


@settings(max_examples=60, deadline=None)
@given(vector_pairs(small_scalars), st.lists(st.booleans(), min_size=8, max_size=8))
def test_mixed_entries_keep_the_float_fold(pair, mask):
    a, b = pair
    if not any(mask[:2 * len(a)]):
        mask[0] = True
    fa, fb = demote(a, mask[:len(a)]), demote(b, mask[len(a):])
    got = q._dot(fa, fb)
    assert type(got) is complex
    assert got == fold_dot(fa, fb)
    assert abs(got - fold_dot(a, b).to_complex()) <= FLOAT_TOL
    p = q.transition_probability(unchecked_ket(fa), unchecked_ket(fb))
    assert type(p) is float
    assert abs(p - float(fold_transition_probability(a, b))) <= FLOAT_TOL
    m = (fa,) * len(a)
    assert all(type(z) is complex for z in q.mat_vec(m, fb))
    assert q.mat_vec(m, fb) == fold_mat_vec(m, fb)


def test_fused_dot_of_empty_and_float_vectors():
    assert dot((), ()) == ZERO
    assert dot((ONE, 1j), (ONE, ONE)) is None
    assert dot((ONE,), (0.5,)) is None


@pytest.mark.parametrize("mode", [lambda x: x, ExactComplex.to_complex])
def test_vectors_of_different_lengths_are_not_zipped_short(mode):
    e0, e1 = (mode(ONE), mode(ZERO)), (mode(ZERO), mode(ONE), mode(ZERO))
    with pytest.raises(q.QuantumError, match=r"'a' has 2 amplitudes but 'b' has 3"):
        q.gram_defects({"a": e0, "b": e1})
    with pytest.raises(ValueError):
        q._dot(e0, (mode(ZERO), mode(ONE), mode(ONE)))
    with pytest.raises(ValueError):
        q.mat_vec((e0, e0), e1)
