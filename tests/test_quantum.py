"""Born rule, tensor products and the interferometer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlab import quantum as q
from omlab.exact import ONE, ZERO, phase_eighth

HALF = Fraction(1, 2)


# ---------------------------------------------------------------- Born rule

def test_born_reference_values():
    rho0 = q.projector(q.KET_0)
    assert q.born_probability(rho0, q.MEAS_X, "+") == HALF
    assert q.born_probability(q.projector(q.KET_PLUS), q.MEAS_X, "+") == 1
    assert q.born_probability(q.projector(q.KET_MINUS), q.MEAS_X, "+") == 0


def test_born_errors():
    rho0 = q.projector(q.KET_0)
    with pytest.raises(q.QuantumError):
        q.born_probability(rho0, q.MEAS_X, "bogus")
    rho2 = q.projector(q.tensor(q.KET_0, q.KET_0))
    with pytest.raises(q.QuantumError):
        q.born_probability(rho2, q.MEAS_X, "+")


def test_born_sums_to_one_exactly_over_reference_family():
    # every reference state against every canned measurement
    for ket in q.PM_STATES.values():
        rho = q.projector(ket)
        for meas in q.MEAS_BY_NAME.values():
            total = sum(q.born_probability(rho, meas, o) for o in meas.outcomes)
            assert total == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                min_size=2, max_size=2))
def test_born_sums_to_one_float_mode(amps):
    vec = [complex(re, im) for re, im in amps]
    norm = sum(abs(a) ** 2 for a in vec) ** 0.5
    if norm < 1e-6:
        return
    ket = q.Ket(tuple(a / norm for a in vec))
    rho = q.projector(ket)
    total = sum(q.born_probability(rho, q.MEAS_Z, o) for o in ("0", "1"))
    assert abs(total - 1) < 1e-9


def test_global_phase_invariance():
    # alpha in {pi/4, pi/2, pi} as exact eighth phases 1, 2, 4
    for k in (1, 2, 4):
        for label, ket in q.PM_STATES.items():
            shifted = q.Ket(tuple(phase_eighth(k) * a for a in ket.amplitudes))
            for meas in q.MEAS_BY_NAME.values():
                for o in meas.outcomes:
                    assert q.born_probability(q.projector(shifted), meas, o) == \
                        q.born_probability(q.projector(ket), meas, o)


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

def test_gates_are_unitary_and_preserve_norm():
    phase_gates = [((phase_eighth(k), ZERO), (ZERO, ONE)) for k in range(8)]
    for entries in [q._HADAMARD, q._PAULI_X, q._PHASE_PI] + phase_gates:
        gate = q.UnitaryGate(entries)
        for ket in q.PM_STATES.values():
            q.Ket(q.mat_vec(gate.entries, ket.amplitudes))  # norm re-checked by Ket


def test_literal_gate_entries_are_unitary():
    for entries in (q._HADAMARD, q._PAULI_X, q._PHASE_PI):
        assert q.UnitaryGate(entries).entries == entries
    assert q._PHASE_PI == ((phase_eighth(4), ZERO), (ZERO, ONE))  # theta = pi


def test_nonunitary_rejected():
    with pytest.raises(q.QuantumError):
        q.UnitaryGate(((ONE, ONE), (ZERO, ONE)))


# ---------------------------------------------------------------- MZ runs

def test_mz_with_phase_is_down_up_to_global_phase():
    final = q.mz_evolve(True)
    assert q.equal_up_to_global_phase(final, q.KET_DOWN)
    # the amplitude is exactly -1 on the down component
    assert final.amplitudes[0].is_zero()
    assert final.amplitudes[1] == -ONE


def test_mz_without_phase_returns_input():
    final = q.mz_evolve(False)
    assert final.amplitudes == q.KET_UP.amplitudes


def test_mz_upper_arm_equiprobable_for_both_settings():
    for phase in (True, False):
        final = q.mz_evolve(phase, "upper_arm")
        rho = q.projector(final)
        assert q.born_probability(rho, q.MEAS_DETECTORS, "d1") == HALF
        assert q.born_probability(rho, q.MEAS_DETECTORS, "d2") == HALF


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


def test_measurement_validation():
    with pytest.raises(q.QuantumError):
        q.ProjectiveMeasurement({"a": q.projector(q.KET_0).entries,
                                 "b": q.projector(q.KET_PLUS).entries})
