"""Field arithmetic over Q(i, sqrt2)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlab.exact import ExactComplex, I, ONE, SQRT2, INV_SQRT2, ZERO, phase_eighth

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
scalars = st.builds(ExactComplex, fracs, fracs, fracs, fracs)


def close(a: ExactComplex, b: complex, tol=1e-12) -> bool:
    return abs(a.to_complex() - b) <= tol


@settings(max_examples=200, deadline=None)
@given(scalars, scalars)
def test_mul_matches_complex_arithmetic(x, y):
    assert close(x * y, x.to_complex() * y.to_complex(), 1e-9)


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_laws(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + (y + z) == (x + y) + z


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_conjugation_involution(x):
    assert x.conjugate().conjugate() == x
    assert (x * x.conjugate()).is_real()


def test_constants():
    assert SQRT2 * SQRT2 == ExactComplex.of(2)
    assert I * I == -ONE
    assert INV_SQRT2 * SQRT2 == ONE
    assert ZERO + ONE == ONE


def test_eighth_phases_are_unit_roots():
    for k in range(8):
        p = phase_eighth(k)
        assert p.abs2() == ONE
    assert phase_eighth(4) == -ONE
    assert phase_eighth(2) == I
    assert phase_eighth(1) * phase_eighth(7) == ONE
    # e^{-i pi/4} = (1 - i)/sqrt2, the relative-phase factor of the
    # ordering-sensitivity computation
    m = phase_eighth(7)
    assert m * SQRT2 == ONE + (-I)


def test_real_fraction_extraction():
    x = ExactComplex.of(Fraction(3, 4))
    assert x.real_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        (SQRT2).real_fraction()
    with pytest.raises(ValueError):
        I.real_fraction()
