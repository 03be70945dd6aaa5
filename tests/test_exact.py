"""Field arithmetic over Q(i, sqrt2)."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlab.exact import (ExactComplex, HALF, I, ONE, SQRT2, INV_SQRT2, ZERO, as_probability,
                         phase_eighth)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
scalars = st.builds(ExactComplex, fracs, fracs, fracs, fracs)
# each coefficient is zero about half the time, so real, rational, pure-sqrt2
# and purely imaginary numbers all come up
sparse_fracs = st.one_of(st.just(Fraction(0)), fracs)
sparse_scalars = st.builds(ExactComplex, sparse_fracs, sparse_fracs, sparse_fracs, sparse_fracs)


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


def reference_mul(x: ExactComplex, y: ExactComplex) -> tuple:
    """All 16 coefficient products, none skipped."""
    def qmul(a, b, c, d):
        return a * c + 2 * b * d, a * d + b * c

    rr, ii = qmul(x.ra, x.rb, y.ra, y.rb), qmul(x.ia, x.ib, y.ia, y.ib)
    ri, ir = qmul(x.ra, x.rb, y.ia, y.ib), qmul(x.ia, x.ib, y.ra, y.rb)
    return rr[0] - ii[0], rr[1] - ii[1], ri[0] + ir[0], ri[1] + ir[1]


def fields(z: ExactComplex) -> tuple:
    """The four coordinates, each checked to be a Fraction."""
    assert all(type(f) is Fraction for f in (z.ra, z.rb, z.ia, z.ib)), z
    return z.ra, z.rb, z.ia, z.ib


@settings(max_examples=300, deadline=None)
@given(sparse_scalars, sparse_scalars)
def test_zero_skipping_matches_the_full_products(x, y):
    """Operands with zero coordinates, which the fused kernel skips term by
    term, give the full 16-product Fraction formula's fields and hashes."""
    assert fields(x * y) == reference_mul(x, y)
    assert hash(x * y) == hash(ExactComplex(*reference_mul(x, y)))
    assert fields(x + y) == (x.ra + y.ra, x.rb + y.rb, x.ia + y.ia, x.ib + y.ib)
    assert fields(x - y) == (x.ra - y.ra, x.rb - y.rb, x.ia - y.ia, x.ib - y.ib)
    assert fields(x.conjugate()) == (x.ra, x.rb, -x.ia, -x.ib)
    assert fields(x * 3) == reference_mul(x, ExactComplex.of(3))
    assert fields(0 + x) == fields(x)


finite = st.floats(allow_nan=False, allow_infinity=False)
float_operands = st.one_of(finite, st.builds(complex, finite, finite))


def bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


@settings(max_examples=200, deadline=None)
@given(sparse_scalars, float_operands)
def test_a_float_operand_demotes_each_operator_to_complex_bit_for_bit(z, w):
    """z op w, for a float or complex w, is the same op on z.to_complex() and
    complex(w), to the last bit of both parts; so is w op z for + and *
    (ExactComplex has no __rsub__: no lab path subtracts it from a float)."""
    zc, wc = z.to_complex(), complex(w)
    for op in (operator.add, operator.sub, operator.mul):
        assert type(op(z, w)) is complex and bits(op(z, w)) == bits(op(zc, wc)), op
    for op in (operator.add, operator.mul):
        assert type(op(w, z)) is complex and bits(op(w, z)) == bits(op(wc, zc)), op


@settings(max_examples=300, deadline=None)
@given(sparse_scalars)
def test_is_positive_is_the_sign_of_a_real_value(x):
    assert x.is_positive() == (x.is_real() and x.to_complex().real > 0)


def test_is_positive_near_zero():
    # Pell pairs: 99^2 - 2*70^2 = 1 and 140^2 - 2*99^2 = -2, so a + b*sqrt2 is
    # within 1/100 of 0 on the side that the larger square picks
    assert not ExactComplex(-99, 70).is_positive() and ExactComplex(99, -70).is_positive()
    assert ExactComplex(-140, 99).is_positive() and not ExactComplex(140, -99).is_positive()
    assert not ZERO.is_positive() and not I.is_positive() and SQRT2.is_positive()


def test_constants():
    assert SQRT2 * SQRT2 == ExactComplex.of(2)
    assert I * I == -ONE
    assert INV_SQRT2 * SQRT2 == ONE
    assert ZERO + ONE == ONE


def test_eighth_phases_are_unit_roots():
    for k in range(8):
        p = phase_eighth(k)
        assert p * p.conjugate() == ONE
    assert phase_eighth(4) == -ONE
    assert phase_eighth(2) == I
    assert phase_eighth(1) * phase_eighth(7) == ONE
    # e^{-i pi/4} = (1 - i)/sqrt2, the relative-phase factor of the
    # ordering-sensitivity computation
    m = phase_eighth(7)
    assert m * SQRT2 == ONE + (-I)


def test_rational_probabilities_come_out_as_fractions():
    x = ExactComplex.of(Fraction(3, 4))
    assert as_probability(x) == Fraction(3, 4)
    assert type(as_probability(x)) is Fraction
    assert type(as_probability(HALF * HALF * SQRT2)) is float  # outside Q
    with pytest.raises(ValueError):
        as_probability(I)


@pytest.mark.parametrize("left, right", [
    (ExactComplex(Fraction(2, 4), Fraction(-6, 8)), ExactComplex(Fraction(1, 2), Fraction(-3, 4))),
    (ExactComplex(1, 0, -2, 3), ExactComplex(Fraction(1), Fraction(0), Fraction(-2), Fraction(3))),
    (ExactComplex(Fraction(3, -4), ib=Fraction(-5, -6)), ExactComplex(Fraction(-3, 4), ib=Fraction(5, 6))),
    (ExactComplex.of(Fraction(4, 2)), ExactComplex.of(2)),
    (ExactComplex.of(Fraction(0, 7)), ZERO),
    (HALF + HALF, ONE),
    (INV_SQRT2 * SQRT2 * I, I),
    (ExactComplex(Fraction(1, 3)) * 3 - ONE, ZERO),
])
def test_equal_values_are_equal_objects_with_equal_hashes(left, right):
    assert left == right
    assert hash(left) == hash(right)
    assert fields(left) == fields(right)


def test_equality_with_other_types_is_not_implemented():
    assert ONE.__eq__(1) is NotImplemented
    assert ONE.__eq__(Fraction(1)) is NotImplemented
    assert ONE != 1.0
    assert ZERO != (0, 0, 0, 0, 1)


def test_field_properties_are_fractions():
    for z in (ZERO, ExactComplex(1, 2, 3, 4), ExactComplex.of(7), ExactComplex.of(Fraction(-1, 3)),
              phase_eighth(3) * SQRT2 + HALF):
        fields(z)
    assert type(as_probability(ExactComplex.of(Fraction(1, 7)))) is Fraction


def test_values_are_immutable():
    x = ExactComplex(Fraction(1, 2), 3)
    for name in ("ra", "rb", "ia", "ib", "_t", "anything"):
        with pytest.raises(AttributeError):
            setattr(x, name, Fraction(1))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert fields(x) == (Fraction(1, 2), Fraction(3), Fraction(0), Fraction(0))


def float_reference(a: Fraction, b: Fraction) -> float:
    """The float of a + b*sqrt2 as computed from the Fraction coordinates."""
    return float(a) + float(b) * 2 ** 0.5


wide_fracs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)


@settings(max_examples=200, deadline=None)
@given(st.builds(ExactComplex, wide_fracs, wide_fracs, wide_fracs, wide_fracs))
def test_floats_are_bit_identical_to_the_fraction_formula(x):
    z = x.to_complex()
    assert z.real.hex() == float_reference(x.ra, x.rb).hex()
    assert z.imag.hex() == float_reference(x.ia, x.ib).hex()


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**6),
       st.fractions(min_value=-1, max_value=1, max_denominator=10**6))
def test_probability_floats_are_bit_identical_to_the_fraction_formula(a, b):
    x = ExactComplex(a, b)
    want = float_reference(a, b)
    if not -1e-12 <= want <= 1 + 1e-12:
        with pytest.raises(ValueError):
            as_probability(x)
        return
    got = as_probability(x)
    if b:
        assert type(got) is float
        assert got.hex() == min(max(want, 0.0), 1.0).hex()
    else:
        assert got == a and type(got) is Fraction


@pytest.mark.parametrize("value", [
    ExactComplex(Fraction(-1, 3)), ExactComplex(Fraction(4, 3)),    # exact, rational
    ExactComplex(1, 1), ExactComplex(-1, Fraction(1, 2)),           # exact, in Q(sqrt2)
    HALF + I * Fraction(1, 10**9), INV_SQRT2 * I,                   # exact, not real
    -1e-9, 1 + 1e-9, 0.5 + 1e-9j, complex(0.5, -1e-6),              # float
])
def test_probability_rejects_out_of_range_and_complex_values(value):
    with pytest.raises(ValueError):
        as_probability(value)
