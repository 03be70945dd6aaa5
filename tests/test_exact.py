"""Field arithmetic over Q(i, sqrt2)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlab.exact import ExactComplex, I, ONE, SQRT2, INV_SQRT2, ZERO, phase_eighth

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
    assert all(type(f) is Fraction for f in (z.ra, z.rb, z.ia, z.ib)), z
    return z.ra, z.rb, z.ia, z.ib


@settings(max_examples=300, deadline=None)
@given(sparse_scalars, sparse_scalars)
def test_zero_skipping_matches_the_full_products(x, y):
    assert fields(x * y) == reference_mul(x, y)
    assert hash(x * y) == hash(ExactComplex(*reference_mul(x, y)))
    assert fields(x + y) == (x.ra + y.ra, x.rb + y.rb, x.ia + y.ia, x.ib + y.ib)
    assert fields(x - y) == (x.ra - y.ra, x.rb - y.rb, x.ia - y.ia, x.ib - y.ib)
    assert fields(x.conjugate()) == (x.ra, x.rb, -x.ia, -x.ib)
    assert fields(x * 3) == reference_mul(x, ExactComplex.of(3))
    assert fields(0 + x) == fields(x)


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
