"""Exact complex scalars over the field Q(i, sqrt(2)).

Every amplitude appearing in the qubit models lives in the field extension
Q(i, sqrt2): numbers of the form (a + b*sqrt2) + (c + d*sqrt2)*i with
rational a, b, c, d.  Addition and multiplication are closed, so
all probabilities come out as exact rationals and equality checks need no
tolerances.  Arithmetic skips every term that is exactly zero (a product
with a zero factor, a zero summand, the imaginary part of a real number);
the four coefficients stay ``Fraction`` and the field element is the same.
Arbitrary-angle phases fall back to plain ``complex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def _qmul(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> tuple:
    """(a + b*sqrt2)(c + d*sqrt2) = (ac + 2bd) + (ad + bc)*sqrt2; a term with a
    zero factor is that factor (``x and y and x * y``), never multiplied out."""
    ac = a and c and a * c
    bd = b and d and 2 * b * d
    ad = a and d and a * d
    bc = b and c and b * c
    return (ac + bd if ac and bd else ac or bd), (ad + bc if ad and bc else ad or bc)


def _is_float_mode(x) -> bool:
    return isinstance(x, (float, complex)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ExactComplex:
    """(ra + rb*sqrt2) + (ia + ib*sqrt2)*i with Fraction coefficients."""

    ra: Fraction = Fraction(0)
    rb: Fraction = Fraction(0)
    ia: Fraction = Fraction(0)
    ib: Fraction = Fraction(0)

    @staticmethod
    def of(x: "ExactComplex | Rational") -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        return ExactComplex(Fraction(x))

    def __add__(self, other):
        if _is_float_mode(other):
            return self.to_complex() + complex(other)
        o = ExactComplex.of(other)
        if o.is_zero():
            return self
        if self.is_zero():
            return o
        return ExactComplex(self.ra + o.ra, self.rb + o.rb, self.ia + o.ia, self.ib + o.ib)

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.ra, -self.rb, -self.ia, -self.ib)

    def __sub__(self, other):
        if _is_float_mode(other):
            return self.to_complex() - complex(other)
        return self + (-ExactComplex.of(other))

    def __mul__(self, other):
        if _is_float_mode(other):
            # mixing number modes demotes the computation to float
            return self.to_complex() * complex(other)
        o = ExactComplex.of(other)
        # (R1 + I1 i)(R2 + I2 i) with R, I in Q(sqrt2)
        rr_a, rr_b = _qmul(self.ra, self.rb, o.ra, o.rb)
        if self.is_real() and o.is_real():
            return ExactComplex(rr_a, rr_b)
        ii_a, ii_b = _qmul(self.ia, self.ib, o.ia, o.ib)
        ri_a, ri_b = _qmul(self.ra, self.rb, o.ia, o.ib)
        ir_a, ir_b = _qmul(self.ia, self.ib, o.ra, o.rb)
        return ExactComplex(rr_a - ii_a, rr_b - ii_b, ri_a + ir_a, ri_b + ir_b)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        if self.is_real():
            return self
        return ExactComplex(self.ra, self.rb, -self.ia, -self.ib)

    def is_zero(self) -> bool:
        return not (self.ra or self.rb or self.ia or self.ib)

    def is_real(self) -> bool:
        return not (self.ia or self.ib)

    def is_rational(self) -> bool:
        return self.is_real() and not self.rb

    def real_fraction(self) -> Fraction:
        """The value as an exact Fraction; requires a purely rational number."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not a plain rational")
        return self.ra

    def abs2(self) -> "ExactComplex":
        """|z|^2, a real element of Q(sqrt2)."""
        return self * self.conjugate()

    def to_complex(self) -> complex:
        s = 2 ** 0.5
        return complex(float(self.ra) + float(self.rb) * s,
                       float(self.ia) + float(self.ib) * s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def part(a, b):
            terms = []
            if a:
                terms.append(str(a))
            if b:
                terms.append(f"{b}*sqrt2")
            return " + ".join(terms) if terms else "0"

        return f"({part(self.ra, self.rb)}) + ({part(self.ia, self.ib)})i"


ZERO = ExactComplex()
ONE = ExactComplex(Fraction(1))
I = ExactComplex(ia=Fraction(1))
SQRT2 = ExactComplex(rb=Fraction(1))
INV_SQRT2 = ExactComplex(rb=Fraction(1, 2))  # 1/sqrt2 = sqrt2/2
HALF = ExactComplex(Fraction(1, 2))

# e^{i k pi/4} for k = 0..7; every phase used by the discrete models.
_EIGHTH_PHASES = {
    0: ONE,
    1: ExactComplex(rb=Fraction(1, 2), ib=Fraction(1, 2)),
    2: I,
    3: ExactComplex(rb=Fraction(-1, 2), ib=Fraction(1, 2)),
    4: -ONE,
    5: ExactComplex(rb=Fraction(-1, 2), ib=Fraction(-1, 2)),
    6: -I,
    7: ExactComplex(rb=Fraction(1, 2), ib=Fraction(-1, 2)),
}


def phase_eighth(k: int) -> ExactComplex:
    """Exact e^{i k pi/4}."""
    return _EIGHTH_PHASES[k % 8]


def conj(x):
    """Complex conjugate for ExactComplex or builtin complex/float entries."""
    if isinstance(x, ExactComplex):
        return x.conjugate()
    return complex(x).conjugate()


def as_probability(x, tol: float = 1e-12):
    """Coerce a computed probability to Fraction (exact) or float (float mode).

    Raises if the value has a non-negligible imaginary part or lies outside
    [0, 1] beyond ``tol``.
    """
    if isinstance(x, ExactComplex):
        if not x.is_real():
            raise ValueError(f"probability has imaginary part: {x!r}")
        if x.is_rational():
            p = x.real_fraction()
            if not 0 <= p <= 1:
                raise ValueError(f"probability out of range: {p}")
            return p
        val = float(x.ra) + float(x.rb) * 2 ** 0.5
        if not -tol <= val <= 1 + tol:
            raise ValueError(f"probability out of range: {val}")
        return min(max(val, 0.0), 1.0)
    z = complex(x)
    if abs(z.imag) > tol:
        raise ValueError(f"probability has imaginary part: {z}")
    v = z.real
    if not -tol <= v <= 1 + tol:
        raise ValueError(f"probability out of range: {v}")
    return min(max(v, 0.0), 1.0)
