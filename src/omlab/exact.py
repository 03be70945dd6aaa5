"""Exact complex scalars over the field Q(i, sqrt(2)).

Every amplitude appearing in the qubit models lives in the field extension
Q(i, sqrt2): numbers of the form (a + b*sqrt2) + (c + d*sqrt2)*i with
rational a, b, c, d.  Addition and multiplication are closed, so
all probabilities come out as exact rationals and equality checks need no
tolerances.  A value is (a + b*sqrt2 + (c + d*sqrt2)*i)/den: four integers
over one shared denominator den > 0, in lowest terms after one gcd per result.
That form is canonical, so equality and hashing compare five integers, and a
``Fraction`` is made only at the boundary (``ra``, ``rb``, ``ia``, ``ib``).
All arithmetic is one fused sum of products on the coordinates, reduced by
one gcd: ``dot`` and ``dot_abs2`` (inner products, matrix rows, Born values)
sum many terms, a product is the one-term sum and a sum the two-term sum.
A ``float`` or ``complex`` operand (an arbitrary-angle phase) gives ``complex``.
Finite ontological models are checked here too, in integers over one common
denominator: ``over_lcm`` reads their rationals, and ``check_distribution``
and ``check_response`` state their four validity rules for ``omlab.models``
and ``pbr.replay_witness`` alike, so ``nogo pbr`` never imports ``models``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

FLOAT_TOL = 1e-12  # the one tolerance of float-mode (arbitrary-angle) values


def _is_float_mode(x) -> bool:
    return isinstance(x, (float, complex)) and not isinstance(x, bool)


@dataclass(frozen=True, init=False)
class ExactComplex:
    """(a + b*sqrt2 + (c + d*sqrt2)*i)/den, kept as the canonical tuple ``_t``."""

    __slots__ = ("_t",)
    _t: tuple

    def __new__(cls, ra: int | Fraction = 0, rb: int | Fraction = 0,
                ia: int | Fraction = 0, ib: int | Fraction = 0):
        parts = [Fraction(x) for x in (ra, rb, ia, ib)]
        den = lcm(*(p.denominator for p in parts))
        return _reduced(*(p.numerator * (den // p.denominator) for p in parts), den)

    ra = property(lambda self: Fraction(self._t[0], self._t[4]))
    rb = property(lambda self: Fraction(self._t[1], self._t[4]))
    ia = property(lambda self: Fraction(self._t[2], self._t[4]))
    ib = property(lambda self: Fraction(self._t[3], self._t[4]))

    @staticmethod
    def of(x: ExactComplex | int | Fraction) -> ExactComplex:
        return x if isinstance(x, ExactComplex) else ExactComplex(x)

    def __add__(self, other):
        if _is_float_mode(other):
            return self.to_complex() + complex(other)
        return _reduced(*_sum_of_products((self, ExactComplex.of(other)), (ONE, ONE), False))

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        a, b, c, d, n = self._t
        return _make((-a, -b, -c, -d, n))

    def __sub__(self, other):
        if _is_float_mode(other):
            return self.to_complex() - complex(other)
        return self + (-ExactComplex.of(other))

    def __mul__(self, other):
        if _is_float_mode(other):
            # mixing number modes demotes the computation to float
            return self.to_complex() * complex(other)
        return _reduced(*_sum_of_products((self,), (ExactComplex.of(other),), False))

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        a, b, c, d, n = self._t
        if not (c or d):
            return self
        return _make((a, b, -c, -d, n))

    def is_zero(self) -> bool:
        return self._t == (0, 0, 0, 0, 1)

    def is_real(self) -> bool:
        return not (self._t[2] or self._t[3])

    def is_positive(self) -> bool:
        """self > 0: real with a + b*sqrt2 > 0, read off the signs of a and b
        or, where they differ, off a^2 against 2 b^2."""
        a, b, c, d, _ = self._t
        if c or d or (a <= 0 and b <= 0):
            return False
        return (a >= 0 and b >= 0) or (a * a > 2 * b * b) == (a > 0)

    def to_complex(self) -> complex:
        a, b, c, d, n = self._t  # a / n is float(Fraction(a, n)): both round once
        return complex(a / n + b / n * 2 ** 0.5, c / n + d / n * 2 ** 0.5)


_set_t = ExactComplex._t.__set__  # the slot's own setter, past the frozen __setattr__


def _make(t: tuple) -> ExactComplex:
    """An ExactComplex from a tuple already in canonical form."""
    z = object.__new__(ExactComplex)
    _set_t(z, t)
    return z


def _reduced(a: int, b: int, c: int, d: int, den: int) -> ExactComplex:
    """The canonical (a + b*sqrt2 + (c + d*sqrt2)*i)/den for integers, den > 0."""
    g = gcd(a, b, c, d, den)
    if g == 1:
        return _make((a, b, c, d, den))
    return _make((a // g, b // g, c // g, d // g, den // g))


def _sum_of_products(xs, ys, conjugate_left: bool) -> tuple | None:
    """The unreduced (a, b, c, d, den) of sum_i x_i y_i, or of sum_i conj(x_i) y_i,
    over two equally long sequences; None if an entry is not an ExactComplex.
    A term with a zero factor is skipped; the others' 16 coordinate products
    go onto a running common denominator.  The one code that combines
    coordinates: ``+`` and ``*`` call it too."""
    sign = -1 if conjugate_left else 1
    a = b = c = d = 0
    den = 1
    for x, y in zip(xs, ys, strict=True):
        try:
            a1, b1, c1, d1, n1 = x._t
            a2, b2, c2, d2, n2 = y._t
        except AttributeError:
            return None
        if not (a1 or b1 or c1 or d1) or not (a2 or b2 or c2 or d2):
            continue
        c1 *= sign
        d1 *= sign
        ta = a1 * a2 - c1 * c2 + 2 * (b1 * b2 - d1 * d2)
        tb = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
        tc = a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
        td = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        n = n1 * n2
        if n == den:
            a, b, c, d = a + ta, b + tb, c + tc, d + td
        else:
            a, b, c, d = a * n + ta * den, b * n + tb * den, c * n + tc * den, d * n + td * den
            den *= n
    return a, b, c, d, den


def dot(xs, ys, conjugate_left: bool = False) -> ExactComplex | None:
    """sum_i x_i y_i (conj(x_i) y_i if ``conjugate_left``) over two equally
    long sequences, reduced once; ZERO if they are empty, None if an entry is
    not an ExactComplex (the caller's number mode is float)."""
    t = _sum_of_products(xs, ys, conjugate_left)
    return None if t is None else _reduced(*t)


def dot_abs2(xs, ys) -> ExactComplex | None:
    """|sum_i conj(x_i) y_i|^2, reduced once, or None as for ``dot``: for
    z = (a + b*sqrt2 + (c + d*sqrt2)*i)/den,
    |z|^2 = (a^2 + 2b^2 + c^2 + 2d^2 + 2(ab + cd)*sqrt2)/den^2."""
    t = _sum_of_products(xs, ys, True)
    if t is None:
        return None
    a, b, c, d, den = t
    return _reduced(a * a + 2 * b * b + c * c + 2 * d * d, 2 * (a * b + c * d), 0, 0, den * den)


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


def as_probability(x):
    """Coerce a computed probability to Fraction (exact) or float (float mode).

    Raises if the value has a non-negligible imaginary part (any, for an
    ExactComplex) or lies outside [0, 1] beyond ``FLOAT_TOL``.  An exact value
    outside Q is rounded to float.
    """
    if isinstance(x, ExactComplex):
        a, b, c, d, den = x._t
        if c or d:
            raise ValueError(f"probability has imaginary part: {x!r}")
        if not b:
            if not 0 <= a <= den:
                raise ValueError(f"probability out of range: {Fraction(a, den)}")
            return Fraction(a, den)
        x = x.to_complex()
    z = complex(x)
    if abs(z.imag) > FLOAT_TOL:
        raise ValueError(f"probability has imaginary part: {z}")
    v = z.real
    if not -FLOAT_TOL <= v <= 1 + FLOAT_TOL:
        raise ValueError(f"probability out of range: {v}")
    return min(max(v, 0.0), 1.0)


class ModelError(ValueError):
    """Malformed model component or inconsistent query."""


def read_ratio(s) -> tuple:
    """An exact rational as (n, d), d > 0, not always in lowest terms: "n/d"
    and "n" strings (an optional "-", ASCII digits, d != 0) are read with
    ``int``, any other value by ``Fraction``, whose values and errors hold."""
    if isinstance(s, str) and s.isascii():
        num, slash, den = s.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
            d = int(den) if slash else 1
            if d:
                return int(num), d
    v = Fraction(s)
    return v.numerator, v.denominator


def over_lcm(values) -> tuple:
    """Exact rationals as (numerators, their least common denominator)."""
    pairs = [read_ratio(s) for s in values]
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def check_distribution(weights, den: int) -> None:
    """An epistemic state's weights, integers over ``den``: none negative and
    their sum 1, or ``ModelError`` names the rule broken."""
    if any(w < 0 for w in weights):
        raise ModelError("negative epistemic weight")
    if (total := sum(weights)) != den:
        raise ModelError(f"epistemic weights sum to {Fraction(total, den)}, not 1")


def check_response(entries, den: int, labels) -> None:
    """A response table, one row per outcome and one column per ontic state in
    ``labels``, row by row as integers over ``den``: every entry in [0, 1] and
    every column's sum 1, or ``ModelError`` names the first rule broken."""
    if any(not 0 <= x <= den for x in entries):
        raise ModelError("response entries must lie in [0, 1]")
    for l, label in enumerate(labels):
        if (total := sum(entries[l::len(labels)])) != den:
            raise ModelError(f"response column for {label!r} sums to {Fraction(total, den)}, not 1")
