"""Exact small-dimension quantum toolkit: qubit states, Born rule, tensor
products and the Mach-Zehnder gate sequence.

States are pure kets and measurements are orthonormal ket bases, so every
Born probability is the rank-one |<e|psi>|^2 of ``transition_probability``.

All canned states and gates carry ``ExactComplex`` amplitudes, so the six
single-qubit reference states, the interferometer runs and the two-qubit
product/entangled constructions evaluate to exact rationals.  Operations
also accept builtin ``complex`` entries for arbitrary-angle work (tolerance
1e-12); the number mode is fixed by the inputs of each computation.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import (
    FLOAT_TOL,
    ExactComplex,
    I,
    INV_SQRT2,
    ONE,
    ZERO,
    as_probability,
    dot,
    dot_abs2,
    phase_eighth,
)


class QuantumError(ValueError):
    """Malformed state or measurement."""


def _close_to(x, target: int) -> bool:
    """x == target for a target of 0 or 1: exactly for ExactComplex and
    Fraction values, within FLOAT_TOL for floats."""
    if isinstance(x, ExactComplex):
        return x == (ONE if target else ZERO)
    if isinstance(x, Fraction):
        return x == target
    return abs(complex(x) - target) <= FLOAT_TOL


def _dot(a: Sequence, b: Sequence, conjugate_left: bool = True):
    """sum conj(a_i) b_i (sum a_i b_i if not ``conjugate_left``) over two
    equally long amplitude tuples: fused by ``exact.dot`` when every entry is
    an ExactComplex, else folded term by term with the scalar operators."""
    z = dot(a, b, conjugate_left)
    if z is not None:
        return z
    pairs = zip((x.conjugate() for x in a) if conjugate_left else a, b, strict=True)
    x, y = next(pairs)
    acc = x * y
    for x, y in pairs:
        acc = acc + x * y
    return acc


def gram_defects(vectors: Mapping[str, Sequence]) -> list:
    """The label pairs (a, b) whose <a|b> differs from the identity's entry,
    exactly for ExactComplex amplitudes and beyond FLOAT_TOL for floats;
    empty iff the amplitude tuples are orthonormal.  Tuples of different
    lengths raise QuantumError."""
    lengths = {k: len(v) for k, v in vectors.items()}
    for (a, m), (b, n) in itertools.pairwise(lengths.items()):
        if m != n:
            raise QuantumError(f"{a!r} has {m} amplitudes but {b!r} has {n}")
    return [(a, b) for a, b in itertools.product(vectors, repeat=2)
            if not _close_to(_dot(vectors[a], vectors[b]), int(a == b))]


@dataclass(frozen=True)
class Ket:
    """Normalized pure state; amplitudes are ExactComplex or complex."""

    amplitudes: tuple

    def __post_init__(self):
        if not self.amplitudes:
            raise QuantumError("empty ket")
        n = _dot(self.amplitudes, self.amplitudes)
        if not _close_to(n, 1):
            raise QuantumError(f"ket is not normalized: <psi|psi> = {n!r}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A rank-one projective measurement given by its orthonormal basis,
    label -> Ket: outcome k has the effect |e_k><e_k|."""

    basis: Mapping[str, Ket]

    def __post_init__(self):
        dims = {e.dim for e in self.basis.values()}
        if dims != {len(self.basis)}:
            raise QuantumError("a basis needs one ket per dimension")
        if gram_defects({k: e.amplitudes for k, e in self.basis.items()}):
            raise QuantumError("basis kets are not orthonormal")

    @property
    def outcomes(self) -> tuple:
        return tuple(self.basis)

    def ket(self, outcome: str) -> Ket:
        try:
            return self.basis[outcome]
        except KeyError:
            raise QuantumError(f"unknown outcome label {outcome!r}") from None


# --------------------------------------------------------------------------
# grid helpers (dimensions are <= 4, plain tuples are fine)

def mat_vec(m, v: Sequence) -> tuple:
    return tuple(_dot(row, v, conjugate_left=False) for row in m)


def kron(a, b) -> tuple:
    da, db = len(a), len(b)
    return tuple(
        tuple(a[i // db][j // db] * b[i % db][j % db] for j in range(da * db))
        for i in range(da * db)
    )


# --------------------------------------------------------------------------
# states, gates, measurements

def inner(a: Ket, b: Ket):
    """<a|b>; conjugates the left argument."""
    if a.dim != b.dim:
        raise QuantumError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return _dot(a.amplitudes, b.amplitudes)


def transition_probability(e: Ket, psi: Ket):
    """|<e|psi>|^2 as an exact Fraction (exact mode) or float in [0, 1]."""
    p = dot_abs2(e.amplitudes, psi.amplitudes) if e.dim == psi.dim else None
    if p is None:
        amp = inner(e, psi)
        p = amp * amp.conjugate()
    return as_probability(p)


def born_probability(psi: Ket, meas: ProjectiveMeasurement, outcome: str):
    """P(outcome | psi) = |<e_k|psi>|^2 for the measurement's basis ket e_k."""
    return transition_probability(meas.ket(outcome), psi)


def tensor(a: Ket, b: Ket) -> Ket:
    """Kronecker product of two kets."""
    return Ket(tuple(x * y for x in a.amplitudes for y in b.amplitudes))


# The six single-qubit reference states.  In the interferometer reading,
# |0> is the upward-moving and |1> the downward-moving photon state.
KET_0 = Ket((ONE, ZERO))
KET_1 = Ket((ZERO, ONE))
KET_PLUS = Ket((INV_SQRT2, INV_SQRT2))
KET_MINUS = Ket((INV_SQRT2, -INV_SQRT2))
KET_PLUS_I = Ket((INV_SQRT2, INV_SQRT2 * I))
KET_MINUS_I = Ket((INV_SQRT2, -(INV_SQRT2 * I)))

PM_STATES = {
    "0": KET_0,
    "1": KET_1,
    "+": KET_PLUS,
    "-": KET_MINUS,
    "+i": KET_PLUS_I,
    "-i": KET_MINUS_I,
}

# Literal gate entries; the tests check that each is square with orthonormal
# columns (empty ``gram_defects``).
_HADAMARD = ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2))
_PAULI_X = ((ZERO, ONE), (ONE, ZERO))
_PHASE_PI = ((-ONE, ZERO), (ZERO, ONE))  # diag(e^{i pi}, 1)


MEAS_Z = ProjectiveMeasurement({"0": KET_0, "1": KET_1})
MEAS_X = ProjectiveMeasurement({"+": KET_PLUS, "-": KET_MINUS})
MEAS_Y = ProjectiveMeasurement({"+i": KET_PLUS_I, "-i": KET_MINUS_I})
MEAS_BY_NAME = {"Z": MEAS_Z, "X": MEAS_X, "Y": MEAS_Y}

# Detector measurement at the interferometer output: d1 catches the
# upward-moving photon, d2 the downward-moving one.
MEAS_DETECTORS = ProjectiveMeasurement({"d1": KET_0, "d2": KET_1})


def mz_gates(phase_in: bool, source: str) -> tuple:
    """The interferometer's gate names in order, for both formalisms: splitter,
    mirrors, phase (if ``phase_in``), splitter.  From ``source="upper_arm"``
    the photon is emitted directly into the upper arm, past the first splitter."""
    if source not in ("first_splitter", "upper_arm"):
        raise QuantumError(f"unknown source {source!r}")
    first = ("splitter",) if source == "first_splitter" else ()
    phase = ("phase",) if phase_in else ()
    return (*first, "mirrors", *phase, "splitter")


def mz_evolve(phase_in: bool, source: str = "first_splitter") -> Ket:
    """The final ket of ``mz_gates`` run on |0>, with H as the splitter, X as
    the mirrors and diag(e^{i pi}, 1) as the phase."""
    return _mz_run(_PHASE_PI if phase_in else None, source)


def mz_detection_probabilities(theta: float, source: str = "first_splitter"):
    """Detector probabilities (d1, d2) for an arbitrary float phase theta."""
    if not cmath.isfinite(theta):
        raise QuantumError("theta must be finite")
    phase = ((cmath.exp(1j * theta), 0j), (0j, 1 + 0j))  # diag(e^{i theta}, 1)
    final = _mz_run(phase, source)
    return tuple(born_probability(final, MEAS_DETECTORS, d) for d in MEAS_DETECTORS.outcomes)


def _mz_run(phase: tuple | None, source: str) -> Ket:
    """The gate sequence on raw amplitudes; one Ket checks the final norm."""
    gates = {"splitter": _HADAMARD, "mirrors": _PAULI_X, "phase": phase}
    amps = KET_0.amplitudes
    for gate in mz_gates(phase is not None, source):
        amps = mat_vec(gates[gate], amps)
    return Ket(amps)


def superpose(a: Ket, b: Ket, phase: ExactComplex) -> Ket:
    """(1/sqrt2)(|a> + phase |b>) for orthogonal a, b."""
    if not _close_to(transition_probability(a, b), 0):
        raise QuantumError("superpose expects orthogonal states")
    return Ket(tuple(INV_SQRT2 * (x + phase * y) for x, y in zip(a.amplitudes, b.amplitudes)))


def identify_pm_state(psi: Ket) -> str | None:
    """Which of the six reference states equals psi up to a global phase."""
    for label, ref in PM_STATES.items():
        if _close_to(transition_probability(psi, ref), 1):
            return label
    return None


def expectation(psi: Ket, observable) -> ExactComplex | complex:
    """<psi|O|psi> for an observable given as a grid."""
    return _dot(psi.amplitudes, mat_vec(observable, psi.amplitudes))


# cos(k pi/4) for k = 0..7: the real parts of the eighth-turn phases
_COS_EIGHTH = tuple(ExactComplex(phase_eighth(k).ra, phase_eighth(k).rb) for k in range(8))


def spin_observable_eighth(k_eighths: int) -> tuple:
    """cos(theta) Z + sin(theta) X at theta = k*pi/4, exact entries."""
    c, s = _COS_EIGHTH[k_eighths % 8], _COS_EIGHTH[(k_eighths - 2) % 8]
    return ((c, s), (s, -c))


SINGLET = Ket((ZERO, INV_SQRT2, -INV_SQRT2, ZERO))
