"""Exact small-dimension quantum toolkit: qubit states, Born rule, tensor
products and the Mach-Zehnder gate sequence.

All canned states and gates carry ``ExactComplex`` amplitudes, so the six
single-qubit reference states, the interferometer runs and the two-qubit
product/entangled constructions evaluate to exact rationals.  Operations
also accept builtin ``complex`` entries for arbitrary-angle work (tolerance
1e-12); the number mode is fixed by the inputs of each computation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import (
    ExactComplex,
    I,
    INV_SQRT2,
    ONE,
    ZERO,
    as_probability,
    conj,
)

FLOAT_TOL = 1e-12


class QuantumError(ValueError):
    """Malformed state, gate or measurement."""


def _close_to(x, target: Fraction, tol: float = FLOAT_TOL) -> bool:
    if isinstance(x, ExactComplex):
        return x == ExactComplex.of(target)
    return abs(complex(x) - complex(target)) <= tol


def _entries_equal(a, b, tol: float = FLOAT_TOL) -> bool:
    if isinstance(a, ExactComplex) and isinstance(b, ExactComplex):
        return a == b
    az = a.to_complex() if isinstance(a, ExactComplex) else complex(a)
    bz = b.to_complex() if isinstance(b, ExactComplex) else complex(b)
    return abs(az - bz) <= tol


@dataclass(frozen=True)
class Ket:
    """Normalized pure state; amplitudes are ExactComplex or complex."""

    amplitudes: tuple

    def __post_init__(self):
        if not self.amplitudes:
            raise QuantumError("empty ket")
        n = inner(self, self)
        if not _close_to(n, Fraction(1)):
            raise QuantumError(f"ket is not normalized: <psi|psi> = {n!r}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        d = len(self.entries)
        if any(len(row) != d for row in self.entries):
            raise QuantumError("density matrix is not square")
        for i in range(d):
            for j in range(d):
                if not _entries_equal(self.entries[i][j], conj(self.entries[j][i])):
                    raise QuantumError("density matrix is not Hermitian")
        tr = self.entries[0][0]
        for i in range(1, d):
            tr = tr + self.entries[i][i]
        if not _close_to(tr, Fraction(1)):
            raise QuantumError(f"density matrix trace is {tr!r}, not 1")
        if min(_eigvals_real(self.entries)) < -FLOAT_TOL:
            raise QuantumError("density matrix is not positive semidefinite")

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class UnitaryGate:
    entries: tuple

    def __post_init__(self):
        d = len(self.entries)
        prod = mat_mul(mat_dagger(self.entries), self.entries)
        for i in range(d):
            for j in range(d):
                want = Fraction(1) if i == j else Fraction(0)
                if not _close_to(prod[i][j], want):
                    raise QuantumError("gate is not unitary")


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """POVM given as a label -> positive-operator map; effects sum to 1."""

    effects: Mapping[str, DensityMatrix] | Mapping[str, tuple]

    def __post_init__(self):
        mats = {k: (e.entries if isinstance(e, DensityMatrix) else e) for k, e in self.effects.items()}
        object.__setattr__(self, "_mats", mats)
        dims = {len(m) for m in mats.values()}
        if len(dims) != 1:
            raise QuantumError("effects have mixed dimensions")
        d = dims.pop()
        zero = ZERO if _is_exact_grid(mats) else 0j
        total = [[zero for _ in range(d)] for _ in range(d)]
        for m in mats.values():
            if min(_eigvals_real(m)) < -FLOAT_TOL:
                raise QuantumError("effect is not positive semidefinite")
            for i in range(d):
                for j in range(d):
                    total[i][j] = total[i][j] + m[i][j]
        for i in range(d):
            for j in range(d):
                if not _close_to(total[i][j], Fraction(1) if i == j else Fraction(0)):
                    raise QuantumError("effects do not sum to the identity")

    @property
    def outcomes(self) -> tuple:
        return tuple(self._mats.keys())

    def effect(self, outcome: str):
        try:
            return self._mats[outcome]
        except KeyError:
            raise QuantumError(f"unknown outcome label {outcome!r}") from None


# --------------------------------------------------------------------------
# grid helpers (dimensions are <= 4, plain tuples are fine)

def _is_exact_grid(mats) -> bool:
    first = next(iter(mats.values()))
    return isinstance(first[0][0], ExactComplex)


def _eigvals_real(entries) -> list[float]:
    import numpy as np

    d = len(entries)
    a = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = entries[i][j]
            a[i, j] = e.to_complex() if isinstance(e, ExactComplex) else complex(e)
    return list(np.linalg.eigvalsh(a).real)


def mat_dagger(m) -> tuple:
    d = len(m)
    return tuple(tuple(conj(m[j][i]) for j in range(d)) for i in range(d))


def mat_mul(a, b) -> tuple:
    d = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, d)), a[i][0] * b[0][j]) for j in range(d))
        for i in range(d)
    )


def mat_vec(m, v: Sequence) -> tuple:
    d = len(m)
    return tuple(sum((m[i][k] * v[k] for k in range(1, d)), m[i][0] * v[0]) for i in range(d))


def trace(m):
    t = m[0][0]
    for i in range(1, len(m)):
        t = t + m[i][i]
    return t


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
    acc = conj(a.amplitudes[0]) * b.amplitudes[0]
    for x, y in zip(a.amplitudes[1:], b.amplitudes[1:]):
        acc = acc + conj(x) * y
    return acc


def projector(psi: Ket) -> DensityMatrix:
    d = psi.dim
    return DensityMatrix(
        tuple(tuple(psi.amplitudes[i] * conj(psi.amplitudes[j]) for j in range(d)) for i in range(d))
    )


def equal_up_to_global_phase(a: Ket, b: Ket, tol: float = FLOAT_TOL) -> bool:
    ov = inner(a, b)
    mag2 = ov * conj(ov)
    return _close_to(mag2, Fraction(1), tol)


def born_probability(rho: DensityMatrix, meas: ProjectiveMeasurement, outcome: str):
    """Tr(E_k rho) as an exact Fraction (exact mode) or float in [0, 1]."""
    eff = meas.effect(outcome)
    if len(eff) != rho.dim:
        raise QuantumError(f"dimension mismatch: effect {len(eff)} vs state {rho.dim}")
    return as_probability(trace(mat_mul(eff, rho.entries)))


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

KET_UP = KET_0
KET_DOWN = KET_1


# Literal gate entries; the tests check that they pass UnitaryGate.
_HADAMARD = ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2))
_PAULI_X = ((ZERO, ONE), (ONE, ZERO))
_PHASE_PI = ((-ONE, ZERO), (ZERO, ONE))  # diag(e^{i pi}, 1)


def basis_measurement(states: Mapping[str, Ket]) -> ProjectiveMeasurement:
    return ProjectiveMeasurement({k: projector(v) for k, v in states.items()})


MEAS_Z = basis_measurement({"0": KET_0, "1": KET_1})
MEAS_X = basis_measurement({"+": KET_PLUS, "-": KET_MINUS})
MEAS_Y = basis_measurement({"+i": KET_PLUS_I, "-i": KET_MINUS_I})
MEAS_BY_NAME = {"Z": MEAS_Z, "X": MEAS_X, "Y": MEAS_Y}

# Detector measurement at the interferometer output: d1 catches the
# upward-moving photon, d2 the downward-moving one.
MEAS_DETECTORS = basis_measurement({"d1": KET_UP, "d2": KET_DOWN})


def mz_evolve(phase_in: bool, source: str = "first_splitter") -> Ket:
    """Run the Mach-Zehnder sequence and return the final ket.

    source="first_splitter": |up> -> H -> X -> [Phi(pi) if phase_in] -> H.
    source="upper_arm": the first splitter is removed and the photon is
    emitted directly into the upper arm, so the leading H is omitted.
    """
    return _mz_run(_PHASE_PI if phase_in else None, source)


def mz_detection_probabilities(theta: float, source: str = "first_splitter"):
    """Detector probabilities (d1, d2) for an arbitrary float phase theta."""
    phase = ((cmath.exp(1j * theta), 0j), (0j, 1 + 0j))  # diag(e^{i theta}, 1)
    up, down = _mz_run(phase, source).amplitudes
    return abs(up) ** 2, abs(down) ** 2


def _mz_run(phase: tuple | None, source: str) -> Ket:
    """The gate sequence on raw amplitudes; one Ket checks the final norm."""
    if source not in ("first_splitter", "upper_arm"):
        raise QuantumError(f"unknown source {source!r}")
    amps = KET_UP.amplitudes
    if source == "first_splitter":
        amps = mat_vec(_HADAMARD, amps)
    amps = mat_vec(_PAULI_X, amps)
    if phase is not None:
        amps = mat_vec(phase, amps)
    return Ket(mat_vec(_HADAMARD, amps))


def superpose(a: Ket, b: Ket, phase: ExactComplex) -> Ket:
    """(1/sqrt2)(|a> + phase |b>) for orthogonal a, b."""
    if not _close_to(inner(a, b) * conj(inner(a, b)), Fraction(0)):
        raise QuantumError("superpose expects orthogonal states")
    return Ket(tuple(INV_SQRT2 * (x + phase * y) for x, y in zip(a.amplitudes, b.amplitudes)))


def identify_pm_state(psi: Ket) -> str | None:
    """Which of the six reference states equals psi up to a global phase."""
    for label, ref in PM_STATES.items():
        if equal_up_to_global_phase(psi, ref):
            return label
    return None


def expectation(psi: Ket, observable) -> ExactComplex | complex:
    """<psi|O|psi> for an observable given as a grid."""
    v = mat_vec(observable, psi.amplitudes)
    acc = conj(psi.amplitudes[0]) * v[0]
    for x, y in zip(psi.amplitudes[1:], v[1:]):
        acc = acc + conj(x) * y
    return acc


def spin_observable_eighth(k_eighths: int) -> tuple:
    """cos(theta) Z + sin(theta) X at theta = k*pi/4, exact entries."""
    c_table = {0: ONE, 1: INV_SQRT2, 2: ZERO, 3: -INV_SQRT2, 4: -ONE,
               5: -INV_SQRT2, 6: ZERO, 7: INV_SQRT2}
    k = k_eighths % 8
    c, s = c_table[k], c_table[(k - 2) % 8]
    return ((c, s), (s, -c))


SINGLET = Ket((ZERO, INV_SQRT2, -INV_SQRT2, ZERO))
