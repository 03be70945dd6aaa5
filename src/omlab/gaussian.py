"""Epistemically restricted Liouville mechanics at desk scale.

States of knowledge about classical phase-space points are Gaussians whose
covariance obeys the classical uncertainty constraint gamma + i*lam*Sigma
>= 0, with Sigma the block symplectic form and lam a free positive
parameter playing the role hbar plays in the quantum counterpart.
Coordinates are ordered (q1, p1, q2, p2, ...), matching the block form.

The perfectly correlated pair state is regularized by a squeezing
parameter r: the normalized difference and sum quadratures
(q_A - q_B)/sqrt2 and (p_A + p_B)/sqrt2 have variance lam*e^{-2r}, the
single-system marginals blow up as lam*cosh(2r), and the delta-correlated
limit is approached as r grows.  All states in the family sit exactly on
the uncertainty boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

VALIDITY_TOL = 1e-12


class GaussianError(ValueError):
    pass


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal form with [[0,-1],[1,0]] per (q,p) pair."""
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    return np.kron(np.eye(n_modes), block)


@dataclass(frozen=True)
class GaussianEpistemicState:
    mean: np.ndarray
    covariance: np.ndarray
    hbar_like: float = 1.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        n = mean.shape[0]
        if mean.ndim != 1 or n % 2 != 0 or n == 0:
            raise GaussianError("mean must be a vector of even positive length")
        if cov.shape != (n, n):
            raise GaussianError("covariance shape does not match the mean")
        if not np.allclose(cov, cov.T, atol=VALIDITY_TOL):
            raise GaussianError("covariance must be symmetric")
        if float(np.linalg.eigvalsh(cov).min()) <= 0.0:
            raise GaussianError("covariance must be positive definite")
        if self.hbar_like <= 0:
            raise GaussianError("the uncertainty parameter must be positive")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def n_modes(self) -> int:
        return self.dim // 2

    def density(self, points: np.ndarray) -> np.ndarray:
        """Gaussian density evaluated at an array of phase-space points."""
        pts = np.atleast_2d(points) - self.mean
        inv = np.linalg.inv(self.covariance)
        norm = (2 * math.pi) ** (self.dim / 2) * math.sqrt(np.linalg.det(self.covariance))
        expo = -0.5 * np.einsum("ij,jk,ik->i", pts, inv, pts)
        return np.exp(expo) / norm

    def to_json(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "covariance": self.covariance.tolist(),
            "hbar_analogue": self.hbar_like,
        }


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    min_eigenvalue: float


def validity_check(state: GaussianEpistemicState) -> ValidityResult:
    """Spectrum test of the Hermitian matrix gamma + i*lam*Sigma.

    The zero threshold scales with the spectral norm: boundary states at
    large squeezing otherwise trip on machine-epsilon noise.
    """
    sigma = symplectic_form(state.n_modes)
    h = state.covariance.astype(complex) + 1j * state.hbar_like * sigma
    eig = np.linalg.eigvalsh(h)
    mn = float(eig.min().real)
    tol = VALIDITY_TOL * max(1.0, float(np.abs(eig).max()))
    return ValidityResult(mn >= -tol, mn)


def entropy(state: GaussianEpistemicState) -> float:
    """Differential entropy, closed form 0.5*ln((2 pi e)^N det gamma)."""
    sign, logdet = np.linalg.slogdet(state.covariance)
    if sign <= 0:
        raise GaussianError("covariance is singular or indefinite")
    n = state.dim
    return 0.5 * (n * math.log(2 * math.pi * math.e) + logdet)


def entropy_by_quadrature(state: GaussianEpistemicState,
                          half_width_sigmas: float = 10.0,
                          points: int = 1201) -> float:
    """Independent oracle: -integral(mu ln mu) on a trapezoid grid, N=2 only."""
    if state.dim != 2:
        raise GaussianError("quadrature oracle is implemented for N=2 only")
    sds = np.sqrt(np.diag(state.covariance))
    xs = np.linspace(state.mean[0] - half_width_sigmas * sds[0],
                     state.mean[0] + half_width_sigmas * sds[0], points)
    ys = np.linspace(state.mean[1] - half_width_sigmas * sds[1],
                     state.mean[1] + half_width_sigmas * sds[1], points)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    mu = state.density(pts).reshape(points, points)
    integrand = np.where(mu > 0, -mu * np.log(np.where(mu > 0, mu, 1.0)), 0.0)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(trapezoid(integrand, ys, axis=1), xs))


def coherent_boundary(hbar_like: float = 1.0, n_modes: int = 1) -> GaussianEpistemicState:
    """gamma = lam * identity: the minimal-uncertainty round state."""
    n = 2 * n_modes
    return GaussianEpistemicState(np.zeros(n), hbar_like * np.eye(n), hbar_like)


def epr_correlated(squeeze_r: float, hbar_like: float = 1.0) -> GaussianEpistemicState:
    """Two-system state with matched positions and opposite momenta.

    Var((q_A-q_B)/sqrt2) = Var((p_A+p_B)/sqrt2) = lam*e^{-2r}; marginal
    variances are lam*cosh(2r); r -> 0 decouples into two boundary states
    and r -> infinity approaches the delta-correlated pair.
    """
    if squeeze_r < 0:
        raise GaussianError("squeezing must be nonnegative")
    lam = float(hbar_like)
    c, s = math.cosh(2 * squeeze_r), math.sinh(2 * squeeze_r)
    cov = lam * np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])
    state = GaussianEpistemicState(np.zeros(4), cov, lam)
    check = validity_check(state)
    if not check.valid:  # pragma: no cover - boundary family is valid for all r
        raise GaussianError(f"correlated state failed validity: {check.min_eigenvalue}")
    return state


def epr_quadrature_variances(state: GaussianEpistemicState) -> dict:
    """Variances of the normalized joint quadratures of a two-system state."""
    if state.dim != 4:
        raise GaussianError("joint quadratures need a two-system state")
    d = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2)   # (q_A - q_B)/sqrt2
    s = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2)    # (p_A + p_B)/sqrt2
    g = state.covariance
    return {"var_q_diff": float(d @ g @ d), "var_p_sum": float(s @ g @ s)}


def marginalize(state: GaussianEpistemicState, keep) -> GaussianEpistemicState:
    """Restrict to a subset of coordinates that respects (q, p) pairing."""
    idx = sorted(int(i) for i in keep)
    if not idx:
        raise GaussianError("keep must be nonempty")
    if len(idx) >= state.dim:
        raise GaussianError("keep must be a proper subset")
    if len(set(idx)) != len(idx) or not all(0 <= i < state.dim for i in idx):
        raise GaussianError("keep contains invalid coordinate indices")
    pairs = {i // 2 for i in idx}
    if sorted(j for m in pairs for j in (2 * m, 2 * m + 1)) != idx:
        raise GaussianError("keep breaks a (q, p) quadrature pair")
    sub = np.ix_(idx, idx)
    return GaussianEpistemicState(state.mean[idx], state.covariance[sub], state.hbar_like)


def marginal_mode(state: GaussianEpistemicState, mode: int) -> GaussianEpistemicState:
    return marginalize(state, (2 * mode, 2 * mode + 1))


def condition_on_coordinate(state: GaussianEpistemicState, index: int,
                            value: float) -> tuple:
    """Gaussian conditioning on one observed coordinate.

    Returns raw (mean, covariance) over the remaining coordinates; the
    result is one coordinate short of a phase-space state, so callers pick
    out the (q, p) blocks they need.
    """
    n = state.dim
    if not 0 <= index < n:
        raise GaussianError("conditioning index out of range")
    rest = [i for i in range(n) if i != index]
    g = state.covariance
    var = g[index, index]
    if var <= 0:
        raise GaussianError("conditioning block is singular")
    k = g[np.ix_(rest, [index])] / var
    mean = state.mean[rest] + (k * (value - state.mean[index])).ravel()
    cov = g[np.ix_(rest, rest)] - k @ g[np.ix_([index], rest)]
    return mean, cov


@dataclass(frozen=True)
class EprInferenceResult:
    bob: GaussianEpistemicState
    bob_validity: ValidityResult
    note: str = field(default=(
        "posterior validity is checked for the distant system only; the "
        "post-measurement joint state is not re-validated"))


def epr_inference(state: GaussianEpistemicState, alice_measures: str,
                  alice_value: float) -> EprInferenceResult:
    """Update the distant system after an ideal quadrature reading.

    ``alice_measures`` is "q" or "p"; conditioning is plain Bayes on the
    measured coordinate, and the remote posterior is marginalized onto the
    second system and validity-checked.
    """
    if state.dim != 4:
        raise GaussianError("inference needs a two-system state")
    index = {"q": 0, "p": 1}.get(alice_measures)
    if index is None:
        raise GaussianError("alice_measures must be 'q' or 'p'")
    mean, cov = condition_on_coordinate(state, index, alice_value)
    # remaining coordinates: [p_A or q_A, q_B, p_B]; Bob occupies the tail
    bob = GaussianEpistemicState(mean[1:], cov[1:, 1:], state.hbar_like)
    return EprInferenceResult(bob, validity_check(bob))
