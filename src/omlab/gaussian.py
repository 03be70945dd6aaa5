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
the uncertainty boundary.  The family keeps its normal modes (variances
lam*e^{-2r}, lam*e^{2r}) as a factored form, exact where the covariance's
smallest eigenvalue and Schur complements fall below float64 rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reports import row

VALIDITY_TOL = 1e-12


class GaussianError(ValueError):
    pass


def _check_uncertainty_parameter(hbar_like: float) -> None:
    """Reject lam outside LAMBDA_RANGE, nan and inf included, before any
    arithmetic: at nan or inf a product with it makes nan."""
    if not LAMBDA_RANGE[0] <= hbar_like <= LAMBDA_RANGE[1]:
        raise GaussianError("the uncertainty parameter must lie in [%g, %g]" % LAMBDA_RANGE)


# Both Gaussian verbs pass throughout both ranges, save where lambda*sinh(2r)
# underflows (r = 1e-24 at lambda = 1e-300 gives a posterior mean of 0); past
# them floats under- or overflow.  The first squeeze to fail is 13.753, at
# lambda = 1e-300.
LAMBDA_RANGE = (1e-300, 1e280)
SQUEEZE_RANGE = (0.0, 13.0)


def check_squeeze(squeeze_r: float) -> None:
    """Reject a squeeze outside SQUEEZE_RANGE, nan and inf included.
    ``epr_correlated`` takes any r >= 0: away from the ends of LAMBDA_RANGE
    it is accurate further out (to r = 20 at lambda 0.25-4)."""
    if not SQUEEZE_RANGE[0] <= squeeze_r <= SQUEEZE_RANGE[1]:
        raise GaussianError("squeezing must lie in [%g, %g]" % SQUEEZE_RANGE)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal form with [[0,-1],[1,0]] per (q,p) pair."""
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    return np.kron(np.eye(n_modes), block)


@dataclass(frozen=True)
class GaussianEpistemicState:
    """``modes`` is the factored form, arrays (variances, basis) with the
    normal modes as the basis columns: covariance = basis @ diag(variances)
    @ basis.T.  Worked out from the covariance unless given, it gives the
    positivity, validity, entropy, quadrature variances and conditioned
    covariances, where large terms would cancel in the covariance."""

    mean: np.ndarray
    covariance: np.ndarray
    hbar_like: float = 1.0
    modes: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_uncertainty_parameter(self.hbar_like)
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
        variances, basis = np.linalg.eigh(cov) if self.modes is None else self.modes
        if np.abs((basis * variances) @ basis.T - cov).max() > VALIDITY_TOL * np.abs(cov).max():
            raise GaussianError("normal modes do not factor the covariance")
        if float(variances.min()) <= 0.0:
            raise GaussianError("covariance must be positive definite")
        object.__setattr__(self, "modes", (variances, basis))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def n_modes(self) -> int:
        return self.dim // 2

    def to_json(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "covariance": self.covariance.tolist(),
            "hbar_analogue": self.hbar_like,
        }


@dataclass(frozen=True)
class ValidityResult:
    """Whether a state satisfies the uncertainty principle, and the least
    eigenvalue of gamma + i*lam*Sigma."""

    valid: bool
    min_eigenvalue: float


def validity_check(state: GaussianEpistemicState) -> ValidityResult:
    """Williamson test: gamma + i*lam*Sigma >= 0 iff no symplectic eigenvalue
    of gamma, a modulus of an eigenvalue of i*D B^T Sigma B D with D the root
    mode variances, is below lam; relative to lam at any squeezing.
    ``min_eigenvalue`` is that of gamma + i*lam*Sigma, as float64 has it."""
    variances, basis = state.modes
    sigma = symplectic_form(state.n_modes)
    # B^T Sigma B with each product rounded before the sum, so zeros stay 0
    coupling = (basis[:, :, None] * (sigma @ basis)[:, None, :]).sum(axis=0)
    root = np.sqrt(variances)
    nu = np.abs(np.linalg.eigvalsh(1j * root[:, None] * coupling * root)).min()
    h = state.covariance.astype(complex) + 1j * state.hbar_like * sigma
    mn = float(np.linalg.eigvalsh(h).min().real)
    return ValidityResult(bool(nu >= state.hbar_like * (1 - VALIDITY_TOL)), mn)


def entropy(state: GaussianEpistemicState) -> float:
    """Differential entropy, closed form 0.5*ln((2 pi e)^N det gamma), with
    ln det gamma the sum of the logs of the normal-mode variances."""
    n = state.dim
    return 0.5 * (n * math.log(2 * math.pi * math.e) + float(np.sum(np.log(state.modes[0]))))


def entropy_by_quadrature(state: GaussianEpistemicState) -> float:
    """Independent oracle, N=2 only: -integral(mu ln mu) by nested trapezoids
    over 201 x 201 offsets spanning +-10 standard deviations per axis.
    With [[a, b], [b, c]] = gamma^-1, -ln mu = (a dx^2 + 2b dx dy + c dy^2)/2
    + ln(2 pi sqrt(det gamma)), so the integrand mu ln(1/mu) takes one exp.
    Only the covariance is read, not the normal modes.  On a Gaussian the
    trapezoid errs by about 2 exp(-2 pi^2 (s/h)^2), h the step (sd/10) and s the
    narrowest conditional sd, sd sqrt(1 - rho^2): 2e-17 at |rho| = 0.99, 0 on
    round states.  The tails past +-10 sd hold erfc(10/sqrt2) = 1.5e-23."""
    if state.dim != 2:
        raise GaussianError("quadrature oracle is implemented for N=2 only")
    gamma = state.covariance
    dx, dy = (np.linspace(-10.0 * sd, 10.0 * sd, 201) for sd in np.sqrt(np.diag(gamma)))
    (a, b), (_, c) = np.linalg.inv(gamma)
    x = dx[:, None]
    # ln det gamma from slogdet: det itself goes subnormal near lam = 1e-160
    neg_log_mu = (0.5 * (a * x * x + 2 * b * x * dy + c * dy * dy)
                  + math.log(2 * math.pi) + 0.5 * np.linalg.slogdet(gamma)[1])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(trapezoid(np.exp(-neg_log_mu) * neg_log_mu, dy, axis=1), dx))


def coherent_boundary(hbar_like: float = 1.0) -> GaussianEpistemicState:
    """gamma = lam * identity: the minimal-uncertainty round state."""
    _check_uncertainty_parameter(hbar_like)
    return GaussianEpistemicState(np.zeros(2), hbar_like * np.eye(2), hbar_like)


def epr_correlated(squeeze_r: float, hbar_like: float = 1.0) -> GaussianEpistemicState:
    """Two-system state with matched positions and opposite momenta.

    Var((q_A-q_B)/sqrt2) = Var((p_A+p_B)/sqrt2) = lam*e^{-2r}; marginal
    variances are lam*cosh(2r); r -> 0 decouples into two boundary states
    and r -> infinity approaches the delta-correlated pair.  The state
    carries these normal modes and their sum-quadrature partners, with
    variance lam*e^{2r}, as its factored form.
    """
    if squeeze_r < 0:
        raise GaussianError("squeezing must be nonnegative")
    _check_uncertainty_parameter(hbar_like)
    lam = float(hbar_like)
    c, s = math.cosh(2 * squeeze_r), math.sinh(2 * squeeze_r)
    cov = lam * np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])
    h = math.sqrt(0.5)
    # columns: (q_A-q_B, p_A+p_B, q_A+q_B, p_A-p_B)/sqrt2 over (q_A, p_A, q_B, p_B)
    basis = np.array([[h, 0.0, h, 0.0], [0.0, h, 0.0, h], [-h, 0.0, h, 0.0], [0.0, h, 0.0, -h]])
    squeezed, stretched = lam * math.exp(-2 * squeeze_r), lam * math.exp(2 * squeeze_r)
    variances = np.array([squeezed, squeezed, stretched, stretched])
    state = GaussianEpistemicState(np.zeros(4), cov, lam, (variances, basis))
    check = validity_check(state)
    if not check.valid:
        raise GaussianError(f"correlated state failed validity: {check.min_eigenvalue}")
    return state


def epr_quadrature_variances(state: GaussianEpistemicState) -> dict:
    """Variances of the normalized joint quadratures of a two-system state."""
    if state.dim != 4:
        raise GaussianError("joint quadratures need a two-system state")
    d = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2)   # (q_A - q_B)/sqrt2
    s = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2)    # (p_A + p_B)/sqrt2
    variances, basis = state.modes
    # sum_j v_j (b_j . u)^2, each product rounded before the sum (no fused
    # multiply-add), so a mode orthogonal to u projects to exactly 0
    return {name: float(np.sum(variances * (basis * u[:, None]).sum(axis=0) ** 2))
            for name, u in (("var_q_diff", d), ("var_p_sum", s))}


def marginal_mode(state: GaussianEpistemicState, mode: int) -> GaussianEpistemicState:
    """The (q, p) marginal of one mode: coordinates 2*mode and 2*mode + 1."""
    if not 0 <= mode < state.n_modes:
        raise GaussianError(f"mode {mode} is outside 0..{state.n_modes - 1}")
    pair = [2 * mode, 2 * mode + 1]
    return GaussianEpistemicState(state.mean[pair], state.covariance[np.ix_(pair, pair)],
                                  state.hbar_like)


def condition_on_coordinate(state: GaussianEpistemicState, index: int,
                            value: float) -> tuple:
    """Gaussian conditioning on one observed coordinate.

    Returns raw (mean, covariance) over the remaining coordinates; the
    result is one coordinate short of a phase-space state, so callers pick
    out the (q, p) blocks they need.  The covariance, the Schur complement
    g_rr - g_ri g_ir / g_ii, is summed over pairs of normal modes in
    Lagrange's form sum_jk v_j v_k w_jk w_jk^T / (2 g_ii), with
    w_jk = b_ij b_rk - b_ik b_rj, so no large terms cancel.  The variances
    and g_ii enter divided by s = 2^round(log2 lambda), and the sum is
    multiplied by s: a power of two scales exactly, and keeps the products
    v_j v_k from underflowing when lambda is tiny.
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
    variances, basis = state.modes
    b_i, b_r = basis[index], basis[rest]
    w = np.einsum("j,rk->jkr", b_i, b_r) - np.einsum("k,rj->jkr", b_i, b_r)
    s = 2.0 ** round(math.log2(state.hbar_like))
    v = variances / s
    cov = s * np.einsum("j,k,jka,jkb->ab", v, v, w, w) / (2 * (var / s))
    return mean, cov


@dataclass(frozen=True)
class EprInferenceResult:
    """The distant system's posterior after the reading and its validity."""

    bob: GaussianEpistemicState
    bob_validity: ValidityResult


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
    if not math.isfinite(alice_value):
        raise GaussianError("alice_value must be finite")
    mean, cov = condition_on_coordinate(state, index, alice_value)
    # remaining coordinates: [p_A or q_A, q_B, p_B]; Bob occupies the tail
    bob = GaussianEpistemicState(mean[1:], cov[1:, 1:], state.hbar_like)
    return EprInferenceResult(bob, validity_check(bob))


# --------------------------------------------------------------------------
# report rows: gaussian suite and gaussian epr

def _conditioning_oracle(state, index: int, value: float):
    """Precision-matrix route, independent of the module's Schur route."""
    prec = np.linalg.inv(state.covariance)
    rest = [i for i in range(state.dim) if i != index]
    prec_rr = prec[np.ix_(rest, rest)]
    prec_ri = prec[np.ix_(rest, [index])]
    cov = np.linalg.inv(prec_rr)
    mean = state.mean[rest] - (cov @ prec_ri).ravel() * (value - state.mean[index])
    return mean, cov


def gaussian_suite_checks(hbar_like: float) -> list:
    checks = []
    boundary = coherent_boundary(hbar_like)
    v = validity_check(boundary)
    checks.append(row("gaussian boundary min eigenvalue", "0",
                      f"{v.min_eigenvalue:.3e}", "DERIVED",
                      passed=abs(v.min_eigenvalue) <= 1e-12 * hbar_like))
    tight = GaussianEpistemicState(np.zeros(2), (hbar_like / 10) * np.eye(2), hbar_like)
    checks.append(row("gaussian over-tight state invalid", False,
                      validity_check(tight).valid, "DERIVED"))
    ent = entropy(boundary)
    quad = entropy_by_quadrature(boundary)
    checks.append(row("gaussian entropy closed form vs quadrature",
                      f"{ent:.9f}", f"{quad:.9f}", "DERIVED",
                      passed=abs(ent - quad) <= 1e-6))
    epr = epr_correlated(3.0, hbar_like)
    epr_min = validity_check(epr).min_eigenvalue
    checks.append(row("gaussian EPR r=3 on the uncertainty boundary", "0",
                      f"{epr_min:.3e}", "DERIVED",
                      passed=abs(epr_min) <= 1e-12 * hbar_like))
    var = epr_quadrature_variances(epr)
    want = hbar_like * math.exp(-6)
    checks.append(row("gaussian EPR var of difference quadrature", want, var["var_q_diff"],
                      "DERIVED", passed=abs(var["var_q_diff"] - want) <= 1e-9 * hbar_like))
    res = epr_inference(epr, "q", 1.0)
    mean_o, cov_o = _conditioning_oracle(epr, 0, 1.0)
    delta = abs(res.bob.mean[0] - mean_o[1])
    checks.append(row("gaussian conditioning vs precision-matrix oracle",
                      "<= 1e-6", f"{delta:.3e}", "DERIVED",
                      passed=delta <= 1e-6 and np.allclose(
                          res.bob.covariance, cov_o[1:, 1:], atol=1e-9 * hbar_like)))
    checks.append(row("gaussian Bob posterior validity", True,
                      res.bob_validity.valid, "DERIVED"))
    marg = marginal_mode(epr, 0)
    checks.append(row("gaussian EPR marginal variance grows", True,
                      bool(marg.covariance[0, 0] >= hbar_like * math.cosh(6) * (1 - 1e-9)),
                      "DERIVED"))
    return checks


def gaussian_epr_checks(squeeze: float, hbar_like: float, measure: str,
                        value: float) -> list:
    check_squeeze(squeeze)
    epr = epr_correlated(squeeze, hbar_like)
    res = epr_inference(epr, measure, value)
    sign = 1.0 if measure == "q" else -1.0
    want = sign * math.tanh(2 * squeeze) * value
    got = res.bob.mean[0] if measure == "q" else res.bob.mean[1]
    return [
        row(f"gaussian epr posterior mean ({measure}={value})",
            f"{want:.9g}", f"{got:.9g}", "DERIVED",
            passed=abs(got - want) <= 1e-9 * max(1.0, abs(want)), detail=res.bob.to_json()),
        row("gaussian epr posterior validity", True, res.bob_validity.valid, "DERIVED"),
    ]
