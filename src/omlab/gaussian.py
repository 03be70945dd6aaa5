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

Vectors and matrices are tuples of floats, at most 4 x 4: a one-mode state
or the two-mode family.  Every quantity comes in closed form from 2 x 2
blocks, so the module needs no linear-algebra library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .reports import row

VALIDITY_TOL = 1e-12


class GaussianError(ValueError):
    pass


def _check_uncertainty_parameter(hbar_like: float) -> None:
    """Reject lam outside LAMBDA_RANGE, nan and inf included, before any
    arithmetic: at nan or inf a product with it makes nan."""
    if not LAMBDA_RANGE[0] <= hbar_like <= LAMBDA_RANGE[1]:
        raise GaussianError("the uncertainty parameter must lie in [%g, %g]" % LAMBDA_RANGE)


# Both Gaussian verbs pass throughout both ranges; past them floats under- or
# overflow.  The first squeeze to fail is 13.717, at lambda = 1e-300, where
# lambda*e^{-2r} is subnormal and the pair's own validity check fails.
LAMBDA_RANGE = (1e-300, 1e280)
SQUEEZE_RANGE = (0.0, 13.0)


def check_squeeze(squeeze_r: float) -> None:
    """Reject a squeeze outside SQUEEZE_RANGE, nan and inf included.
    ``epr_correlated`` takes any r >= 0: away from the ends of LAMBDA_RANGE
    it is accurate further out (to r = 20 at lambda 0.25-4)."""
    if not SQUEEZE_RANGE[0] <= squeeze_r <= SQUEEZE_RANGE[1]:
        raise GaussianError("squeezing must lie in [%g, %g]" % SQUEEZE_RANGE)


def _unit(hbar_like: float) -> float:
    """s = 2^round(log2 lam): a power of two, so a quantity divides by it
    and multiplies back exactly, and lam-sized quantities in units of s lie
    near 1, far from under- and overflow."""
    return 2.0 ** round(math.log2(hbar_like))


def _matrix(rows) -> tuple:
    return tuple(tuple(map(float, r)) for r in rows)


def _allclose(a, b, atol: float) -> bool:
    """numpy.allclose on two matrices: |x - y| <= atol + 1e-5 |y| entrywise."""
    return all(abs(x - y) <= atol + 1e-5 * abs(y)
               for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _rotation(gamma) -> tuple:
    """(variances, basis) of a 2 x 2 covariance [[a, b], [b, c]] from the one
    Jacobi rotation that zeroes b (Golub and Van Loan's symmetric Schur
    decomposition): t = tan(theta) is the smaller root of t^2 + 2 tau t = 1,
    tau = (c - a)/2b, and the variances are a - t b and c + t b."""
    (a, b), (_, c) = gamma
    if b == 0:
        return (a, c), ((1.0, 0.0), (0.0, 1.0))
    tau = (c - a) / (2 * b)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    cos = 1 / math.hypot(1.0, t)
    sin = t * cos
    return (a - t * b, c + t * b), ((cos, sin), (-sin, cos))


@dataclass(frozen=True)
class GaussianEpistemicState:
    """Mean and covariance as tuples of floats, read from any array-like.

    ``modes`` is the factored form, (variances, basis) with the normal modes
    as the basis columns: covariance[a][b] = sum_j basis[a][j] variances[j]
    basis[b][j].  One 2 x 2 rotation works it out for one mode; a state of
    more modes must be given it.  It gives the positivity, validity,
    entropy, quadrature variances and conditioned covariances, where large
    terms would cancel in the covariance.  ``scaled`` is the covariance in
    units of s = 2^round(log2 lam), worked out from the covariance unless
    given: it keeps entries that underflow in the covariance itself, such
    as lam*sinh(2r) at a tiny squeeze and lam."""

    mean: tuple
    covariance: tuple
    hbar_like: float = 1.0
    modes: tuple | None = field(default=None, repr=False, compare=False)
    scaled: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_uncertainty_parameter(self.hbar_like)
        try:
            mean, cov = tuple(map(float, self.mean)), _matrix(self.covariance)
        except TypeError:
            raise GaussianError("mean must be a vector and covariance a matrix") from None
        n = len(mean)
        if n % 2 != 0 or n == 0:
            raise GaussianError("mean must be a vector of even positive length")
        if len(cov) != n or any(len(r) != n for r in cov):
            raise GaussianError("covariance shape does not match the mean")
        if not _allclose(cov, tuple(zip(*cov)), VALIDITY_TOL):
            raise GaussianError("covariance must be symmetric")
        if self.modes is not None:
            variances, basis = tuple(map(float, self.modes[0])), _matrix(self.modes[1])
        elif n == 2:
            variances, basis = _rotation(cov)
        else:
            raise GaussianError("a state of more than one mode needs its normal modes")
        top = max(abs(x) for r in cov for x in r)
        if any(abs(sum(basis[a][j] * variances[j] * basis[b][j] for j in range(n)) - cov[a][b])
               > VALIDITY_TOL * top for a in range(n) for b in range(n)):
            raise GaussianError("normal modes do not factor the covariance")
        if min(variances) <= 0.0:
            raise GaussianError("covariance must be positive definite")
        s = _unit(self.hbar_like)
        scaled = self.scaled
        if scaled is None:
            scaled = tuple(tuple(x / s for x in r) for r in cov)
        elif any(s * x != y for rx, ry in zip(scaled, cov) for x, y in zip(rx, ry)):
            raise GaussianError("the scaled covariance does not scale to the covariance")
        for name, value in (("mean", mean), ("covariance", cov),
                            ("modes", (variances, basis)), ("scaled", scaled)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def n_modes(self) -> int:
        return self.dim // 2

    def to_json(self) -> dict:
        return {
            "mean": list(self.mean),
            "covariance": [list(r) for r in self.covariance],
            "hbar_analogue": self.hbar_like,
        }


@dataclass(frozen=True)
class ValidityResult:
    """Whether a state satisfies the uncertainty principle, and the least
    eigenvalue of gamma + i*lam*Sigma."""

    valid: bool
    min_eigenvalue: float


def _geometric_mean(x: float, y: float) -> float:
    """sqrt(x*y) with no under- or overflow in the product, and exact when
    x == y: the mantissas multiply, the exponents add."""
    (mx, ex), (my, ey) = math.frexp(x), math.frexp(y)
    e = ex + ey
    return math.ldexp(math.sqrt(math.ldexp(mx * my, e % 2)), e // 2)


def _mode_pairs(state: GaussianEpistemicState) -> list:
    """(v_j, v_k, |c|) for each pair of normal modes that Sigma couples, with
    c = (B^T Sigma B)_jk, B the basis, each product rounded before the sum
    so that an uncoupled pair's c is exactly 0.  One mode is one pair; in
    the two-mode family d pairs with w and s with u."""
    variances, basis = state.modes

    def coupling(j: int, k: int) -> float:
        return sum(basis[2 * m + 1][j] * basis[2 * m][k] - basis[2 * m][j] * basis[2 * m + 1][k]
                   for m in range(state.n_modes))

    pairs = []
    for j in range(state.dim):
        partners = [k for k in range(state.dim) if k != j and coupling(j, k)]
        if len(partners) != 1:
            raise GaussianError("validity needs normal modes that Sigma pairs")
        if j < partners[0]:
            k = partners[0]
            pairs.append((variances[j], variances[k], abs(coupling(j, k))))
    return pairs


def validity_check(state: GaussianEpistemicState) -> ValidityResult:
    """Williamson test on the normal modes.  In the mode basis, gamma +
    i*lam*Sigma splits into one 2 x 2 block [[v_j, i lam c], [-i lam c, v_k]]
    per pair of modes that Sigma couples.  The pair's symplectic eigenvalue
    is nu = |c| g, with g = sqrt(v_j v_k), and gamma + i*lam*Sigma >= 0 iff
    no nu is below lam; relative to lam at any squeezing.  The block's
    least eigenvalue is (g^2 - (lam c)^2)/(m + h), m the mean of v_j and
    v_k and h = hypot((v_j - v_k)/2, lam c), with g^2 - (lam c)^2 taken as
    (g - lam|c|)(g + lam|c|) so that nothing but the difference cancels.
    ``min_eigenvalue`` is the least over the blocks."""
    lam = state.hbar_like
    nu = least = math.inf
    for vj, vk, c in _mode_pairs(state):
        g, bound = _geometric_mean(vj, vk), lam * c
        nu = min(nu, c * g)
        least = min(least, (g - bound) * ((g + bound)
                                          / ((vj + vk) / 2 + math.hypot((vj - vk) / 2, bound))))
    return ValidityResult(nu >= lam * (1 - VALIDITY_TOL), least)


def entropy(state: GaussianEpistemicState) -> float:
    """Differential entropy, closed form 0.5*ln((2 pi e)^N det gamma), with
    ln det gamma the sum of the logs of the normal-mode variances."""
    n = state.dim
    return 0.5 * (n * math.log(2 * math.pi * math.e) + sum(map(math.log, state.modes[0])))


# 41 offsets from -10 to 10 standard deviations, half an sd apart
_QUADRATURE_OFFSETS = tuple(k / 2 for k in range(-20, 21))


def entropy_by_quadrature(state: GaussianEpistemicState) -> float:
    """Independent oracle, N=2 only: -integral(mu ln mu) by nested trapezoids
    over 41 x 41 points spanning +-10 standard deviations.  Only the
    covariance [[g00, g01], [g01, g11]] is read, not the normal modes.  x
    runs over +-10 sd(x); at each x, y runs over +-10 conditional sds about
    its conditional mean, the grid sheared along the density's axis: mean
    (g01/g00) x, variance v = g11 - g01^2/g00.  The density is evaluated at
    each (x, y) in full, -ln mu = (a x^2 + 2b xy + c y^2)/2 + ln 2 pi +
    (ln g00 + ln v)/2 with [[a, b], [b, c]] = gamma^-1.  On a Gaussian the
    trapezoid errs by about 2 exp(-2 pi^2 (sd/h)^2) per axis, h the step,
    here sd/2: 2e-34.  The tails past +-10 sd hold erfc(10/sqrt2) = 1.5e-23."""
    if state.dim != 2:
        raise GaussianError("quadrature oracle is implemented for N=2 only")
    (g00, g01), (_, g11) = state.covariance
    slope = g01 / g00
    v = g11 - g01 * slope
    c = 1 / v
    b = -slope * c
    a = 1 / g00 + slope * slope * c
    log_norm = math.log(2 * math.pi) + 0.5 * (math.log(g00) + math.log(v))
    sd_x, sd_y = math.sqrt(g00), math.sqrt(v)

    def trapezoid(values: list, step: float) -> float:
        return step * (sum(values) - (values[0] + values[-1]) / 2)

    columns = []
    for tx in _QUADRATURE_OFFSETS:
        x = tx * sd_x
        column = []
        for ty in _QUADRATURE_OFFSETS:
            y = slope * x + ty * sd_y
            neg_log_mu = 0.5 * (a * x * x + 2 * b * x * y + c * y * y) + log_norm
            column.append(math.exp(-neg_log_mu) * neg_log_mu)
        columns.append(trapezoid(column, sd_y / 2))
    return trapezoid(columns, sd_x / 2)


def coherent_boundary(hbar_like: float = 1.0) -> GaussianEpistemicState:
    """gamma = lam * identity: the minimal-uncertainty round state."""
    _check_uncertainty_parameter(hbar_like)
    return GaussianEpistemicState((0.0, 0.0), ((hbar_like, 0.0), (0.0, hbar_like)), hbar_like)


def epr_correlated(squeeze_r: float, hbar_like: float = 1.0) -> GaussianEpistemicState:
    """Two-system state with matched positions and opposite momenta.

    Var((q_A-q_B)/sqrt2) = Var((p_A+p_B)/sqrt2) = lam*e^{-2r}; marginal
    variances are lam*cosh(2r); r -> 0 decouples into two boundary states
    and r -> infinity approaches the delta-correlated pair.  The state
    carries these normal modes and their sum-quadrature partners, with
    variance lam*e^{2r}, as its factored form, and its covariance in units
    of s (``scaled``), where lam*sinh(2r) stays normal when it underflows.
    """
    if squeeze_r < 0:
        raise GaussianError("squeezing must be nonnegative")
    _check_uncertainty_parameter(hbar_like)
    lam = float(hbar_like)
    s = _unit(lam)
    c, sh = (lam / s) * math.cosh(2 * squeeze_r), (lam / s) * math.sinh(2 * squeeze_r)
    scaled = ((c, 0.0, sh, 0.0), (0.0, c, 0.0, -sh), (sh, 0.0, c, 0.0), (0.0, -sh, 0.0, c))
    h = math.sqrt(0.5)
    # columns: (q_A-q_B, p_A+p_B, q_A+q_B, p_A-p_B)/sqrt2 over (q_A, p_A, q_B, p_B)
    basis = ((h, 0.0, h, 0.0), (0.0, h, 0.0, h), (-h, 0.0, h, 0.0), (0.0, h, 0.0, -h))
    squeezed, stretched = lam * math.exp(-2 * squeeze_r), lam * math.exp(2 * squeeze_r)
    state = GaussianEpistemicState((0.0,) * 4, tuple(tuple(s * x for x in r) for r in scaled),
                                   lam, ((squeezed, squeezed, stretched, stretched), basis),
                                   scaled)
    check = validity_check(state)
    if not check.valid:
        raise GaussianError(f"correlated state failed validity: {check.min_eigenvalue}")
    return state


def epr_quadrature_variances(state: GaussianEpistemicState) -> dict:
    """Variances of the normalized joint quadratures of a two-system state."""
    if state.dim != 4:
        raise GaussianError("joint quadratures need a two-system state")
    h = 1 / math.sqrt(2)
    d = (h, 0.0, -h, 0.0)   # (q_A - q_B)/sqrt2
    s = (0.0, h, 0.0, h)    # (p_A + p_B)/sqrt2
    variances, basis = state.modes
    # sum_j v_j (b_j . u)^2, each product rounded before the sum (no fused
    # multiply-add), so a mode orthogonal to u projects to exactly 0
    return {name: sum(v * sum(b[j] * x for b, x in zip(basis, u)) ** 2
                      for j, v in enumerate(variances))
            for name, u in (("var_q_diff", d), ("var_p_sum", s))}


def marginal_mode(state: GaussianEpistemicState, mode: int) -> GaussianEpistemicState:
    """The (q, p) marginal of one mode: coordinates 2*mode and 2*mode + 1."""
    if not 0 <= mode < state.n_modes:
        raise GaussianError(f"mode {mode} is outside 0..{state.n_modes - 1}")
    pair = slice(2 * mode, 2 * mode + 2)
    return GaussianEpistemicState(state.mean[pair],
                                  tuple(r[pair] for r in state.covariance[pair]), state.hbar_like)


def condition_on_coordinate(state: GaussianEpistemicState, index: int,
                            value: float) -> tuple:
    """Gaussian conditioning on one observed coordinate.

    Returns raw (mean, covariance) over the remaining coordinates; the
    result is one coordinate short of a phase-space state, so callers pick
    out the (q, p) blocks they need.  The gain g_ri / g_ii is read from the
    covariance in units of s = 2^round(log2 lambda), so it stays exact
    where lambda*g_ri underflows.  The covariance, the Schur complement
    g_rr - g_ri g_ir / g_ii, is summed over pairs of normal modes in
    Lagrange's form sum_{j<k} v_j v_k w_jk w_jk^T / g_ii, with
    w_jk = b_ij b_rk - b_ik b_rj, so no large terms cancel.  The variances
    and g_ii enter divided by s, and the sum is multiplied by s: a power of
    two scales exactly, and keeps the products v_j v_k from underflowing
    when lambda is tiny.
    """
    n = state.dim
    if not 0 <= index < n:
        raise GaussianError("conditioning index out of range")
    rest = [r for r in range(n) if r != index]
    scaled = state.scaled
    g_ii = scaled[index][index]
    shift = value - state.mean[index]
    mean = tuple(state.mean[r] + scaled[r][index] / g_ii * shift for r in rest)
    s = _unit(state.hbar_like)
    variances, basis = state.modes
    v = [x / s for x in variances]
    b_i = basis[index]
    terms = [(v[j] * v[k], [b_i[j] * basis[r][k] - b_i[k] * basis[r][j] for r in rest])
             for j, k in combinations(range(n), 2)]
    m = len(rest)
    cov = [[0.0] * m for _ in rest]
    for a in range(m):
        for b in range(a, m):
            cov[a][b] = cov[b][a] = s * sum(vv * w[a] * w[b] for vv, w in terms) / g_ii
    return mean, tuple(map(tuple, cov))


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
    bob = GaussianEpistemicState(mean[1:], tuple(r[1:] for r in cov[1:]), state.hbar_like)
    return EprInferenceResult(bob, validity_check(bob))


# --------------------------------------------------------------------------
# report rows: gaussian suite and gaussian epr

def _inverse(matrix) -> list:
    """Gauss-Jordan elimination with partial pivoting."""
    n = len(matrix)
    rows = [list(r) + [float(i == j) for j in range(n)] for i, r in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def _conditioning_oracle(state, index: int, value: float):
    """Precision-matrix route, independent of the module's Schur route."""
    prec = _inverse(state.covariance)
    rest = [i for i in range(state.dim) if i != index]
    cov = _inverse([[prec[a][b] for b in rest] for a in rest])
    shift = value - state.mean[index]
    mean = [state.mean[a] - sum(x * prec[b][index] for x, b in zip(cov_row, rest)) * shift
            for a, cov_row in zip(rest, cov)]
    return mean, cov


def gaussian_suite_checks(hbar_like: float) -> list:
    checks = []
    boundary = coherent_boundary(hbar_like)
    v = validity_check(boundary)
    checks.append(row("gaussian boundary min eigenvalue", "0",
                      f"{v.min_eigenvalue:.3e}", "DERIVED",
                      passed=abs(v.min_eigenvalue) <= 1e-12 * hbar_like))
    tenth = hbar_like / 10
    tight = GaussianEpistemicState((0.0, 0.0), ((tenth, 0.0), (0.0, tenth)), hbar_like)
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
                      passed=delta <= 1e-6 and _allclose(
                          res.bob.covariance, [r[1:] for r in cov_o[1:]], 1e-9 * hbar_like)))
    checks.append(row("gaussian Bob posterior validity", True,
                      res.bob_validity.valid, "DERIVED"))
    marg = marginal_mode(epr, 0)
    checks.append(row("gaussian EPR marginal variance grows", True,
                      bool(marg.covariance[0][0] >= hbar_like * math.cosh(6) * (1 - 1e-9)),
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
