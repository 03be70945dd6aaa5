"""Restricted Liouville mechanics: validity, entropy, the correlated pair."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlab import gaussian as g

LN_2PIE = 2.8378770664093453  # ln(2 pi e), the N=2 boundary entropy at lam=1


# ------------------------------------------------------------- validity

def test_boundary_state_sits_at_zero():
    for lam in (0.5, 1.0, 2.0):
        res = g.validity_check(g.coherent_boundary(lam))
        assert res.valid
        assert abs(res.min_eigenvalue) <= 1e-12


def test_tight_state_is_invalid():
    state = g.GaussianEpistemicState(np.zeros(2), 0.1 * np.eye(2), 1.0)
    res = g.validity_check(state)
    assert not res.valid
    assert res.min_eigenvalue == pytest.approx(-0.9, abs=1e-9)


def test_classical_limit_relaxes_the_constraint():
    state = g.GaussianEpistemicState(np.zeros(2), 0.1 * np.eye(2), 1e-9)
    assert g.validity_check(state).valid


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal form with [[0,-1],[1,0]] per (q,p) pair: the oracle's Sigma."""
    return np.kron(np.eye(n_modes), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_symplectic_form_properties():
    for n in (1, 2, 3):
        s = symplectic_form(n)
        assert np.allclose(s.T, -s)
        assert np.allclose(s @ s, -np.eye(2 * n))


def random_symplectic_2x2(rng: np.random.Generator) -> np.ndarray:
    # SL(2, R) = Sp(2, R): shear * squeeze * shear has unit determinant
    a, b, r = rng.uniform(-1.5, 1.5, 3)
    shear1 = np.array([[1.0, a], [0.0, 1.0]])
    shear2 = np.array([[1.0, 0.0], [b, 1.0]])
    squeeze = np.diag([math.exp(r), math.exp(-r)])
    return shear1 @ squeeze @ shear2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.5, 3.0))
def test_validity_and_entropy_invariant_under_symplectics(seed, scale):
    rng = np.random.default_rng(seed)
    s = random_symplectic_2x2(rng)
    state = g.GaussianEpistemicState(np.zeros(2), scale * np.eye(2), 1.0)
    mapped = g.GaussianEpistemicState(np.zeros(2), s @ state.covariance @ s.T, 1.0)
    assert g.validity_check(mapped).valid == g.validity_check(state).valid
    assert g.entropy(mapped) == pytest.approx(g.entropy(state), abs=1e-9)


# ------------------------------------------------------------- entropy

def test_entropy_closed_form_matches_frozen_value():
    assert g.entropy(g.coherent_boundary(1.0)) == pytest.approx(LN_2PIE, abs=1e-12)


def test_entropy_matches_quadrature_oracle():
    state = g.coherent_boundary(1.0)
    assert g.entropy_by_quadrature(state) == pytest.approx(g.entropy(state), abs=1e-6)
    stretched = g.GaussianEpistemicState(np.array([0.3, -0.2]),
                                         np.array([[2.0, 0.5], [0.5, 1.0]]), 1.0)
    assert g.entropy_by_quadrature(stretched) == pytest.approx(
        g.entropy(stretched), abs=1e-6)
    # off-centre and correlated, at both ends of the lam range lab-mix draws from
    for lam in (0.25, 4.0):
        tilted = g.GaussianEpistemicState(np.array([1.5, -0.8]),
                                          lam * np.array([[2.0, -0.7], [-0.7, 1.5]]), lam)
        assert g.entropy_by_quadrature(tilted) == pytest.approx(g.entropy(tilted), abs=1e-6)


def entropy_on_the_1201_point_grid(state) -> float:
    """The quadrature at 1201 x 1201 offsets, +-10 sd per axis: the
    reference for the 41-point sheared grid that ``entropy_by_quadrature`` uses."""
    gamma = state.covariance
    dx, dy = (np.linspace(-10.0 * sd, 10.0 * sd, 1201) for sd in np.sqrt(np.diag(gamma)))
    (a, b), (_, c) = np.linalg.inv(gamma)
    x = dx[:, None]
    neg_log_mu = (0.5 * (a * x * x + 2 * b * x * dy + c * dy * dy)
                  + math.log(2 * math.pi) + 0.5 * np.linalg.slogdet(gamma)[1])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(trapezoid(np.exp(-neg_log_mu) * neg_log_mu, dy, axis=1), dx))


def reduced_grid_states():
    low, high = (round(math.log10(end)) for end in g.LAMBDA_RANGE)
    for k in range(low, high + 1, 20):
        yield g.coherent_boundary(10.0 ** k)
    yield g.GaussianEpistemicState(np.array([0.3, -0.2]), np.array([[2.0, 0.5], [0.5, 1.0]]))
    for lam in (0.25, 4.0):
        yield g.GaussianEpistemicState(np.array([1.5, -0.8]),
                                       lam * np.array([[2.0, -0.7], [-0.7, 1.5]]), lam)
    for rho in (0.99, -0.99):  # the narrowest conditional sd is 1.41 steps of the 1201 grid
        yield g.GaussianEpistemicState(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
    yield g.GaussianEpistemicState(np.zeros(2), np.diag([100.0, 0.01]))  # axis ratio 100


def test_sheared_quadrature_matches_the_1201_point_grid():
    for state in reduced_grid_states():
        reference = entropy_on_the_1201_point_grid(state)
        assert abs(g.entropy_by_quadrature(state) - reference) <= 1e-9, state.covariance
        assert abs(g.entropy(state) - reference) <= 1e-9, state.covariance


def test_entropy_scaling_law():
    base = g.coherent_boundary(1.0)
    for c in (2.0, 5.0):
        scaled = g.GaussianEpistemicState(base.mean, c * np.asarray(base.covariance), 1.0)
        assert g.entropy(scaled) - g.entropy(base) == pytest.approx(
            (2 / 2) * math.log(c), abs=1e-12)


def grid_entropy_of_mixture(weights, means, cov, half_width=12.0, points=901):
    """Quadrature entropy of a two-component Gaussian mixture on a grid."""
    xs = np.linspace(-half_width, half_width, points)
    ys = np.linspace(-half_width, half_width, points)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inv = np.linalg.inv(cov)
    norm = 2 * math.pi * math.sqrt(np.linalg.det(cov))
    mu = np.zeros(pts.shape[0])
    for w, m in zip(weights, means):
        d = pts - np.asarray(m)
        mu += w * np.exp(-0.5 * np.einsum("ij,jk,ik->i", d, inv, d)) / norm
    mu = mu.reshape(points, points)
    integrand = np.where(mu > 0, -mu * np.log(np.where(mu > 0, mu, 1.0)), 0.0)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(trapezoid(integrand, ys, axis=1), xs))


def test_gaussian_maximizes_entropy_at_fixed_covariance():
    target = np.eye(2)
    gaussian_entropy = g.entropy(g.GaussianEpistemicState(np.zeros(2), target, 1.0))
    # symmetric two-point mixtures with component covariance target - m m^T
    for m in (np.array([0.6, 0.0]), np.array([0.0, 0.5]), np.array([0.4, 0.4])):
        comp_cov = target - np.outer(m, m)
        assert np.all(np.linalg.eigvalsh(comp_cov) > 0)
        mixed = grid_entropy_of_mixture([0.5, 0.5], [m, -m], comp_cov)
        assert mixed < gaussian_entropy - 1e-4


# ------------------------------------------------------------- EPR family

def test_epr_reference_variances():
    lam = 1.0
    epr2 = g.epr_correlated(2.0, lam)
    v = g.epr_quadrature_variances(epr2)
    assert v["var_q_diff"] == pytest.approx(math.exp(-4), abs=1e-12)
    assert g.marginal_mode(epr2, 0).covariance[0][0] == pytest.approx(
        math.cosh(4), abs=1e-9)

    epr3 = g.epr_correlated(3.0, lam)
    v3 = g.epr_quadrature_variances(epr3)
    assert v3["var_q_diff"] == pytest.approx(lam * math.exp(-6), abs=1e-9)
    assert v3["var_p_sum"] == pytest.approx(lam * math.exp(-6), abs=1e-9)


def test_epr_validity_across_squeezings():
    for r in (0.5, 1.0, 2.0, 3.0, 5.0):
        assert g.validity_check(g.epr_correlated(r)).valid


def relative_error(got, want) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


def test_epr_stays_accurate_at_high_squeeze():
    # from r ~ 9.5 the plain covariance's smallest eigenvalue and Bob's
    # conditioned q variance fall below float64 rounding of cosh 2r; the
    # normal modes keep every quantity to a few ulps
    rs = [k / 20 for k in range(401)] + [1e-9, 1e-6, 1e-4, 9.5, 10.0, 11.99]
    for r, lam in ((r, lam) for r in rs for lam in (0.25, 1.0, 4.0)):
        epr = g.epr_correlated(r, lam)
        assert g.validity_check(epr).valid, r
        var = g.epr_quadrature_variances(epr)
        assert relative_error(var["var_q_diff"], lam * math.exp(-2 * r)) <= 1e-12, r
        assert relative_error(var["var_p_sum"], lam * math.exp(-2 * r)) <= 1e-12, r
        # a pure two-mode state: det gamma = lam^4 at every squeezing
        assert relative_error(g.entropy(epr), 2 * math.log(2 * math.pi * math.e * lam)) <= 1e-12
        for measure, value, sign in (("q", 1.3, 1.0), ("p", -0.7, -1.0)):
            res = g.epr_inference(epr, measure, value)
            i = "qp".index(measure)
            assert res.bob_validity.valid, (r, measure)
            assert relative_error(res.bob.mean[i], sign * math.tanh(2 * r) * value) <= 1e-12
            assert relative_error(res.bob.covariance[i][i], lam / math.cosh(2 * r)) <= 1e-12
            assert relative_error(res.bob.covariance[1 - i][1 - i],
                                  lam * math.cosh(2 * r)) <= 1e-12
            assert res.bob.covariance[0][1] == res.bob.covariance[1][0] == 0.0


def test_validity_threshold_does_not_grow_with_the_squeeze():
    # one mode diag(a/cosh 2r, cosh 2r) at lam = 1 is valid iff a >= 1; from
    # r ~ 10 the spectrum of gamma + i*Sigma puts a = 1/2 within rounding of 0
    for r in (0.0, 3.0, 10.0, 20.0):
        c = math.cosh(2 * r)
        for a, valid in ((1.0, True), (0.99, False), (0.5, False)):
            state = g.GaussianEpistemicState(np.zeros(2), np.diag([a / c, c]), 1.0)
            assert g.validity_check(state).valid == valid, (r, a)


def test_normal_modes_must_factor_the_covariance():
    epr = g.epr_correlated(1.0)
    variances, basis = epr.modes
    assert np.allclose((np.asarray(basis) * variances) @ np.asarray(basis).T, epr.covariance,
                       rtol=1e-12, atol=0)
    with pytest.raises(g.GaussianError, match="normal modes"):
        g.GaussianEpistemicState(epr.mean, epr.covariance, 1.0, (variances[::-1], basis))
    with pytest.raises(g.GaussianError, match="positive definite"):
        g.GaussianEpistemicState(np.zeros(2), np.diag([1.0, 0.0]), 1.0)
    with pytest.raises(g.GaussianError, match="mean must be a vector"):
        g.GaussianEpistemicState(np.zeros((2, 2)), np.eye(2), 1.0)


def test_epr_decoupling_limit():
    tiny = g.epr_correlated(0.0)
    assert np.allclose(tiny.covariance, np.eye(4), atol=1e-12)
    # product of two boundary-valid single-system states
    for mode in (0, 1):
        marg = g.marginal_mode(tiny, mode)
        res = g.validity_check(marg)
        assert res.valid and abs(res.min_eigenvalue) <= 1e-12
    assert tiny.covariance[0][2] == pytest.approx(0.0, abs=1e-12)


def test_epr_monotone_in_squeezing():
    rs = [0.5, 1.0, 2.0, 3.0, 5.0]
    diffs = [g.epr_quadrature_variances(g.epr_correlated(r))["var_q_diff"]
             for r in rs]
    ents = [g.entropy(g.marginal_mode(g.epr_correlated(r), 0)) for r in rs]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert all(a < b for a, b in zip(ents, ents[1:]))


def test_epr_marginal_is_valid_and_wide():
    epr = g.epr_correlated(3.0)
    for mode in (0, 1):
        marg = g.marginal_mode(epr, mode)
        assert g.validity_check(marg).valid
        assert marg.covariance[0][0] >= 0.5  # far above lam/2 per quadrature


def test_epr_rejects_negative_squeeze():
    with pytest.raises(g.GaussianError):
        g.epr_correlated(-1.0)


# ------------------------------------------------------------- marginals

def test_marginal_of_product_state_is_the_factor():
    variances = [1.0, 1.0, 2.0, 3.0]
    state = g.GaussianEpistemicState(np.array([0.0, 0.0, 1.0, -1.0]), np.diag(variances), 1.0,
                                     (variances, np.eye(4)))
    a = g.marginal_mode(state, 0)
    assert np.allclose(a.covariance, np.eye(2))
    b = g.marginal_mode(state, 1)
    assert np.allclose(b.mean, [1.0, -1.0])


def three_mode_state() -> g.GaussianEpistemicState:
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 6))
    cov = a @ a.T + 6 * np.eye(6)
    return g.GaussianEpistemicState(rng.normal(size=6), cov, 1.0, np.linalg.eigh(cov))


def test_a_state_of_two_modes_needs_its_normal_modes():
    with pytest.raises(g.GaussianError, match="needs its normal modes"):
        g.GaussianEpistemicState(np.zeros(4), np.eye(4), 1.0)
    # modes that Sigma does not pair are fine for conditioning, not for validity
    with pytest.raises(g.GaussianError, match="Sigma pairs"):
        g.validity_check(three_mode_state())


def test_marginal_mode_is_the_mean_slice_and_covariance_block():
    state = three_mode_state()
    for mode in range(3):
        marg = g.marginal_mode(state, mode)
        pair = slice(2 * mode, 2 * mode + 2)
        assert np.array_equal(marg.mean, state.mean[pair])
        assert np.array_equal(marg.covariance, np.asarray(state.covariance)[pair, pair])
        assert marg.hbar_like == state.hbar_like


def test_marginal_mode_rejects_modes_out_of_range():
    # without the check, -1 would wrap around to the last mode
    state = three_mode_state()
    for mode in (-1, state.n_modes):
        with pytest.raises(g.GaussianError, match="outside 0..2"):
            g.marginal_mode(state, mode)


# ------------------------------------------------------------- inference

def test_epr_inference_position():
    epr = g.epr_correlated(3.0)
    res = g.epr_inference(epr, "q", 1.0)
    mean_o, cov_o = g._conditioning_oracle(epr, 0, 1.0)
    assert res.bob.mean == pytest.approx(mean_o[1:], abs=1e-6)
    assert np.allclose(res.bob.covariance, np.asarray(cov_o)[1:, 1:], atol=1e-9)
    assert res.bob.mean[0] == pytest.approx(1.0, abs=1e-4)  # tanh(6) ~ 1
    assert res.bob.covariance[0][0] == pytest.approx(1 / math.cosh(6), abs=1e-12)
    assert res.bob_validity.valid


def test_epr_inference_momentum_anticorrelated():
    epr = g.epr_correlated(3.0)
    res = g.epr_inference(epr, "p", 0.5)
    assert res.bob.mean[1] == pytest.approx(-0.5, abs=1e-4)
    assert res.bob_validity.valid


LOG_LAMBDA = tuple(math.log10(lam) for lam in g.LAMBDA_RANGE)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 13.0), st.floats(*LOG_LAMBDA).map(lambda e: 10.0 ** e),
       st.sampled_from("qp"), st.floats(-1e300, 1e300))
def test_the_posterior_mean_row_passes_on_any_finite_reading(squeeze, lam, measure, value):
    # the row once held the mean, tanh(2r) times the reading, to an absolute
    # 1e-9, so "--squeeze 1 --value 1e10" failed on a mean right to 9 digits
    checks = g.gaussian_epr_checks(squeeze, lam, measure, value)
    assert [c.name for c in checks if not c.passed] == []


def test_inference_no_signaling_analogue():
    # Bob's prior marginal equals the outcome-average of his posterior for
    # either of Alice's choices: posterior covariance + K Var K^T = prior.
    epr = g.epr_correlated(2.0)
    prior = g.marginal_mode(epr, 1)
    for index in (0, 1):
        gam = np.asarray(epr.covariance)
        rest = [i for i in range(4) if i != index]
        k = gam[np.ix_(rest, [index])] / gam[index, index]
        post = gam[np.ix_(rest, rest)] - k @ gam[np.ix_([index], rest)]
        reassembled = post + k @ k.T * gam[index, index]
        bob_rows = [rest.index(2), rest.index(3)]
        assert np.allclose(reassembled[np.ix_(bob_rows, bob_rows)],
                           prior.covariance, atol=1e-12)


# The numpy oracles: seeded one-mode states, and the EPR family across its
# squeezings at lambda 1 and at both ends of LAMBDA_RANGE
ORACLE_SQUEEZES = (0.0, 1.0, 3.0, 9.2, 13.0)


def oracle_one_mode_states():
    rng = np.random.default_rng(47)
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-3, 3)
        a = rng.normal(size=(2, 2))
        yield g.GaussianEpistemicState(rng.normal(size=2), lam * (a @ a.T + 0.05 * np.eye(2)), lam)


def oracle_epr_states():
    for lam in (g.LAMBDA_RANGE[0], 1.0, g.LAMBDA_RANGE[1]):
        for r in ORACLE_SQUEEZES:
            yield r, g.epr_correlated(r, lam)


def numpy_validity(state) -> tuple:
    """(least symplectic eigenvalue, least eigenvalue of gamma + i*lam*Sigma)
    by numpy.linalg.eigvalsh in the basis of the carried normal modes: the
    moduli of the eigenvalues of i D C D, and the eigenvalues of diag(v) +
    i*lam*C, with C = B^T Sigma B and D the root mode variances.  The
    covariance itself holds the least eigenvalue of the EPR family only to
    float64 rounding of lam*cosh(2r).  Both are taken in units of lam, as
    eigvalsh underflows on entries near 1e-300."""
    lam = state.hbar_like
    v, b = np.asarray(state.modes[0]) / lam, np.asarray(state.modes[1])
    # B^T Sigma B with each product rounded before the sum, as a BLAS matmul
    # leaves ~1e-17 where the e^{4r} ratio of mode variances magnifies it
    c = (b[:, :, None] * (symplectic_form(state.n_modes) @ b)[:, None, :]).sum(axis=0)
    root = np.sqrt(v)
    nu = np.abs(np.linalg.eigvalsh(1j * root[:, None] * c * root)).min()
    return lam * nu, lam * np.linalg.eigvalsh(np.diag(v) + 1j * c).min()


def test_validity_matches_numpy_eigenvalues():
    for state in oracle_one_mode_states():
        gamma, lam = np.asarray(state.covariance), state.hbar_like
        res = g.validity_check(state)
        nu = math.sqrt(np.linalg.det(gamma))
        assert relative_error(numpy_validity(state)[0], nu) <= 1e-12
        assert res.valid == (nu >= lam * (1 - g.VALIDITY_TOL))
        least = np.linalg.eigvalsh(gamma + 1j * lam * symplectic_form(1)).min()
        assert abs(res.min_eigenvalue - least) <= 1e-14 * np.abs(gamma).max()
    for r, state in oracle_epr_states():
        nu, least = numpy_validity(state)
        res = g.validity_check(state)
        assert relative_error(nu, state.hbar_like) <= 1e-12, r
        assert res.valid
        # eigvalsh is accurate to rounding of the largest variance, lam*e^{2r}
        assert abs(res.min_eigenvalue - least) <= 1e-14 * max(state.modes[0]), r


def numpy_conditioning(state, index: int, value: float) -> tuple:
    """The precision-matrix route by numpy.linalg.inv."""
    gamma = np.asarray(state.covariance)
    prec = np.linalg.inv(gamma)
    rest = [i for i in range(state.dim) if i != index]
    cov = np.linalg.inv(prec[np.ix_(rest, rest)])
    shift = value - state.mean[index]
    return np.asarray(state.mean)[rest] - cov @ prec[rest, index] * shift, cov


def test_conditioning_matches_numpy_inverse():
    for state in oracle_one_mode_states():
        for index in (0, 1):
            mean, cov = g.condition_on_coordinate(state, index, 0.7)
            mean_o, cov_o = numpy_conditioning(state, index, 0.7)
            assert np.allclose(mean, mean_o, rtol=1e-12, atol=1e-12)
            assert np.allclose(cov, cov_o, rtol=1e-12, atol=0)
    for r, state in oracle_epr_states():
        lam = state.hbar_like
        for index, sign in ((0, 1.0), (1, -1.0)):
            mean, cov = g.condition_on_coordinate(state, index, 0.7)
            if r <= 3:
                # the covariance's condition number e^{4r} stays far below 1/eps
                mean_o, cov_o = numpy_conditioning(state, index, 0.7)
                assert np.allclose(mean, mean_o, rtol=1e-9, atol=0), (r, lam)
                assert np.allclose(cov, cov_o, rtol=1e-9, atol=1e-12 * lam), (r, lam)
            # Bob's posterior in closed form, at every squeezing
            bob = index + 1
            assert relative_error(mean[bob], sign * math.tanh(2 * r) * 0.7) <= 1e-12, (r, lam)
            assert relative_error(cov[bob][bob], lam / math.cosh(2 * r)) <= 1e-12, (r, lam)


def test_three_mode_conditioning_matches_the_precision_oracle():
    # the Lagrange-form Schur complement on a generic correlated state, on
    # every coordinate, against the precision-matrix route
    state = three_mode_state()
    for index in range(state.dim):
        mean, cov = g.condition_on_coordinate(state, index, 0.7)
        mean_o, cov_o = g._conditioning_oracle(state, index, 0.7)
        assert np.allclose(mean, mean_o, rtol=1e-12, atol=1e-12)
        assert np.allclose(cov, cov_o, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("lam", [1e-160, 1e-170, 1e-200, 1e-300])
def test_conditioning_keeps_its_scale_at_tiny_lambda(lam):
    # the products of two mode variances underflow below ~1e-154 unless the
    # Lagrange sum runs at a power-of-two scale near lambda
    unit_mean, unit_cov = g.condition_on_coordinate(g.epr_correlated(3.0), 0, 1.0)
    mean, cov = g.condition_on_coordinate(g.epr_correlated(3.0, lam), 0, 1.0)
    assert np.allclose(mean, unit_mean, rtol=1e-12, atol=0)
    assert np.allclose(np.asarray(cov) / lam, unit_cov, rtol=1e-12, atol=0)
    checks = g.gaussian_suite_checks(lam) + g.gaussian_epr_checks(3.0, lam, "q", 1.0)
    assert [c.name for c in checks if not c.passed] == []


@pytest.mark.parametrize("lam", [1e-300, 1e-160, 1e-12, 0.25, 1.0, 4.0, 1e280])
def test_the_gaussian_suite_passes_across_the_lambda_range(lam):
    assert [c.name for c in g.gaussian_suite_checks(lam) if not c.passed] == []


def _scaled(state, factor):
    """``state`` with its covariance, and its normal modes' variances, times ``factor``."""
    variances, basis = state.modes
    return g.GaussianEpistemicState(state.mean, factor * np.asarray(state.covariance),
                                    state.hbar_like, (factor * np.asarray(variances), basis))


def _patch(name, wrap):
    """A mutant: ``g.<name>`` replaced by ``wrap`` applied to the original."""
    return lambda monkeypatch: monkeypatch.setattr(g, name, wrap(getattr(g, name)))


# (the suite row, a broken input that row must catch); each absolute
# tolerance is scaled by lambda, so that the rows still fail far below 1
SUITE_MUTANTS = [
    ("gaussian boundary min eigenvalue",  # a half-width state, min eigenvalue -lam/2
     _patch("coherent_boundary", lambda boundary: lambda lam: _scaled(boundary(lam), 0.5))),
    ("gaussian EPR r=3 on the uncertainty boundary",  # valid, 1.001 off the boundary
     _patch("epr_correlated", lambda epr: lambda r, lam: _scaled(epr(r, lam), 1.001))),
    ("gaussian EPR var of difference quadrature",
     _patch("epr_quadrature_variances",
            lambda variances: lambda state: {**variances(state), "var_q_diff": 0.0})),
    ("gaussian conditioning vs precision-matrix oracle",  # Bob's covariance tripled
     _patch("epr_inference", lambda infer: lambda *args: dataclasses.replace(
         infer(*args), bob=_scaled(infer(*args).bob, 3.0)))),
    ("gaussian EPR marginal variance grows",  # the marginal shrunk 1000 times
     _patch("marginal_mode", lambda marginal: lambda state, mode: _scaled(
         marginal(state, mode), 1e-3))),
]


@pytest.mark.parametrize("lam", [1e-12, 1.0])
@pytest.mark.parametrize("row, mutate", SUITE_MUTANTS, ids=[row for row, _ in SUITE_MUTANTS])
def test_each_gaussian_suite_row_fails_on_its_mutant(row, mutate, lam, monkeypatch):
    assert {c.name: c.passed for c in g.gaussian_suite_checks(lam)}[row]
    mutate(monkeypatch)
    assert not {c.name: c.passed for c in g.gaussian_suite_checks(lam)}[row]


def test_inference_input_validation():
    epr = g.epr_correlated(1.0)
    with pytest.raises(g.GaussianError):
        g.epr_inference(epr, "x", 1.0)
    single = g.coherent_boundary(1.0)
    with pytest.raises(g.GaussianError):
        g.epr_inference(single, "q", 1.0)


# ------------------------------------------------------------- wire format

def test_state_json_round_trip():
    epr = g.epr_correlated(2.0, 0.7)
    doc = json.loads(json.dumps(epr.to_json()))
    assert sorted(doc) == ["covariance", "hbar_analogue", "mean"]
    assert doc["mean"] == [0.0] * 4
    assert np.allclose(doc["covariance"], epr.covariance)
    assert doc["hbar_analogue"] == epr.hbar_like
