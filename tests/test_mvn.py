import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr, owens_t

from truncskew import (
    DEFAULT_QMC,
    EsnParams,
    NormalParams,
    QmcConfig,
    TruncationBox,
    bvn_cdf,
    log_std_cdf,
    mvn_log_prob,
    mvn_pdf,
    mvn_prob,
    std_cdf,
    std_pdf,
    tesn_prob_with_error,
)
from truncskew import mvn
from truncskew.core import symmetrize
from truncskew.errors import DimensionMismatchError, NotPSDError
from truncskew.esn import esn_cdf, esn_derive, esn_limit_params, esn_pdf
from truncskew.oracle import quad_oracle_1d, quad_oracle_2d

from conftest import FAST_QMC, random_spd


class TestScalarNormal:
    def test_cdf_center(self):
        assert std_cdf(0.0) == 0.5

    def test_cdf_infinities(self):
        assert std_cdf(-np.inf) == 0.0
        assert std_cdf(np.inf) == 1.0

    def test_deep_tail_underflow(self):
        # at -37 the cdf is ~6e-300: zero for any practical purpose, and the
        # linear channel hits exact zero a couple of units further out
        assert std_cdf(-37.0) < 1e-299
        assert std_cdf(-39.0) == 0.0

    def test_log_cdf_deep_tail(self):
        # frozen from a 50-digit evaluation of log Phi(-40)
        assert log_std_cdf(-40.0) == pytest.approx(-804.6084420137538, abs=1e-9)

    def test_log_cdf_matches_asymptotic_series(self):
        # independent oracle: log phi(x) - log|x| + log(1 - 1/x^2 + 3/x^4 - 15/x^6)
        for x in (-20.0, -30.0, -40.0, -80.0):
            series = (
                -0.5 * x * x - 0.5 * math.log(2 * math.pi) - math.log(-x)
                + math.log(1 - x**-2 + 3 * x**-4 - 15 * x**-6)
            )
            assert log_std_cdf(x) == pytest.approx(series, abs=1e-6)

    def test_pdf(self):
        assert std_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-16)
        assert std_pdf(np.inf) == 0.0


class TestInHouseCdfs:
    """``std_cdf`` and ``log_std_cdf`` run on ``math.erf`` / ``math.erfc``;
    scipy's ``ndtr`` and ``log_ndtr`` are the reference, ``ndtr`` only from
    x = -5 on: below that it is itself up to 2.3e-13 off, and ``std_cdf``
    is checked against ``erfcx`` there."""

    GRID = np.concatenate([
        np.linspace(-40.0, 40.0, 8001),
        -np.logspace(0.0, 6.0, 601),
        np.logspace(0.0, 2.0, 201),
    ])

    @pytest.mark.parametrize("name, reference", [
        ("std_cdf", "ndtr"), ("log_std_cdf", "log_ndtr"),
    ])
    def test_matches_scipy_where_normal(self, name, reference):
        import scipy.special

        grid = self.GRID[self.GRID >= -5.0] if name == "std_cdf" else self.GRID
        ref = getattr(scipy.special, reference)(grid)
        got = np.array([getattr(mvn, name)(float(x)) for x in grid])
        normal = np.abs(ref) >= np.finfo(float).tiny
        assert normal.sum() > 4500
        rel = np.abs(got[normal] - ref[normal]) / np.abs(ref[normal])
        assert rel.max() <= 1e-13, grid[normal][np.argmax(rel)]

    def test_left_tail_keeps_relative_precision(self):
        # x = k / 64, so x^2 / 2 is exact and exp(-x^2 / 2) erfcx(-x / sqrt 2) / 2
        # is Phi(x) to a few eps; rounding x / sqrt 2 alone would cost x^2 eps / 2
        from scipy.special import erfcx

        x = np.arange(-2400, -319) / 64.0
        ref = 0.5 * np.exp(-0.5 * x * x) * erfcx(-x / math.sqrt(2.0))
        got = np.array([std_cdf(float(v)) for v in x])
        rel = np.abs(got - ref) / ref
        assert rel.max() <= 2e-15, x[np.argmax(rel)]

    def test_infinities_exact_and_nan_passes(self):
        assert std_cdf(-np.inf) == 0.0 and std_cdf(np.inf) == 1.0
        assert log_std_cdf(-np.inf) == -np.inf and log_std_cdf(np.inf) == 0.0
        assert math.isnan(std_cdf(np.nan)) and math.isnan(log_std_cdf(np.nan))


def _quantile(y):
    """``mvn._inv_log_std_cdf`` with every floating-point warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return mvn._inv_log_std_cdf(np.asarray(y, dtype=float))


class TestInvLogStdCdf:
    """The sampler's numpy quantile x = Phi^-1(exp(y)) against scipy's
    ``ndtri_exp``.  Near the median each routine rounds p = exp(y) within an
    ulp of 1/2, numpy's ``exp`` not always like libm's, so x agrees there to
    two such ulps times sqrt(2 pi), 6e-16 absolute, rather than relative.
    Below y = -1e4 ``ndtri_exp`` extrapolates cephes' tail fit and is itself
    up to 6.6e-13 off (against 40-digit roots), so there the round trip
    through :func:`log_std_cdf` is the reference and scipy is held to 1e-12."""

    GRID = np.concatenate([
        -np.logspace(-320.0, 8.0, 200_001),
        np.linspace(-5.0, 0.0, 100_001),
        np.linspace(math.log(0.5) - 1e-3, math.log(0.5) + 1e-3, 2001),
    ])
    # AS241's branch switches: |p - 1/2| = 0.425, then r = 5 and r = 27 in
    # each tail (r = sqrt(-log q), q = min(p, 1 - p)), past which Newton runs
    SWITCHES = [math.log(0.075), math.log(0.925), -25.0, -729.0,
                math.log1p(-math.exp(-25.0)), -math.exp(-729.0)]

    @staticmethod
    def _against_scipy(y, rtol):
        from scipy.special import ndtri_exp

        got, ref = _quantile(y), ndtri_exp(y)
        assert np.isfinite(got).all() and np.isfinite(ref).all()
        bad = np.abs(got - ref) > rtol * np.abs(ref) + 6e-16
        assert not bad.any(), (y[bad][:5], got[bad][:5], ref[bad][:5])

    def test_matches_scipy_on_dense_grid(self):
        y = self.GRID[self.GRID < 0.0]
        self._against_scipy(y[y >= -1e4], 1e-13)
        self._against_scipy(y[y < -1e4], 1e-12)

    def test_matches_scipy_at_branch_switches(self):
        y = np.array(self.SWITCHES)
        y = np.concatenate([np.nextafter(y, -np.inf), y, np.nextafter(y, 0.0)])
        self._against_scipy(y, 1e-13)

    def test_round_trip_through_log_std_cdf(self):
        # log_std_cdf(x) = y in the lower half; above it the root is checked
        # on log q = log_std_cdf(-x), which keeps its relative precision
        y = np.concatenate([self.GRID[::20], self.SWITCHES])
        y = y[y < -1e-320]
        x = _quantile(y)
        upper = y > math.log(0.5)
        target = np.where(upper, np.log(-np.expm1(y)), y)
        back = np.array([log_std_cdf(-v if u else v) for v, u in zip(x.tolist(), upper)])
        rel = np.abs(back - target) / np.abs(target)
        assert rel.max() <= 4e-15, y[np.argmax(rel)]

    def test_special_values_and_subnormals(self):
        from scipy.special import ndtri_exp

        x = _quantile([-np.inf, 0.0, -0.0, np.nan])
        assert x[0] == -np.inf and x[1] == np.inf and x[2] == np.inf and np.isnan(x[3])
        y = -np.array([5e-324, 1e-320, 2.2e-308, np.finfo(float).tiny])
        np.testing.assert_allclose(_quantile(y), ndtri_exp(y), rtol=1e-13, atol=0.0)
        assert _quantile(np.empty(0)).shape == (0,)


class TestMvnPdf:
    def test_standard_univariate(self):
        p = NormalParams([0.0], [[1.0]])
        assert mvn_pdf([0.0], p) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_at_center(self):
        for d in (1, 2, 4):
            p = NormalParams(np.zeros(d), np.eye(d))
            assert mvn_pdf(np.zeros(d), p) == pytest.approx(
                (2 * math.pi) ** (-d / 2), rel=1e-14)

    def test_against_direct_formula(self, rng):
        sigma = random_spd(rng, 3)
        mu = rng.normal(size=3)
        x = rng.normal(size=3)
        dev = x - mu
        direct = math.exp(-0.5 * dev @ np.linalg.inv(sigma) @ dev) / math.sqrt(
            (2 * math.pi) ** 3 * np.linalg.det(sigma))
        assert mvn_pdf(x, NormalParams(mu, sigma)) == pytest.approx(direct, rel=1e-12)


def _owen_bvn_cdf(h, k, rho):
    """Independent bivariate cdf oracle via Owen's T function."""
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2 * math.pi)
    eps = 1e-300
    denom = math.sqrt(1 - rho * rho)
    ah = (k / (h if h != 0 else eps) - rho) / denom
    ak = (h / (k if k != 0 else eps) - rho) / denom
    delta = 0.0 if h * k > 0 or (h * k == 0.0 and h + k >= 0) else 0.5
    return (std_cdf(h) + std_cdf(k)) / 2 - owens_t(h, ah) - owens_t(k, ak) - delta


def _bvn_reference(h, k, rho):
    """Phi2(h, k; rho) for rho < 1 and finite h, k by scipy's QUADPACK over
    x <= h of phi(x) Phi((k - rho x) / s), with scipy's ``log_ndtr``,
    scaled by the integrand at its mode.  The integrand's log is concave
    with curvature below -1, so outside 12 of the mode it is below exp(-72)
    of its top."""
    s = math.sqrt((1.0 - rho) * (1.0 + rho))

    def log_f(x):
        return -0.5 * x * x + float(log_ndtr((k - rho * x) / s))

    mode = minimize_scalar(lambda x: -log_f(x), bounds=(h - 40.0, h), method="bounded").x
    top = log_f(mode)
    lo, hi = mode - 12.0, min(h, mode + 12.0)
    val, _ = quad(lambda x: math.exp(log_f(x) - top), lo, hi,
                  points=[mode] if lo < mode < hi else None,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return math.exp(top) * val / math.sqrt(2.0 * math.pi)


class TestBivariateCdf:
    @pytest.mark.parametrize("h,k,rho", [
        (0.3, -0.4, 0.5), (1.2, 0.7, -0.8), (-2.0, 1.5, 0.25),
        (0.0, 1.0, 0.6), (2.5, 2.5, 0.99), (-1.0, -1.0, -0.6),
        # within 1e-12 of +-1, where the integrand's scale shrinks to ~1e-6
        (0.6, 0.6, 1.0 - 1e-12), (0.5, 0.5 + 3e-6, 1.0 - 7.8e-13),
        (0.6, -0.6, -1.0 + 1e-12),
    ])
    def test_against_owens_t(self, h, k, rho):
        assert bvn_cdf(h, k, rho) == pytest.approx(_owen_bvn_cdf(h, k, rho),
                                                   abs=2e-14)

    @pytest.mark.parametrize("h,k,rho", [
        (-10.0, -10.0, -0.5), (-8.0, -9.0, -0.9), (-3.0, 2.0, -0.99),
        (-6.0, -4.0, -0.7), (-2.0, -2.5, -0.95),
    ])
    def test_negative_correlation_deep_tail(self, h, k, rho):
        # Phi(h) Phi(k) minus the integral cancels here (7.0e-61 for 6.3e-91
        # at the first case, 0 at the others); the reference integrates
        # phi(x) Phi((k - rho x) / s) up to h, scaled by its value at h
        s = math.sqrt(1.0 - rho * rho)

        def log_f(x):
            return -0.5 * x * x + log_std_cdf((k - rho * x) / s)

        top = log_f(h)
        scaled = quad_oracle_1d(lambda x: math.exp(log_f(x) - top), h - 30.0, h, tol=1e-14)
        ref = math.exp(top) * scaled / math.sqrt(2.0 * math.pi)
        # the second case is subnormal: a few of its spacings
        assert bvn_cdf(h, k, rho) == pytest.approx(ref, rel=1e-12, abs=1e-322)

    @pytest.mark.parametrize("h,k,rho", [(6.627, -5.419, -0.755), (7.5, -6.0, -0.5)])
    def test_array_negative_correlation_with_h_positive(self, h, k, rho):
        # the array form adds its integral from -1 to Phi(h) - Phi(-k), two
        # numbers near 1 here: it forms that as Phi(k) - Phi(-h)
        args = (np.array([v]) for v in (h, k, rho, std_cdf(h), std_cdf(k)))
        ref = _bvn_reference(h, k, rho)
        assert mvn._bvn_array(*args)[0] == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_fallback_estimate_bounds_the_error(self, rng):
        # a negative correlation whose value is below 1e-3 of Phi(h) Phi(k)
        # is integrated from -1; its estimate is relative to the terms summed
        # there, not to Phi(h) Phi(k)
        cases = 0
        while cases < 300:
            h, k = rng.uniform(-10.0, 9.0, size=2)
            rho = -rng.uniform(0.01, 0.999)
            val, est = mvn._bvn_with_error(h, k, rho)
            if not 1e-300 < val < 1e-3 * std_cdf(h) * std_cdf(k):
                continue
            cases += 1
            assert abs(val - _bvn_reference(h, k, rho)) <= est <= 1e-10 * val, (h, k, rho)

    def test_orthant_arcsine(self):
        assert bvn_cdf(0.0, 0.0, 0.5) == pytest.approx(1 / 3, abs=1e-14)

    def test_infinite_reductions(self):
        assert bvn_cdf(np.inf, 0.7, 0.3) == pytest.approx(std_cdf(0.7), abs=1e-15)
        assert bvn_cdf(-np.inf, 0.7, 0.3) == 0.0
        assert bvn_cdf(0.7, np.inf, -0.3) == pytest.approx(std_cdf(0.7), abs=1e-15)

    def test_degenerate_correlation(self):
        assert bvn_cdf(0.5, 1.0, 1.0) == pytest.approx(std_cdf(0.5), abs=1e-15)
        assert bvn_cdf(0.5, -0.2, -1.0) == pytest.approx(
            max(0.0, std_cdf(0.5) + std_cdf(-0.2) - 1), abs=1e-15)


class TestMvnProb:
    def test_halfline(self):
        box = TruncationBox([-np.inf], [0.0])
        prob, err = mvn_prob(box, NormalParams([0.0], [[1.0]]))
        assert prob == 0.5 and err == 0.0

    def test_bivariate_independent(self):
        box = TruncationBox([-np.inf, -np.inf], [0.0, 0.0])
        prob, _ = mvn_prob(box, NormalParams([0, 0], np.eye(2)))
        assert prob == pytest.approx(0.25, abs=1e-14)

    def test_bivariate_arcsine(self):
        box = TruncationBox([-np.inf, -np.inf], [0.0, 0.0])
        sigma = [[1.0, 0.5], [0.5, 1.0]]
        prob, _ = mvn_prob(box, NormalParams([0, 0], sigma))
        assert prob == pytest.approx(1 / 3, abs=1e-13)

    def test_trivariate_equicorrelated(self):
        # orthant probability 1/4 for rho = 1/2 in three dimensions
        sigma = np.full((3, 3), 0.5)
        np.fill_diagonal(sigma, 1.0)
        box = TruncationBox(np.full(3, -np.inf), np.zeros(3))
        prob, err = mvn_prob(box, NormalParams(np.zeros(3), sigma))
        assert abs(prob - 0.25) <= max(err, 1e-5)

    def test_full_space(self):
        for d in (1, 2, 4):
            prob, err = mvn_prob(TruncationBox.unbounded(d),
                                 NormalParams(np.zeros(d), np.eye(d)))
            assert prob == 1.0 and err == 0.0

    @hyp_settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.floats(-3, 3), st.floats(0.1, 4.0), st.floats(-0.9, 0.9))
    def test_complement_identity(self, a, width, rho):
        b = a + width
        for pars in (NormalParams([0.4], [[1.5]]),
                     NormalParams([0.0, 0.2], [[1.0, rho], [rho, 1.0]])):
            d = pars.dim
            lo, hi = np.full(d, a), np.full(d, b)
            if d == 1:
                total = (
                    mvn_prob(TruncationBox(lo, hi), pars)[0]
                    + mvn_prob(TruncationBox(np.full(d, -np.inf), lo), pars)[0]
                    + mvn_prob(TruncationBox(hi, np.full(d, np.inf)), pars)[0]
                )
                assert total == pytest.approx(1.0, abs=1e-12)
            else:
                # 2-d: partition one coordinate, keep the other unconstrained
                boxes = [
                    TruncationBox([lo[0], -np.inf], [hi[0], np.inf]),
                    TruncationBox([-np.inf, -np.inf], [lo[0], np.inf]),
                    TruncationBox([hi[0], -np.inf], [np.inf, np.inf]),
                ]
                total = sum(mvn_prob(bx, pars)[0] for bx in boxes)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_box(self, rng):
        pars = NormalParams(rng.normal(size=3), random_spd(rng, 3))
        sd = np.sqrt(np.diag(pars.sigma))
        small = TruncationBox(pars.mu - 0.5 * sd, pars.mu + 0.7 * sd)
        large = TruncationBox(pars.mu - 1.5 * sd, pars.mu + 1.5 * sd)
        p_small, e_small = mvn_prob(small, pars, FAST_QMC)
        p_large, e_large = mvn_prob(large, pars, FAST_QMC)
        assert p_large >= p_small - (e_small + e_large)

    def test_qmc_deterministic(self, rng):
        pars = NormalParams(rng.normal(size=4), random_spd(rng, 4))
        box = TruncationBox(pars.mu - 1.0, pars.mu + 2.0)
        cfg = QmcConfig(sample_count=4096, replicates=10, seed=987)
        r1 = mvn_prob(box, pars, cfg)
        r2 = mvn_prob(box, pars, cfg)
        assert r1 == r2  # bit identical

    def test_seed_changes_estimate(self, rng):
        # dim 5: the first dimension integrated by the lattice rule
        pars = NormalParams(rng.normal(size=5), random_spd(rng, 5))
        box = TruncationBox(pars.mu - 1.0, pars.mu + 2.0)
        r1 = mvn_prob(box, pars, QmcConfig(seed=1))
        r2 = mvn_prob(box, pars, QmcConfig(seed=2))
        assert r1 != r2

    def test_affine_invariance(self, rng):
        pars = NormalParams(rng.normal(size=3), random_spd(rng, 3))
        sd = np.sqrt(np.diag(pars.sigma))
        box = TruncationBox(pars.mu - 0.8 * sd, pars.mu + 1.3 * sd)
        corr = pars.sigma / np.outer(sd, sd)
        std_box = TruncationBox((box.lower - pars.mu) / sd, (box.upper - pars.mu) / sd)
        p1, e1 = mvn_prob(box, pars, FAST_QMC)
        p2, e2 = mvn_prob(std_box, NormalParams(np.zeros(3), corr), FAST_QMC)
        assert abs(p1 - p2) <= 2 * (e1 + e2) + 1e-12

    def test_error_estimate_covers_truth(self):
        # the equicorrelated rho = 1/2 orthant P(X <= 0) is exactly 1/(n+1)
        for n in range(4, 9):
            sigma = np.full((n, n), 0.5)
            np.fill_diagonal(sigma, 1.0)
            pars = NormalParams(np.zeros(n), sigma)
            box = TruncationBox(np.full(n, -np.inf), np.zeros(n))
            for cfg in (FAST_QMC, DEFAULT_QMC):
                val, err = mvn_prob(box, pars, cfg)
                assert abs(val - 1.0 / (n + 1)) <= err, (n, cfg)

    def test_identity_box_is_product_of_intervals(self):
        # independent coordinates: every lattice point gives the same product
        lo = np.array([-1.0, -np.inf, 0.3, -2.0, 0.5])
        hi = np.array([0.5, 1.2, np.inf, -0.4, 2.0])
        exact = math.prod(std_cdf(h) - std_cdf(l) for l, h in zip(lo, hi))
        for cfg in (FAST_QMC, DEFAULT_QMC):
            val, err = mvn_prob(TruncationBox(lo, hi), NormalParams(np.zeros(5), np.eye(5)), cfg)
            assert abs(val - exact) <= err + 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_negative_variance_is_not_psd(self, dim):
        sigma = np.eye(dim)
        sigma[0, 0] = -1.0
        box = TruncationBox(np.full(dim, -1.0), np.ones(dim))
        with pytest.raises(NotPSDError):
            mvn_prob(box, NormalParams(np.zeros(dim), sigma))
        if dim == 1:
            with pytest.raises(NotPSDError):
                mvn_log_prob(box, NormalParams([0.0], sigma))

    def test_log_prob_deep_tail_univariate(self):
        box = TruncationBox([-50.0], [-40.0])
        logp = mvn_log_prob(box, NormalParams([0.0], [[1.0]]))
        # dominated by log Phi(-40)
        assert logp == pytest.approx(log_std_cdf(-40.0), abs=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mvn_prob(TruncationBox([0.0], [1.0]), NormalParams([0, 0], np.eye(2)))

    def test_log_prob_is_univariate(self):
        box = TruncationBox([-np.inf, -np.inf], [0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            mvn_log_prob(box, NormalParams([0.0, 0.0], np.eye(2)))

    @pytest.mark.parametrize("sigma3", [
        np.eye(3),
        np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]]),
    ])
    def test_qmc_copied_coordinate(self, sigma3):
        # x4 = x1 exactly: the fourth coordinate is deterministic given the
        # first and adds no constraint, so the 4-dim box equals the 3-dim one
        copy = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
        sigma4 = copy @ sigma3 @ copy.T
        p4, e4 = mvn_prob(TruncationBox(-np.ones(4), np.ones(4)),
                          NormalParams(np.zeros(4), sigma4), FAST_QMC)
        p3, e3 = mvn_prob(TruncationBox(-np.ones(3), np.ones(3)),
                          NormalParams(np.zeros(3), sigma3))
        assert p3 > 0.3
        assert abs(p4 - p3) <= e4 + e3 + 1e-15

    def test_qmc_copied_coordinate_dim5(self):
        # the same with x5 = x1 on top of a 4-dim law: the lattice rule's
        # conditionally deterministic coordinate, now that dim 4 is not QMC
        sigma4 = 0.5 * np.eye(4) + 0.5
        copy = np.vstack([np.eye(4), np.eye(4)[:1]])
        p5, e5 = mvn_prob(TruncationBox(-np.ones(5), np.ones(5)),
                          NormalParams(np.zeros(5), copy @ sigma4 @ copy.T), FAST_QMC)
        p4, e4 = mvn_prob(TruncationBox(-np.ones(4), np.ones(4)),
                          NormalParams(np.zeros(4), sigma4))
        assert p4 > 0.2
        assert abs(p5 - p4) <= e5 + e4 + 1e-15


    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_limits_beyond_40_sd_are_infinite(self, dim):
        # Phi is 0 or 1 in double precision there; squaring 1e300 overflows
        pars = NormalParams(np.zeros(dim), 0.5 * np.eye(dim) + 0.5)
        lo, hi = np.full(dim, -1.0), np.linspace(0.5, 1.5, dim)
        for far, inf in ((1e300, np.inf), (45.0, np.inf)):
            hi_far, hi_inf = hi.copy(), hi.copy()
            hi_far[0], hi_inf[0] = far, inf
            lo_far, lo_inf = lo.copy(), lo.copy()
            lo_far[-1], lo_inf[-1] = -far, -inf
            assert (mvn_prob(TruncationBox(lo_far, hi_far), pars)
                    == mvn_prob(TruncationBox(lo_inf, hi_inf), pars))
        hi[0], lo[0] = -1e300, -np.inf
        assert mvn_prob(TruncationBox(lo, hi), pars) == (0.0, 0.0)


def _indefinite(dim: int) -> np.ndarray:
    """Unit diagonal, correlations 0.9 except r12 = -0.9: smallest eigenvalue
    -0.8 at dim 3 and -1.01 at dim 4; at dim 2 ``[[1, 2], [2, 1]]``."""
    if dim == 2:
        return np.array([[1.0, 2.0], [2.0, 1.0]])
    S = np.full((dim, dim), 0.9)
    np.fill_diagonal(S, 1.0)
    S[0, 1] = S[1, 0] = -0.9
    return S


class TestContainers:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_indefinite_scale_is_not_psd(self, dim):
        S = _indefinite(dim)
        assert np.linalg.eigvalsh(S)[0] < -0.7
        with pytest.raises(NotPSDError):
            NormalParams(np.zeros(dim), S)

    def test_singular_psd_scale_is_accepted(self):
        # x4 = x1, and a smallest eigenvalue of -1e-12 from rounding
        copy = np.vstack([np.eye(3), np.eye(3)[:1]])
        S = copy @ (0.5 * np.eye(3) + 0.5) @ copy.T
        NormalParams(np.zeros(4), S)
        NormalParams(np.zeros(4), S - 1e-12 * np.eye(4))

    def test_box_requires_strict_order(self):
        with pytest.raises(DimensionMismatchError):
            TruncationBox([0.0, 0.0], [1.0, 0.0])

    def test_qmc_config_needs_replicates(self):
        with pytest.raises(ValueError):
            QmcConfig(replicates=4)

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2^128"])
    def test_qmc_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            QmcConfig(seed=seed)
        QmcConfig(seed=2**128 - 1)

    def test_default_config(self):
        assert DEFAULT_QMC.sample_count == 8192
        assert DEFAULT_QMC.replicates == 12
        assert DEFAULT_QMC.seed == 20240101


def _cbc_criterion(z, n):
    """Worst-case error e^2 of the lattice vector ``z`` for the weighted
    shift-invariant product kernel the generator minimizes, summed directly."""
    k = np.arange(n)
    prod = np.ones(n)
    for j, zj in enumerate(z):
        x = (k * int(zj) % n) / n
        prod *= 1.0 + 0.9 ** j * (x * x - x + 1.0 / 6.0)
    return prod.mean() - 1.0


def _brute_force_cbc(dim, n):
    """Component-by-component search trying every candidate in [1, (n-1)/2]
    with direct sums; the smallest candidate wins ties."""
    k = np.arange(n)
    cand = np.arange(1, (n - 1) // 2 + 1)
    x = (np.outer(cand, k) % n) / n
    psi = x * x - x + 1.0 / 6.0
    z = [1]
    prod = 1.0 + psi[0]
    for s in range(1, dim):
        sums = (prod * (1.0 + 0.9 ** s * psi)).sum(axis=1)
        c = int(np.flatnonzero(sums <= sums.min() * (1.0 + 1e-12))[0])
        z.append(int(cand[c]))
        prod = prod * (1.0 + 0.9 ** s * psi[c])
    return z


def _lattice_ints(dim, n):
    q, n_pts = mvn._lattice_generator(dim, n)
    return [int(v) for v in np.rint(q * n_pts)]


def _qmc_reference(R, lo, hi, cfg):
    """The lattice kernel written with fresh arrays at every step: the
    reference the buffered :func:`mvn._qmc_prob` must match bit for bit."""
    from scipy.special import ndtr, ndtri

    L, lo, hi = mvn._reordered_cholesky(R, lo, hi)
    n = R.shape[0]
    if L[0, 0] > 0:
        c0, d0 = std_cdf(lo[0] / L[0, 0]), std_cdf(hi[0] / L[0, 0])
    else:
        c0, d0 = 0.0, float(lo[0] <= 0.0 <= hi[0])
    q, n_pts = mvn._lattice_generator(n - 1, cfg.sample_count)
    idx = np.arange(1, n_pts + 1)
    rng = np.random.default_rng(cfg.seed)
    estimates = np.empty(cfg.replicates)
    y = np.zeros((n - 1, n_pts))
    for r in range(cfg.replicates):
        shift = rng.random(n - 1)
        c, dc = np.full(n_pts, c0), np.full(n_pts, d0 - c0)
        pv = dc.copy()
        for i in range(1, n):
            z = q[i - 1] * idx + shift[i - 1]
            z -= np.floor(z)
            u = np.clip(c + np.abs(2.0 * z - 1.0) * dc, 1e-320, 1.0 - 1e-16)
            y[i - 1, :] = np.where(dc > 0.0, ndtri(u), 0.0)
            s = L[i, :i] @ y[:i, :]
            if L[i, i] > 0.0:
                c = ndtr((lo[i] - s) / L[i, i]) if lo[i] > -np.inf else 0.0
                d = ndtr((hi[i] - s) / L[i, i]) if hi[i] < np.inf else 1.0
            else:
                c, d = 0.0, ((lo[i] - s <= 0.0) & (hi[i] - s >= 0.0)).astype(float)
            dc = d - c
            pv = pv * dc
        estimates[r] = pv.mean()
    prob = float(estimates.mean())
    spread = float(estimates.std(ddof=1)) / math.sqrt(cfg.replicates)
    return min(1.0, max(0.0, prob)), 3.0 * spread


def test_qmc_kernel_matches_reference_bitwise(rng):
    # infinite limits, and a singular case with a conditionally
    # deterministic coordinate
    for n in (4, 5, 6, 8):
        A = rng.normal(size=(n, n))
        for singular in (False, True):
            if singular:
                A[:, -1] = A[:, 0]
            S = A @ A.T + (0.0 if singular else 0.3) * np.eye(n)
            sd = np.sqrt(np.diag(S))
            R = symmetrize(S / np.outer(sd, sd))
            np.fill_diagonal(R, 1.0)
            lo = rng.normal(size=n) - 1.0
            hi = lo + rng.uniform(0.2, 3.0, size=n)
            lo[rng.random(n) < 0.3] = -np.inf
            hi[rng.random(n) < 0.3] = np.inf
            cfg = QmcConfig(sample_count=int(rng.integers(200, 3000)), replicates=8, seed=n)
            assert mvn._qmc_prob(R, lo, hi, cfg) == _qmc_reference(R, lo, hi, cfg)


def test_univariate_kernel_matches_standardize_bitwise(rng):
    for _ in range(200):
        mu, var = rng.normal() * 3.0, rng.uniform(1e-3, 50.0)
        lo, hi = np.sort(rng.normal(size=2) * 6.0)
        lo = -np.inf if rng.random() < 0.2 else lo
        box, p = TruncationBox([lo], [hi]), NormalParams([mu], [[var]])
        _, _, a, b = mvn.standardize(box, p)
        a, b = float(a[0]), float(b[0])
        assert mvn_log_prob(box, p) == mvn._interval_log_prob(a, b)
        a, b = (-b, -a) if a > 0.0 else (a, b)
        prob = std_cdf(b) - std_cdf(a)
        assert mvn_prob(box, p) == (min(1.0, max(0.0, prob)), 0.0)


def _standardize_reference(box, p, reflect):
    """The array formula :func:`mvn.standardize` replaces: limits under
    ``errstate``, ``R`` symmetrized with a unit diagonal, and the reflection
    of coordinates above 0 by ``np.where`` and the signs' outer product."""
    sd = np.sqrt(np.diag(p.sigma))
    with np.errstate(invalid="ignore"):
        lo = (box.lower - p.mu) / sd
        hi = (box.upper - p.mu) / sd
    R = symmetrize(p.sigma / np.outer(sd, sd))
    np.fill_diagonal(R, 1.0)
    if reflect:
        flip = lo > 0.0
        lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
        v = np.where(flip, -1.0, 1.0)
        R = R * np.outer(v, v)
    return sd, R, lo, hi


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_standardize_matches_array_formula_bitwise(rng, dim):
    # scales from 1e-3 to 1e3, exact zero covariances (whose sign a reflection
    # flips), infinite limits, intervals above 0 and limits beyond +-40 sd
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-3.0, 3.0, dim)
        sigma = random_spd(rng, dim) * np.outer(scale, scale)
        sigma[np.triu(rng.random((dim, dim)) < 0.2, 1)] = 0.0
        sigma = np.triu(sigma) + np.triu(sigma, 1).T
        mu = rng.normal(size=dim) * scale
        lo = rng.normal(size=dim) * 3.0 + rng.choice([0.0, 45.0, -60.0], size=dim)
        hi = lo + rng.choice([0.5, 3.0, 50.0], size=dim)
        lo[rng.random(dim) < 0.25] = -np.inf
        hi[rng.random(dim) < 0.25] = np.inf
        box = TruncationBox(mu + lo * np.sqrt(np.diag(sigma)), mu + hi * np.sqrt(np.diag(sigma)))
        p = NormalParams(mu, sigma)
        for reflect in (False, True):
            got = mvn.standardize(box, p, reflect=reflect)
            want = _standardize_reference(box, p, reflect)
            for g, w in zip(got, want):
                assert np.array(g).tobytes() == w.tobytes(), (sigma, mu, box, reflect)


class TestLatticeGenerator:
    @pytest.mark.parametrize("n", [251, 509, 1021])
    def test_matches_brute_force_cbc(self, n):
        brute = _brute_force_cbc(6, n)
        for dim in range(2, 7):
            z = _lattice_ints(dim, n)
            assert z[0] == 1 and all(1 <= v <= (n - 1) // 2 for v in z)
            assert _cbc_criterion(z, n) == pytest.approx(
                _cbc_criterion(brute[:dim], n), rel=1e-12)

    def test_tie_takes_smallest_component(self):
        # a and a^-1 mod n always tie at the second component
        n, a = 509, 151
        inv = pow(a, -1, n)
        assert inv == 209
        assert _cbc_criterion([1, a], n) == pytest.approx(
            _cbc_criterion([1, inv], n), rel=1e-14)
        assert _lattice_ints(2, n) == [1, 151]

    def test_pinned_vectors(self):
        assert _lattice_ints(2, 4093) == [1, 1210]
        assert _lattice_ints(7, 8191) == [1, 2431, 1761, 3169, 2083, 1433, 1510]
        # sample_count is rounded down to a prime
        assert mvn._lattice_generator(2, 4096)[1] == 4093

    def test_independent_of_fft_rounding(self, monkeypatch):
        # FFT convolution rounding is ~1e-16 * m * max(q); perturb the
        # transform output by ~1e-14 * m, a hundred times more
        rng = np.random.default_rng(3)
        exact_ifft = mvn.ifft

        def noisy_ifft(x):
            return exact_ifft(x) + 1e-14 * len(x) * rng.standard_normal(len(x))

        cases = [(2, 4093), (7, 8191), (6, 509), (6, 1021)]
        expected = [_lattice_ints(d, n) for d, n in cases]
        mvn._lattice_generator.cache_clear()
        monkeypatch.setattr(mvn, "ifft", noisy_ifft)
        try:
            assert [_lattice_ints(d, n) for d, n in cases] == expected
        finally:
            mvn._lattice_generator.cache_clear()


class TestDeepShiftBox:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_interval_far_above_the_mean(self, dim):
        # the first interval is [9, 10] in standard units, where
        # Phi(10) - Phi(9) rounds to 1 - 1 = 0
        mu = np.array([3.0, 0.0, 0.0])[:dim]
        sd = np.array([2.0, 1.0, 1.0])[:dim]
        lower = np.array([21.0, -1.0, -np.inf])[:dim]
        upper = np.array([23.0, 0.5, 1.2])[:dim]
        prob, _ = mvn_prob(TruncationBox(lower, upper),
                           NormalParams(mu, np.diag(sd * sd)), FAST_QMC)
        exact = math.prod(
            std_cdf(-lo) - std_cdf(-hi) if lo > 0 else std_cdf(hi) - std_cdf(lo)
            for lo, hi in zip((lower - mu) / sd, (upper - mu) / sd)
        )
        assert exact > 1e-20
        assert prob == pytest.approx(exact, rel=1e-12, abs=0.0)


def _nested_rect(R, lo, hi):
    """P(lo <= X <= hi) for X ~ N(0, R) in three dimensions: 1-d quadrature of
    phi(x1) times the conditional bivariate rectangle of (x2, x3) given x1."""
    r12, r13, r23 = R[0, 1], R[0, 2], R[1, 2]
    s2, s3 = math.sqrt(1.0 - r12 * r12), math.sqrt(1.0 - r13 * r13)
    rho = (r23 - r12 * r13) / (s2 * s3)

    def integrand(x):
        a2, b2 = (lo[1] - r12 * x) / s2, (hi[1] - r12 * x) / s2
        a3, b3 = (lo[2] - r13 * x) / s3, (hi[2] - r13 * x) / s3
        rect = (bvn_cdf(b2, b3, rho) - bvn_cdf(a2, b3, rho)
                - bvn_cdf(b2, a3, rho) + bvn_cdf(a2, a3, rho))
        return std_pdf(x) * rect

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return quad(integrand, lo[0], hi[0], epsabs=0.0, epsrel=1e-13, limit=500)[0]


def _corr(r12, r13, r23):
    return np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])


def _tvn(lo, hi, R, cfg=DEFAULT_QMC):
    """Dimension-3 mvn_prob with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return mvn_prob(TruncationBox(lo, hi), NormalParams(np.zeros(3), R), cfg)


class TestTrivariate:
    def _check(self, lo, hi, R, ref, tol=1e-11):
        prob, err = _tvn(lo, hi, R)
        assert prob == pytest.approx(ref, abs=tol, rel=0.0)
        assert abs(prob - ref) <= err
        return prob, err

    def test_random_boxes(self, rng):
        for _ in range(8):
            a = rng.normal(size=(3, 3))
            s = a @ a.T + 0.1 * np.eye(3)
            sd = np.sqrt(np.diag(s))
            R = s / np.outer(sd, sd)
            np.fill_diagonal(R, 1.0)
            lo = -0.2 - 2.0 * rng.random(3)
            hi = lo + 0.3 + 2.5 * rng.random(3)
            lo[rng.random(3) < 0.3] = -np.inf
            hi[rng.random(3) < 0.3] = np.inf
            if np.all(np.isinf(lo)) and np.all(np.isinf(hi)):
                continue
            self._check(lo, hi, R, _nested_rect(R, lo, hi))

    def test_independent_coordinate(self):
        lo, hi = np.array([-0.4, -1.2, -np.inf]), np.array([1.1, 0.3, 0.8])
        R = _corr(0.0, 0.0, 0.6)
        exact = (std_cdf(1.1) - std_cdf(-0.4)) * (bvn_cdf(0.3, 0.8, 0.6)
                                                  - bvn_cdf(-1.2, 0.8, 0.6))
        self._check(lo, hi, R, exact, tol=1e-15)
        self._check(lo, hi, R, _nested_rect(R, lo, hi))

    @pytest.mark.parametrize("r23", [1.0, -1.0])
    def test_singular_pair(self, r23):
        # x3 = +-x2: a bivariate rectangle of (x1, x2)
        r = 0.45
        R = _corr(r, r * r23, r23)
        lo, hi = np.array([-1.0, -0.7, -0.5]), np.array([0.8, 1.3, 0.9])
        if r23 > 0:
            lo2, hi2 = max(lo[1], lo[2]), min(hi[1], hi[2])
        else:
            lo2, hi2 = max(lo[1], -hi[2]), min(hi[1], -lo[2])
        ref, _ = mvn_prob(TruncationBox([lo[0], lo2], [hi[0], hi2]),
                          NormalParams(np.zeros(2), _corr(r, 0, 0)[:2, :2]))
        prob, err = _tvn(lo, hi, R)
        assert prob == pytest.approx(ref, abs=1e-14, rel=0.0)
        assert abs(prob - ref) <= err < 1e-10

    @pytest.mark.parametrize("r23", [1.0 - 1e-12, -1.0 + 1e-12])
    def test_nearly_singular_pair(self, r23):
        r = 0.45
        R = _corr(r, r * math.copysign(1.0, r23), r23)
        lo, hi = np.array([-1.0, -0.7, -0.5]), np.array([0.8, 1.3, 0.9])
        self._check(lo, hi, R, _nested_rect(R, lo, hi))
        # equal limits, where the gap to the singular limit is largest
        lo, hi = np.array([-1.0, -0.6, -0.6]), np.array([0.8, 0.6, 0.6])
        self._check(lo, hi, R, _nested_rect(R, lo, hi))

    @pytest.mark.parametrize("eps", [1e-9, 3e-14])
    def test_nearly_singular_equicorrelated(self, eps):
        # all three correlations 1 - eps: 1-d quadrature over the common factor
        rho, h = 1.0 - eps, 0.5
        w, z0 = math.sqrt(eps), h / math.sqrt(1.0 - eps)

        def integrand(z):
            return std_pdf(z) * std_cdf((h - math.sqrt(rho) * z) / w) ** 3

        edges = [-np.inf] + [z0 + j * w for j in (-40, -8, -2, 0, 2, 8, 40)] + [np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                      for a, b in zip(edges[:-1], edges[1:]))
        R = np.full((3, 3), rho)
        np.fill_diagonal(R, 1.0)
        prob, err = _tvn(np.full(3, -np.inf), np.full(3, h), R)
        assert abs(prob - ref) <= err <= 1e-5

    def test_infinite_limits(self):
        R = _corr(0.3, -0.5, 0.4)
        for lo, hi in [
            ([-np.inf, -np.inf, -np.inf], [0.2, -0.4, 1.0]),
            ([-np.inf, -1.0, -np.inf], [np.inf, 0.5, 0.3]),
            ([-0.5, -np.inf, -np.inf], [np.inf, np.inf, 0.7]),
            ([-np.inf, -0.3, -1.5], [np.inf, np.inf, np.inf]),
        ]:
            lo, hi = np.array(lo), np.array(hi)
            self._check(lo, hi, R, _nested_rect(R, lo, hi))

    def test_deep_tail_independent_coordinate(self):
        # [-31, -30] sd in the first coordinate: ~5e-198
        lo, hi = np.array([-31.0, -1.0, -np.inf]), np.array([-30.0, 0.5, 1.2])
        prob, err = _tvn(lo, hi, np.eye(3))
        exact = ((std_cdf(-30.0) - std_cdf(-31.0)) * (std_cdf(0.5) - std_cdf(-1.0))
                 * std_cdf(1.2))
        assert exact > 1e-200
        assert prob == pytest.approx(exact, rel=1e-11, abs=0.0)
        assert abs(prob - exact) <= err

    def test_deep_tail_esn_cdf(self):
        # p = 2 ESN at tau_tilde = -34.5: the augmented orthant is ~1e-261 and
        # is divided by xi = Phi(-34.5)
        lam = np.array([0.8, -0.5])
        pr = EsnParams(mu=[0.2, -0.1], sigma=[[1.2, 0.3], [0.3, 0.9]], lam=lam,
                       tau=-34.5 * math.sqrt(1.0 + lam @ lam))
        assert esn_derive(pr).xi < 1e-250
        y = esn_limit_params(pr).mu + np.array([0.3, -0.2])
        ref = quad_oracle_2d(lambda u, v: esn_pdf(np.array([u, v]), pr),
                             y[0] - 12.0, y[0], y[1] - 12.0, y[1], tol=1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = esn_cdf(y, pr)
            prob, err = tesn_prob_with_error(TruncationBox(np.full(2, -np.inf), y), pr)
        assert value == pytest.approx(ref, abs=1e-11)
        assert prob == value and abs(value - ref) <= err

    def test_independent_of_qmc_seed(self, rng):
        R = _corr(0.35, -0.2, 0.55)
        lo, hi = np.array([-1.0, -np.inf, -0.4]), np.array([0.7, 0.9, 1.6])
        results = {_tvn(lo, hi, R, QmcConfig(seed=s)) for s in (1, 2, 12345)}
        results.add(_tvn(lo, hi, R, FAST_QMC))
        assert len(results) == 1


def _qvn_reference(lo, hi, R, j, points=()):
    """P(lo <= X <= hi) for X ~ N(0, R) in four dimensions, and its error:
    scipy's QUADPACK over ``x_j`` (with break ``points``) of phi(x_j) times
    the conditional trivariate rectangle of the other three coordinates
    given ``x_j`` (the dim-3 kernel), to a relative 1e-11 or 1e-13 of the
    mass of ``x_j``'s interval, with the integral of that kernel's estimate,
    to a relative 1e-3, added to quadrature's own."""
    rest = [k for k in range(4) if k != j]
    b = R[rest, j]
    params = NormalParams(np.zeros(3), R[np.ix_(rest, rest)] - np.outer(b, b))
    nodes = {}

    def rect(x):
        if x not in nodes:
            box = TruncationBox(lo[rest] - b * x, hi[rest] - b * x)
            nodes[x] = mvn_prob(box, params)
        return nodes[x]

    # phi is below 1e-347 outside [-40, 40]
    a, c = max(lo[j], -40.0), min(hi[j], 40.0)
    points = [x for x in points if a < x < c] or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        floor = 1e-13 * mvn_prob(TruncationBox([lo[j]], [hi[j]]), NormalParams([0.0], [[1.0]]))[0]
        val, err = quad(lambda x: std_pdf(x) * rect(x)[0], a, c, points=points,
                        epsabs=floor, epsrel=1e-11, limit=400)
        # mostly the nodes already evaluated
        inner_err = quad(lambda x: std_pdf(x) * rect(x)[1], a, c, points=points,
                         epsabs=0.0, epsrel=1e-3, limit=400)[0]
    return val, err + inner_err


def _qvn_case(rng, kind):
    """A correlation matrix, a box, the coordinate the reference integrates
    over and its break points, for one of the kinds in
    :class:`TestQuadrivariate`."""
    a = rng.normal(size=(4, 6))
    m, n = rng.choice(4, 2, replace=False)
    if kind == "near-singular":
        # x_n = +-x_m up to noise: 1 - |r_mn| from about 1e-14 to 1e-9
        a[n] = rng.choice([-1.0, 1.0]) * a[m] + 10.0 ** rng.uniform(-7.0, -4.5) * a[n]
    s = a @ a.T
    sd = np.sqrt(np.diag(s))
    R = symmetrize(s / np.outer(sd, sd))
    np.fill_diagonal(R, 1.0)
    lo = rng.normal(scale=1.5, size=4) - 1.0
    hi = lo + rng.uniform(0.2, 3.0, size=4)
    if kind == "orthant":
        lo[:] = -np.inf
        hi = rng.normal(size=4)
    elif kind == "deep-shift":
        # x_m beyond 8 to 20 sd, the others around their conditional means
        # there: L down to ~1e-90
        depth = rng.choice([-1.0, 1.0]) * rng.uniform(8.0, 20.0)
        lo, hi = R[m] * depth - rng.uniform(0.2, 2.5, 4), R[m] * depth + rng.uniform(0.2, 2.5, 4)
    if kind != "orthant":
        lo[rng.random(4) < 0.3] = -np.inf
        hi[rng.random(4) < 0.3] = np.inf
    if kind == "deep-shift":
        lo[m], hi[m] = (-np.inf, depth) if depth < 0.0 else (depth, np.inf)
    if np.all(np.isinf(lo)) and np.all(np.isinf(hi)):
        hi[0] = 0.5
    points = ()
    if kind in ("orthant", "rectangle"):
        # the coordinate of least mass: fewest quadrature nodes
        m = min(range(4), key=lambda k: std_cdf(hi[k]) - std_cdf(lo[k]))
    if kind == "near-singular":
        # given x_m, x_n is nearly deterministic: break where its mean
        # crosses one of its limits, on the scale of its sd
        r = R[m, n]
        w = math.sqrt((1.0 - r) * (1.0 + r)) / abs(r)
        points = sorted(lim / r + k * w for lim in (lo[n], hi[n]) if np.isfinite(lim)
                        for k in (-40.0, -8.0, -2.0, 0.0, 2.0, 8.0, 40.0))
    return R, lo, hi, m, points


class TestQuadrivariate:
    """The dim-4 kernel (Plackett's identity one dimension up) against
    closed forms and against an independent 1-d quadrature of the
    trivariate kernel."""

    @staticmethod
    def _prob(lo, hi, R):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return mvn_prob(TruncationBox(lo, hi), NormalParams(np.zeros(4), R))

    def test_equicorrelated_orthant(self):
        # rho = 1/2: P(X <= 0) = 1/5
        R = 0.5 * np.eye(4) + 0.5
        prob, err = self._prob(np.full(4, -np.inf), np.zeros(4), R)
        assert abs(prob - 0.2) <= err < 1e-10

    def test_block_diagonal_orthant(self):
        r1, r2 = 0.35, -0.8
        R = np.eye(4)
        R[0, 2] = R[2, 0] = r1
        R[1, 3] = R[3, 1] = r2
        exact = math.prod(0.25 + math.asin(r) / (2.0 * math.pi) for r in (r1, r2))
        prob, err = self._prob(np.full(4, -np.inf), np.zeros(4), R)
        assert abs(prob - exact) <= err < 1e-10

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_copied_coordinate(self, sign):
        # x4 = +-x1: the trivariate rectangle with x1 in the intersection
        R3 = _corr(0.3, -0.45, 0.2)
        copy = np.vstack([np.eye(3), sign * np.eye(3)[:1]])
        lo, hi = np.array([-1.0, -0.4, -np.inf, -0.6]), np.array([0.9, 1.5, 0.7, 1.2])
        lo1, hi1 = ((max(lo[0], lo[3]), min(hi[0], hi[3])) if sign > 0 else
                    (max(lo[0], -hi[3]), min(hi[0], -lo[3])))
        ref, ref_err = mvn_prob(TruncationBox([lo1, lo[1], lo[2]], [hi1, hi[1], hi[2]]),
                                NormalParams(np.zeros(3), R3))
        prob, err = self._prob(lo, hi, copy @ R3 @ copy.T)
        assert abs(prob - ref) <= err + ref_err < 1e-10

    def test_deep_shift_box_near_1e_90(self):
        # x1 below -20.2 sd, the others around their conditional means
        # there (x3 one-sided): L = 2.3e-91
        R = np.array([[1.0, 0.6, -0.3, 0.45], [0.6, 1.0, 0.2, 0.1],
                      [-0.3, 0.2, 1.0, -0.25], [0.45, 0.1, -0.25, 1.0]])
        lo = R[0] * -20.2 - np.array([0.0, 1.0, 0.8, 1.5])
        hi = R[0] * -20.2 + np.array([0.0, 1.2, 1.0, 0.5])
        lo[0], hi[0], lo[2] = -np.inf, -20.2, -np.inf
        prob, err = self._prob(lo, hi, R)
        ref, ref_err = _qvn_reference(lo, hi, R, 0)
        assert 1e-92 < ref < 1e-90
        assert abs(prob - ref) <= err + ref_err < 1e-10 * ref

    @pytest.mark.parametrize("kind", ["orthant", "rectangle", "near-singular", "deep-shift"])
    def test_against_nested_quadrature(self, rng, kind):
        worst = 0.0
        for _ in range(25):
            R, lo, hi, j, points = _qvn_case(rng, kind)
            prob, err = self._prob(lo, hi, R)
            ref, ref_err = _qvn_reference(lo, hi, R, j, points)
            assert abs(prob - ref) <= err + ref_err, (R, lo, hi, prob, ref, err)
            worst = max(worst, abs(prob - ref) / (err + ref_err)) if err + ref_err else worst
        assert worst <= 1.0

    def test_exact_inner_correlation(self, monkeypatch):
        # x4 = w1 x1 + w2 x2 with x0 weakly tied to the rest: given a pivot
        # and a second coordinate, the inner pair is often an exact +-1
        # pair, the branch of _bvn_array that the other cases leave out
        rng = np.random.default_rng(5)
        bvn_array, exact = mvn._bvn_array, []

        def spy(h, k, rho, ph, pk):
            exact.append(bool(np.any(np.abs(rho) >= 1.0 - mvn._RHO_ONE)))
            return bvn_array(h, k, rho, ph, pk)

        monkeypatch.setattr(mvn, "_bvn_array", spy)
        ref_cfg = QmcConfig(sample_count=2 ** 17, replicates=12, seed=7)
        reached = 0
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            c = a @ a.T + 0.2 * np.eye(3)
            c[0, 1:] *= 0.2
            c[1:, 0] *= 0.2
            w = rng.standard_normal(3)
            w[0] = 0.0
            t = np.vstack([np.eye(3), w])
            perm = rng.permutation(4)
            s = (t @ c @ t.T)[np.ix_(perm, perm)]
            sd = np.sqrt(np.diag(s))
            R = symmetrize(s / np.outer(sd, sd))
            np.fill_diagonal(R, 1.0)
            lo = rng.standard_normal(4) - 1.0
            hi = lo + rng.uniform(0.5, 2.5, size=4)
            exact.clear()
            prob, err = self._prob(lo, hi, R)
            reached += any(exact)
            # the reference on the box mvn_prob integrates, reflected where lo > 0
            v = np.where(lo > 0.0, -1.0, 1.0)
            ref, ref_err = mvn._qmc_prob(R * np.outer(v, v), np.where(v < 0.0, -hi, lo),
                                         np.where(v < 0.0, -lo, hi), ref_cfg)
            assert abs(prob - ref) <= err + ref_err, (R, lo, hi, prob, ref)
        assert reached >= 15

    def test_near_exact_inner_correlation(self, monkeypatch):
        # the collinear case above, with x3's variance raised by a relative
        # 1e-15: the inner correlations stop short of +-1 by a few 1e-16, so
        # the largest one is taken as +-1 and the path terms add its bound
        # (the _singular_gap loop of _path_terms)
        singular_gap, gaps = mvn._singular_gap, []

        def spy(rho):
            gap = singular_gap(rho)
            if gap and sys._getframe(1).f_code.co_name == "terms":
                gaps.append(rho)
            return gap

        monkeypatch.setattr(mvn, "_singular_gap", spy)
        ref_cfg = QmcConfig(sample_count=2 ** 17, replicates=12, seed=7)
        reached = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((3, 3))
            c = a @ a.T + 0.2 * np.eye(3)
            c[0, 1:] *= 0.2
            c[1:, 0] *= 0.2
            w = rng.standard_normal(3)
            w[0] = 0.0
            lo = rng.standard_normal(4) - 1.0
            hi = lo + rng.uniform(0.5, 2.5, size=4)
            t = np.vstack([np.eye(3), w])
            s = t @ c @ t.T
            s[3, 3] *= 1.0 + 1e-15
            sd = np.sqrt(np.diag(s))
            R = symmetrize(s / np.outer(sd, sd))
            np.fill_diagonal(R, 1.0)
            gaps.clear()
            prob, err = self._prob(lo, hi, R)
            if gaps:
                reached += 1
                assert all(0.0 < 1.0 - abs(rho) <= mvn._RHO_ONE for rho in gaps)
            v = np.where(lo > 0.0, -1.0, 1.0)
            ref, ref_err = mvn._qmc_prob(R * np.outer(v, v), np.where(v < 0.0, -hi, lo),
                                         np.where(v < 0.0, -lo, hi), ref_cfg)
            assert abs(prob - ref) <= err + ref_err, (R, lo, hi, prob, ref)
        assert reached >= 6


def _pivot_case(rng, dim, kind):
    """A correlation matrix and a box with infinite limits, for one of the
    kinds in :class:`TestAnyPivot`."""
    if kind == "equal-magnitude":
        # every |r_ij| is 0.3, so every row sum of |R| ties and the first
        # coordinate of each order is the pivot
        signs = rng.choice([-1.0, 1.0], size=(dim, dim))
        R = 0.3 * np.triu(signs, 1)
        R = R + R.T + np.eye(dim)
    else:
        a = rng.normal(size=(dim, dim + 2))
        if kind == "exact-pair":
            # x_last = +-x_0 + 1e-9 noise: r_0,last rounds to +-1 (set
            # exactly below), while the two rows differ at 1e-9
            a[-1] = rng.choice([-1.0, 1.0]) * a[0] + 1e-9 * rng.normal(size=dim + 2)
        s = a @ a.T
        sd = np.sqrt(np.diag(s))
        R = symmetrize(s / np.outer(sd, sd))
        if kind == "near-singular":
            # x_last = r x_0 + sqrt(1 - r^2) z, z independent: 1 - |r| = 1e-12
            r = rng.choice([-1.0, 1.0]) * (1.0 - 1e-12)
            R[-1, :-1] = R[:-1, -1] = r * R[0, :-1]
        elif kind == "exact-pair":
            R[0, -1] = R[-1, 0] = np.sign(R[0, -1])
        np.fill_diagonal(R, 1.0)
    lo = rng.normal(scale=1.5, size=dim) - 1.0
    hi = lo + rng.uniform(0.2, 3.0, size=dim)
    lo[1], hi[2] = -np.inf, np.inf
    if kind in ("near-singular", "exact-pair"):
        # an interval on x_last that overlaps +-x_0's (for an exact pair, by
        # at least half of x_0's width)
        shift = rng.uniform(-0.5, 0.5)
        if kind == "exact-pair":
            shift *= hi[0] - lo[0]
        lo[-1], hi[-1] = ((lo[0] + shift, hi[0] + shift) if R[0, -1] > 0.0
                          else (shift - hi[0], shift - lo[0]))
    return R, lo, hi


class TestAnyPivot:
    """Plackett's identity holds along the path of any pivot coordinate:
    every matrix on it is a convex mix of R and blockdiag(1, R_rest).  So
    every order of the coordinates gives the same rectangle probability,
    within the two estimates."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("kind", ["equal-magnitude", "random", "near-singular",
                                      "exact-pair"])
    def test_every_coordinate_order(self, rng, dim, kind):
        for _ in range(3):
            R, lo, hi = _pivot_case(rng, dim, kind)
            base = mvn_prob(TruncationBox(lo, hi), NormalParams(np.zeros(dim), R))
            assert base[0] > 1e-6
            for order in itertools.permutations(range(dim)):
                idx = list(order)
                val, err = mvn_prob(TruncationBox(lo[idx], hi[idx]),
                                    NormalParams(np.zeros(dim), R[np.ix_(idx, idx)]))
                assert abs(val - base[0]) <= err + base[1], (R, lo, hi, order)


def _kernel_corners(R, lo, hi):
    """The correlation matrix and the corners (rows of upper limits) that
    ``mvn_prob`` hands the dims 2-4 kernel for a standardized box: the
    coordinates above 0 reflected, limits beyond 40 taken as infinite."""
    flip = lo > 0.0
    lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    v = np.where(flip, -1.0, 1.0)
    assert np.all(hi > -40.0)
    cols = [(h if h < 40.0 else np.inf,) + ((l,) if l > -40.0 else ()) for l, h in zip(lo, hi)]
    return R * np.outer(v, v), np.array(list(itertools.product(*cols)))


def _batch_case(rng, dim, kind):
    """A box for :class:`TestCornerBatch`, its reference probability and the
    reference's error."""
    if kind in ("near-singular", "exact-pair"):
        R, lo, hi = _pivot_case(rng, dim, kind)
        # the pair (0, last) moves to (1, last): the references condition on
        # coordinate 0
        idx = [1, 0] + list(range(2, dim))
        R, lo, hi = R[np.ix_(idx, idx)], lo[idx], hi[idx]
        points = ()
        if kind == "near-singular" and dim == 4:
            r = R[1, -1]
            points = sorted(lim / r + k * math.sqrt((1.0 - r) * (1.0 + r)) / abs(r)
                            for lim in (lo[-1], hi[-1]) if np.isfinite(lim)
                            for k in (-40.0, -8.0, -2.0, 0.0, 2.0, 8.0, 40.0))
    elif dim == 4:
        R, lo, hi, j, points = _qvn_case(rng, kind)
        return R, lo, hi, *_qvn_reference(lo, hi, R, j, points)
    else:
        a = rng.normal(size=(3, 5))
        s = a @ a.T
        sd = np.sqrt(np.diag(s))
        R = symmetrize(s / np.outer(sd, sd))
        np.fill_diagonal(R, 1.0)
        lo = rng.normal(scale=1.5, size=3) - 1.0
        hi = lo + rng.uniform(0.2, 3.0, size=3)
        if kind == "deep-shift":
            # x_0 beyond 8 to 20 sd, the others around their conditional means
            depth = rng.choice([-1.0, 1.0]) * rng.uniform(8.0, 20.0)
            lo, hi = R[0] * depth - rng.uniform(0.2, 2.5, 3), R[0] * depth + rng.uniform(0.2, 2.5, 3)
            lo[0], hi[0] = (-np.inf, depth) if depth < 0.0 else (depth, np.inf)
        else:
            lo[1:][rng.random(2) < 0.3] = -np.inf
            hi[1:][rng.random(2) < 0.3] = np.inf
    if dim == 3:
        ref = _nested_rect(R, lo, hi)  # to a relative 1e-13
        return R, lo, hi, ref, 1e-13 * ref
    return R, lo, hi, *_qvn_reference(lo, hi, R, 0, points)


class TestCornerBatch:
    """``_cdf`` evaluates all corners of a rectangle in one call.  Each row
    gives what a call with that row alone gives, and the rectangle's
    estimate still bounds its error against the nested quadratures."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("kind", ["rectangle", "near-singular", "exact-pair", "deep-shift"])
    def test_all_corners_match_one_row_calls(self, rng, dim, kind):
        for _ in range(3):
            R, lo, hi, ref, ref_err = _batch_case(rng, dim, kind)
            Rk, H = _kernel_corners(R, lo, hi)
            cdf = mvn._cdf(Rk.tolist())
            val, err = cdf(H)
            assert len(H) > 1
            for j in range(len(H)):
                one, one_err = cdf(H[j:j + 1])
                tol = one_err[0] if one[0] < 1e-300 else 1e-14 * one[0]
                assert abs(val[j] - one[0]) <= tol, (R, H[j], val[j], one[0])
            prob, est = mvn_prob(TruncationBox(lo, hi), NormalParams(np.zeros(dim), R))
            assert abs(prob - ref) <= est + ref_err, (R, lo, hi, prob, ref)


# ----------------------------------------------------------------------------
# the Gauss-Kronrod rule under the bivariate and trivariate kernels


def _quad_reference(f, a, b):
    """The integral :func:`mvn._log_angle_quad` computes over ``log(psi)``
    in [a, b], by scipy's QUADPACK at a relative 1e-13, calling the same
    integrand one node at a time."""

    def g(u):
        psi = np.exp(np.array([u]))
        return float((psi * f(psi))[0])

    val, err, *_ = quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=500, full_output=1)
    return val, err


def _within_reported(val, err, ref, ref_err):
    """``val`` within its error plus the reference's, plus the 1e-11 relative
    the kernels add to every term they report.  That term covers the
    rounding of the nodes: where an integrand spans many decades on a short
    angle interval, QUADPACK references split at different points scatter
    by ~1e-12 relative, beyond either quadrature estimate."""
    return abs(val - ref) <= err + ref_err + mvn._TVN_REL_ERR * abs(val)


@pytest.fixture
def angle_quads(monkeypatch):
    """Every (integrand, log-angle interval, value, error) that
    ``_log_angle_quad`` returns, and one for each row of ``_angle_rows``."""
    calls = []
    scalar, rows = mvn._log_angle_quad, mvn._angle_rows

    def recording(f, a, b):
        val, err = scalar(f, a, b)
        calls.append((f, (a, b), val, err))
        return val, err

    def recording_rows(f, m, a, b):
        val, err = rows(f, m, a, b)
        for j in range(m):
            interval = tuple(float(x[j, 0]) if np.ndim(x) else x for x in (a, b))
            calls.append((lambda psi, j=j: f(psi, [j])[0], interval, val[j], err[j]))
        return val, err

    monkeypatch.setattr(mvn, "_log_angle_quad", recording)
    monkeypatch.setattr(mvn, "_angle_rows", recording_rows)
    return calls


def _near_one(rng):
    """A correlation magnitude with 1 - |rho| log-uniform in [1e-14, 1]."""
    return 1.0 - 10.0 ** rng.uniform(-14.0, 0.0)


class TestGaussKronrod:
    def test_rules_integrate_monomials_exactly(self):
        # Kronrod to degree 31, Gauss to degree 19, and neither one further
        # (odd degrees integrate to zero by symmetry)
        def errors(d):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            return np.abs(mvn._GK_W @ mvn._GK_X ** d - exact)

        for d in range(32):
            kronrod, gauss = errors(d)
            assert kronrod <= 1e-15, d
            assert gauss <= 1e-15 or d > 19, d
        assert errors(20)[1] > 1e-7 and errors(32)[0] > 1e-13

    def test_one_panel_on_a_smooth_integrand(self):
        val, err = mvn._gk21(np.exp, 0.0, 1.0)
        assert val == pytest.approx(math.e - 1.0, rel=1e-15)
        assert err == pytest.approx(50 * np.finfo(float).eps * val)

    def test_bvn_against_quadpack(self, rng, angle_quads):
        for _ in range(1000):
            h, k = rng.normal(scale=2.0, size=2)
            rho = rng.choice([-1.0, 1.0]) * _near_one(rng)
            angle_quads.clear()
            bvn_cdf(h, k, rho)
            for f, interval, val, err in angle_quads:
                ref, ref_err = _quad_reference(f, *interval)
                assert _within_reported(val, err, ref, ref_err), (h, k, rho)

    def test_trivariate_against_quadpack(self, rng, angle_quads):
        checked = 0
        for _ in range(200):
            # correlations of a random normal, then one pair pulled towards
            # +-1 so that 1 - |r| reaches 1e-14
            a = rng.normal(size=(3, 3))
            s = a @ a.T + 0.05 * np.eye(3)
            sd = np.sqrt(np.diag(s))
            R = s / np.outer(sd, sd)
            if rng.random() < 0.5:
                r23 = rng.choice([-1.0, 1.0]) * _near_one(rng)
                scale = math.sqrt(1.0 - r23 * r23)
                R = _corr(R[0, 1] * scale, R[0, 2] * scale, r23)
            np.fill_diagonal(R, 1.0)
            lo = rng.normal(scale=1.5, size=3) - 1.0
            hi = lo + rng.uniform(0.2, 3.0, size=3)
            lo[rng.random(3) < 0.3] = -np.inf
            hi[rng.random(3) < 0.2] = np.inf
            if np.all(np.isinf(lo)) and np.all(np.isinf(hi)):
                continue
            if np.linalg.eigvalsh(R)[0] < 0.0:
                continue
            angle_quads.clear()
            mvn_prob(TruncationBox(lo, hi), NormalParams(np.zeros(3), R))
            for f, interval, val, err in angle_quads:
                ref, ref_err = _quad_reference(f, *interval)
                assert _within_reported(val, err, ref, ref_err), (R, lo, hi)
                checked += 1
        assert checked > 1000

    def test_deep_shift_estimate_bounds_error(self):
        # p = 1 at tau_tilde = -20: the estimate of the bivariate rectangle is
        # relative to its terms, so dividing by xi = 2.8e-89 leaves it small
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[1.0], tau=-20.0 * math.sqrt(2.0))
        assert esn_derive(pr).xi < 1e-88
        prob, err = tesn_prob_with_error(TruncationBox([0.0], [np.inf]), pr)
        ref = quad_oracle_1d(lambda x: esn_pdf(np.array([x]), pr), 0.0, np.inf,
                             tol=1e-12)
        assert math.isfinite(err) and err < 1e-9
        assert abs(prob - ref) <= err
