import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.integrate import quad
from scipy.special import owens_t

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
from truncskew.errors import DimensionMismatchError
from truncskew.esn import esn_cdf, esn_derive, esn_limit_params, esn_pdf
from truncskew.oracle import quad_oracle_2d

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
        pars = NormalParams(rng.normal(size=4), random_spd(rng, 4))
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
        # equicorrelated 4-d orthant with rho=1/2: exact value 1/(2^4) * ... not
        # closed form; use a very heavy run as reference instead
        sigma = np.full((4, 4), 0.5)
        np.fill_diagonal(sigma, 1.0)
        pars = NormalParams(np.zeros(4), sigma)
        box = TruncationBox(np.full(4, -np.inf), np.zeros(4))
        ref, ref_err = mvn_prob(box, pars, QmcConfig(sample_count=2**16,
                                                     replicates=24, seed=5))
        val, err = mvn_prob(box, pars, FAST_QMC)
        assert abs(val - ref) <= 3 * (err + ref_err)

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


class TestContainers:
    def test_box_requires_strict_order(self):
        with pytest.raises(DimensionMismatchError):
            TruncationBox([0.0, 0.0], [1.0, 0.0])

    def test_qmc_config_needs_replicates(self):
        with pytest.raises(ValueError):
            QmcConfig(replicates=4)

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
