import math

import numpy as np
import pytest

from truncskew import (
    DegenerateBoxError,
    EsnParams,
    NormalParams,
    NotPSDError,
    PartitionIndex,
    TnSession,
    TruncationBox,
    conditional_normal,
    count_integrals,
    mvn_prob,
    quad_oracle_1d,
    std_cdf,
    std_pdf,
    tn_first_two_corrected,
    tesn_mean_cov,
    tesn_moments,
    tn_first_two_mgf,
    tn_fk,
    tn_mgf_work,
)

from truncskew.mvn import bvn_pdf

from conftest import (
    FAST_QMC,
    bvn_conditional,
    moments_by_quad,
    random_spd,
    tn_conditional,
    unit_index,
)


def _univariate_tn_mean_var(a, b, mu, var):
    """Textbook doubly truncated normal mean and variance."""
    sd = math.sqrt(var)
    alpha, beta = (a - mu) / sd, (b - mu) / sd
    z = std_cdf(beta) - std_cdf(alpha)
    pa, pb = std_pdf(alpha), std_pdf(beta)
    mean = mu + sd * (pa - pb) / z
    term_a = alpha * pa if np.isfinite(alpha) else 0.0
    term_b = beta * pb if np.isfinite(beta) else 0.0
    v = var * (1 + (term_a - term_b) / z - ((pa - pb) / z) ** 2)
    return mean, v


class TestRecurrence:
    def test_order_zero_is_probability(self, rng):
        pars = NormalParams(rng.normal(size=2), random_spd(rng, 2))
        box = TruncationBox(pars.mu - 1.0, pars.mu + 0.5)
        assert tn_fk(box, pars, (0, 0), cfg=FAST_QMC) == pytest.approx(
            mvn_prob(box, pars, FAST_QMC)[0], abs=1e-14)

    def test_halfline_first_moment(self):
        pars = NormalParams([0.0], [[1.0]])
        box = TruncationBox([0.0], [np.inf])
        assert tn_fk(box, pars, (1,)) == pytest.approx(0.3989422804014327, abs=1e-13)

    def test_univariate_against_quadrature(self):
        pars = NormalParams([0.4], [[1.7]])
        a, b = -0.8, 2.3
        session = TnSession(TruncationBox([a], [b]), pars)
        for k in range(1, 6):
            ref = quad_oracle_1d(
                lambda x: x**k * std_pdf((x - 0.4) / math.sqrt(1.7)) / math.sqrt(1.7),
                a, b)
            assert session.fk((k,)) == pytest.approx(ref, rel=1e-10)

    def test_bivariate_third_order_vs_mc(self, rng):
        mu = np.array([0.3, -0.2])
        sigma = np.array([[2.0, -0.6], [-0.6, 1.0]])
        box = TruncationBox([-1.0, -1.5], [1.5, 0.8])
        draws = rng.multivariate_normal(mu, sigma, size=10_000_000)
        keep = np.all((draws >= box.lower) & (draws <= box.upper), axis=1)
        x = draws[keep]
        vals = x[:, 0] ** 2 * x[:, 1]
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        session = TnSession(box, NormalParams(mu, sigma))
        analytic = session.fk((2, 1)) / session.prob()
        assert abs(analytic - mc) <= 4 * se

    def test_infinite_edges_drop_terms(self, rng):
        # replacing a finite bound by a very remote one converges to the
        # infinite-bound value, which drops the edge term exactly
        pars = NormalParams(rng.normal(size=2), random_spd(rng, 2))
        box_inf = TruncationBox([-np.inf, -1.0], [1.0, 1.5])
        box_far = TruncationBox([-40.0, -1.0], [1.0, 1.5])
        v_inf = tn_fk(box_inf, pars, (2, 1), cfg=FAST_QMC)
        v_far = tn_fk(box_far, pars, (2, 1), cfg=FAST_QMC)
        assert v_inf == pytest.approx(v_far, rel=1e-9, abs=1e-12)


# dimension-2 boxes x0 x x1 and correlations of mass 4e-57 to 7e-15
_TAIL_BOXES = [
    ([-20.0, -10.0], [-9.0, 10.0], -0.5), ([-20.0, -10.0], [-8.0, 10.0], -0.5),
    ([8.0, -1.0], [9.0, 1.0], 0.3), ([7.0, 7.0], [8.0, 8.0], -0.6),
    ([-9.0, -9.0], [-7.5, -7.0], 0.2), ([6.0, -np.inf], [np.inf, -6.0], -0.3),
    ([-np.inf, 5.0], [-7.0, np.inf], 0.7), ([7.5, 1.0], [np.inf, 3.0], 0.5),
]


def _check_against_quadrature(box, pars, ref_mean, ref_cov):
    """The MGF moments on ``box``: the mean within ``1e-12 + L_err / L`` of
    the reference's largest |mean|, the raw second moment within that of
    its largest entry, ``L`` and ``L_err`` being the normalizer and its
    estimate.  (The covariance, their difference, loses more where the box
    is narrow against its distance from the mean.)"""
    L, L_err = mvn_prob(box, pars)
    m = tn_first_two_mgf(box, pars)
    rel = 1e-12 + L_err / L
    ref_raw2 = ref_cov + np.outer(ref_mean, ref_mean)
    assert np.abs(m.mean - ref_mean).max() <= rel * np.abs(ref_mean).max(), (m.mean, ref_mean)
    assert np.abs(m.raw2 - ref_raw2).max() <= rel * np.abs(ref_raw2).max(), (m.raw2, ref_raw2)
    return m


def _assert_routes_agree(box, pars, m):
    """The recurrence mean/cov and both ``tesn_moments`` methods, on the
    same law as a skew-normal of lam = 0, give the MGF mean and raw second
    moment to 1e-12 of their largest entries."""
    n = pars.dim
    law = EsnParams(pars.mu, pars.sigma, np.zeros(n), 0.0)
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    kappas = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    kappas += [tuple(int(k == i) + int(k == j) for k in range(n)) for i, j in idx]
    r = tesn_mean_cov(box, law, method="recurrence")
    routes = [(r.mean, [r.raw2[i, j] for i, j in idx])]
    for method in ("recurrence", "normal-reduction"):
        got = [tesn_moments(box, law, kappas, method=method)[k] for k in kappas]
        routes.append((got[:n], got[n:]))
    raw2 = np.array([m.raw2[i, j] for i, j in idx])
    for mean, second in routes:
        assert np.abs(mean - m.mean).max() <= 1e-12 * np.abs(m.mean).max()
        assert np.abs(second - raw2).max() <= 1e-12 * np.abs(raw2).max()


class TestMgf:
    def test_halfnormal(self):
        box = TruncationBox([0.0], [np.inf])
        m = tn_first_two_mgf(box, NormalParams([0.0], [[1.0]]))
        assert m.mean[0] == pytest.approx(math.sqrt(2 / math.pi), abs=1e-13)
        assert m.raw2[0, 0] == pytest.approx(1.0, abs=1e-13)

    def test_symmetric_box_zero_mean(self, rng):
        sigma = random_spd(rng, 3)
        box = TruncationBox(-1.3 * np.sqrt(np.diag(sigma)),
                            1.3 * np.sqrt(np.diag(sigma)))
        m = tn_first_two_mgf(box, NormalParams(np.zeros(3), sigma), FAST_QMC)
        np.testing.assert_allclose(m.mean, np.zeros(3), atol=5e-7)

    def test_univariate_closed_form(self, rng):
        for _ in range(5):
            mu = float(rng.normal())
            var = float(0.3 + 2 * rng.random())
            a = mu - 1.6 * rng.random() * math.sqrt(var)
            b = mu + (0.4 + rng.random()) * math.sqrt(var)
            m = tn_first_two_mgf(TruncationBox([a], [b]), NormalParams([mu], [[var]]))
            mean_ref, var_ref = _univariate_tn_mean_var(a, b, mu, var)
            assert m.mean[0] == pytest.approx(mean_ref, rel=1e-11)
            assert m.cov[0, 0] == pytest.approx(var_ref, rel=1e-10)

    def test_univariate_recycled_diagonal(self):
        # for one dimension H must reduce to a*q_a - b*q_b with no matrix term
        box = TruncationBox([-0.7], [1.1])
        w = tn_mgf_work(box, NormalParams([0.2], [[1.5]]))
        a, b = w.a[0], w.b[0]
        assert w.H[0, 0] == pytest.approx(a * w.q_a[0] - b * w.q_b[0], rel=1e-13)

    def test_matches_recurrence(self, rng):
        for p in (2, 3):
            pars = NormalParams(rng.normal(size=p), random_spd(rng, p))
            sd = np.sqrt(np.diag(pars.sigma))
            box = TruncationBox(pars.mu - (0.5 + rng.random(p)) * sd,
                                pars.mu + (0.5 + rng.random(p)) * sd)
            m = tn_first_two_mgf(box, pars, FAST_QMC)
            session = TnSession(box, pars, FAST_QMC)
            L = session.prob()
            mean_rec = np.array([session.fk(unit_index(p, i)) for i in range(p)]) / L
            np.testing.assert_allclose(m.mean, mean_rec, rtol=5e-5, atol=5e-7)
            for i in range(p):
                for j in range(i, p):
                    kappa = tuple((unit_index(p, i)[k] + unit_index(p, j)[k])
                                  for k in range(p))
                    assert m.raw2[i, j] == pytest.approx(
                        session.fk(kappa) / L, rel=5e-5, abs=5e-7)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_ingredients_against_textbook(self, rng, p):
        # L, the edges q and the corners H[i, j] (i != j) from their
        # definitions on N(0, R): an edge is phi(v) times the rectangle of the
        # other coordinates given x_i = v, a corner phi2(v_i, v_j; r_ij) times
        # the rectangle given both
        pars = NormalParams(rng.normal(size=p), random_spd(rng, p))
        sd = np.sqrt(np.diag(pars.sigma))
        lower = pars.mu - (0.3 + rng.random(p)) * sd
        upper = pars.mu + (0.3 + rng.random(p)) * sd
        lower[0] = -np.inf
        upper[-1] = np.inf
        w = tn_mgf_work(TruncationBox(lower, upper), pars)
        R, a, b = w.R, w.a, w.b

        def rect(fixed, values):
            part = PartitionIndex.dropping(p, fixed)
            if not part.kept:
                return 1.0, 0.0
            keep = list(part.kept)
            mean, cov = conditional_normal(np.zeros(p), R, part, values)
            return mvn_prob(TruncationBox(a[keep], b[keep]), NormalParams(mean, cov))

        assert (w.L, w.L_err) == mvn_prob(TruncationBox(a, b), NormalParams(np.zeros(p), R))
        for i in range(p):
            for q, v in ((w.q_a, a[i]), (w.q_b, b[i])):
                if np.isinf(v):
                    assert q[i] == 0.0
                    continue
                val, err = rect([i], [v])
                ref = std_pdf(v) * val
                assert abs(q[i] - ref) <= std_pdf(v) * 2.0 * err + 1e-12 * ref
        for i in range(p):
            for j in range(i + 1, p):
                ref = tol = 0.0
                for vi, vj, sign in ((a[i], a[j], 1.0), (b[i], a[j], -1.0),
                                     (a[i], b[j], -1.0), (b[i], b[j], 1.0)):
                    if np.isinf(vi) or np.isinf(vj):
                        continue
                    dens = bvn_pdf(vi, vj, R[i, j])
                    val, err = rect([i, j], [vi, vj])
                    ref += sign * dens * val
                    tol += dens * (2.0 * err + 1e-12 * val)
                assert w.H[j, i] == w.H[i, j]
                assert abs(w.H[i, j] - ref) <= tol

    @pytest.mark.parametrize("p,calls", [(3, {3: 1, 2: 5, 1: 8}), (4, {4: 1, 3: 7, 2: 18})])
    def test_kernel_calls(self, rng, p, calls):
        # one call at dim p, one at p - 1 per finite bound (2p - 1 of them)
        # and one at p - 2 per pair of finite bounds on two coordinates
        pars = NormalParams(rng.normal(size=p), random_spd(rng, p))
        sd = np.sqrt(np.diag(pars.sigma))
        upper = pars.mu + sd
        upper[-1] = np.inf
        with count_integrals() as counter:
            tn_first_two_mgf(TruncationBox(pars.mu - sd, upper), pars)
        assert counter.by_dim == calls

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pair_near_one_collapses(self, sign):
        # x1 = sign x0 up to a correlation 1e-14 from +-1: the moments are
        # those of (x0, x2) with x0 on the intersected interval, to
        # O(sqrt(1e-14)); the slice x0 = bound leaves x1 a variance of 2e-14
        r = sign * (1.0 - 1e-14)
        sigma = [[1.0, r, 0.3], [r, 1.0, 0.3 * sign], [0.3, 0.3 * sign, 1.0]]
        m = tn_first_two_mgf(TruncationBox([-1.0, -0.5, -1.0], [1.5, 1.5, np.inf]),
                             NormalParams(np.zeros(3), sigma))
        lo, hi = (-0.5, 1.5) if sign > 0 else (-1.0, 0.5)
        ref = tn_first_two_mgf(TruncationBox([lo, -1.0], [hi, np.inf]),
                               NormalParams(np.zeros(2), [[1.0, 0.3], [0.3, 1.0]]))
        T = np.array([[1.0, 0.0], [sign, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(m.mean, T @ ref.mean, atol=1e-7)
        np.testing.assert_allclose(m.cov, T @ ref.cov @ T.T, atol=1e-7)
        sigma[0][1] = sigma[1][0] = sign
        with pytest.raises(NotPSDError):
            tn_first_two_mgf(TruncationBox([-1.0, -0.5, -1.0], [1.5, 1.5, np.inf]),
                             NormalParams(np.zeros(3), sigma))

    def test_bivariate_tail_boxes_against_quadrature(self):
        # boxes of mass 4e-57 to 7e-15, which a fixed floor once refused:
        # means within 1e-12, covariances within 1e-8 of the largest entry
        for lo, hi, rho in _TAIL_BOXES:
            lo, hi = np.array(lo), np.array(hi)
            ref_mean, ref_cov = moments_by_quad(lo, hi, bvn_conditional(lo, hi, rho))
            box, pars = TruncationBox(lo, hi), NormalParams(np.zeros(2), [[1.0, rho], [rho, 1.0]])
            m = _check_against_quadrature(box, pars, ref_mean, ref_cov)
            assert np.all(np.abs(m.mean - ref_mean) <= 1e-12 * np.abs(ref_mean)), (lo, hi, rho)
            assert np.abs(m.cov - ref_cov).max() <= 1e-8 * np.abs(ref_cov).max(), (lo, hi, rho)
            _assert_routes_agree(box, pars, m)

    def test_random_tail_boxes_one_gate(self, rng):
        # random boxes of mass 1e-290 to 2e-13: each is refused by the
        # normalizer gate, or answered as accurately as its estimate says
        answered = 0
        while answered < 100:
            rho = rng.uniform(-0.99, 0.99)
            lo = rng.uniform(-30.0, 30.0, size=2)
            hi = lo + np.exp(rng.uniform(-3.0, 1.5, size=2))
            lo[rng.random(2) < 0.2] = -np.inf
            hi[rng.random(2) < 0.2] = np.inf
            mu, sd = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
            pars = NormalParams(mu, np.outer(sd, sd) * [[1.0, rho], [rho, 1.0]])
            box = TruncationBox(mu + sd * lo, mu + sd * hi)
            L, L_err = mvn_prob(box, pars)
            if not 1e-290 <= L <= 2e-13:
                continue
            if L < 20.0 * L_err:
                with pytest.raises(DegenerateBoxError):
                    tn_first_two_mgf(box, pars)
                continue
            ref_mean, ref_cov = moments_by_quad(lo, hi, bvn_conditional(lo, hi, rho))
            m = _check_against_quadrature(box, pars, mu + sd * ref_mean,
                                          np.outer(sd, sd) * ref_cov)
            _assert_routes_agree(box, pars, m)
            answered += 1

    def test_tail_boxes_at_dims_1_and_3_against_quadrature(self):
        for lo, hi in (([30.0], [31.0]), ([-np.inf], [-35.0]), ([20.0], [np.inf])):
            ref_mean, ref_cov = moments_by_quad(lo, hi, lambda x: (0.0, (), ()))
            _check_against_quadrature(TruncationBox(lo, hi), NormalParams([0.0], [[1.0]]),
                                      ref_mean, ref_cov)
        R = np.array([[1.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 1.0]])
        for lo, hi in (([9.0, -1.0, -np.inf], [10.0, 2.0, 0.5]),
                       ([-np.inf, -2.0, 0.0], [-12.0, 1.0, np.inf])):
            lo, hi = np.array(lo), np.array(hi)
            ref_mean, ref_cov = moments_by_quad(lo, hi, tn_conditional(lo, hi, R))
            box, pars = TruncationBox(lo, hi), NormalParams(np.zeros(3), R)
            _assert_routes_agree(box, pars, _check_against_quadrature(box, pars, ref_mean, ref_cov))

    def test_unresolved_box_raises(self):
        # equicorrelated 0.7 on (-inf, -8] x [-1, 1]^3: the corner terms
        # cancel far below their own estimate
        sigma = np.full((4, 4), 0.7)
        np.fill_diagonal(sigma, 1.0)
        box = TruncationBox([-np.inf, -1.0, -1.0, -1.0], [-8.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateBoxError):
            tn_first_two_mgf(box, NormalParams(np.zeros(4), sigma))


class TestCorrected:
    def test_no_truncation(self, rng):
        pars = NormalParams(rng.normal(size=3), random_spd(rng, 3))
        m = tn_first_two_corrected(TruncationBox.unbounded(3), pars)
        np.testing.assert_allclose(m.mean, pars.mu, atol=1e-14)
        np.testing.assert_allclose(m.cov, pars.sigma, atol=1e-14)
        assert m.corrections == ()

    def test_extreme_interval_example(self):
        # unit variances, covariance -0.5, box far out in coordinate 1:
        # other software returns means outside the box / Inf; this must not
        sigma = np.array([[1.0, -0.5], [-0.5, 1.0]])
        pars = NormalParams([0.0, 0.0], sigma)
        box = TruncationBox([-20.0, -10.0], [-9.0, 10.0])
        m = tn_first_two_corrected(box, pars)
        assert np.all(np.isfinite(m.mean)) and np.all(np.isfinite(m.cov))
        assert np.all(m.mean >= box.lower) and np.all(m.mean <= box.upper)
        assert np.linalg.eigvalsh(m.cov)[0] >= -1e-12
        assert "out-of-bounds coord 1" in m.corrections
        # degenerate coordinate: pinned at the near bound with zero variance
        assert m.mean[0] == -9.0
        assert 0.0 <= m.cov[0, 0] <= 0.02
        assert np.all(m.cov[0, :] == 0.0) and np.all(m.cov[:, 0] == 0.0)
        # remaining coordinate against the conditional-construction oracle:
        # X2 | X1 = -9 is N(4.5, 0.75) truncated to [-10, 10]
        rng = np.random.default_rng(7)
        draws = 4.5 + math.sqrt(0.75) * rng.standard_normal(1_000_000)
        draws = draws[(draws >= -10.0) & (draws <= 10.0)]
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(m.mean[1] - draws.mean()) <= 4 * se
        assert m.cov[1, 1] == pytest.approx(draws.var(ddof=1), rel=0.01)

    def test_extreme_interval_variant(self):
        sigma = np.array([[1.0, -0.5], [-0.5, 1.0]])
        box = TruncationBox([-20.0, -10.0], [-13.0, 10.0])
        m = tn_first_two_corrected(box, NormalParams([0.0, 0.0], sigma))
        assert np.all(np.isfinite(m.mean)) and np.all(np.isfinite(m.cov))
        assert np.all(m.mean >= box.lower) and np.all(m.mean <= box.upper)

    def test_degeneration_monotone_in_tail(self):
        sigma = np.array([[1.0, -0.5], [-0.5, 1.0]])
        pars = NormalParams([0.0, 0.0], sigma)
        gaps, variances = [], []
        for b1 in (-15.0, -25.0, -35.0):
            m = tn_first_two_corrected(
                TruncationBox([-50.0, -10.0], [b1, 10.0]), pars)
            gaps.append(abs(m.mean[0] - b1))
            variances.append(m.cov[0, 0])
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert variances[0] >= variances[1] >= variances[2]
        assert variances[-1] == 0.0

    def test_jointly_degenerate_box_pins_its_least_probable_coordinate(self):
        # each marginal interval holds 1.3e-3, above the out-of-bounds screen,
        # while the joint mass under correlation -0.999 is numerically zero
        pars = NormalParams([0.0, 0.0], [[1.0, -0.999], [-0.999, 1.0]])
        box = TruncationBox([3.0, 3.0], [4.0, 4.0])
        assert mvn_prob(box, pars) == (0.0, 0.0)
        m = tn_first_two_corrected(box, pars)
        assert m.corrections == ("jointly-degenerate, pinned coord 1", "out-of-bounds coord 2")
        assert np.all(m.mean >= box.lower) and np.all(m.mean <= box.upper)
        assert np.all(np.isfinite(m.cov))
        assert np.linalg.eigvalsh(m.cov)[0] >= -1e-12

    def test_double_infinite_split(self, rng):
        # one free coordinate: moments must match brute-force Monte Carlo
        mu = rng.normal(size=3)
        sigma = random_spd(rng, 3)
        sd = np.sqrt(np.diag(sigma))
        box = TruncationBox(
            [-np.inf, mu[1] - 0.8 * sd[1], mu[2] - 1.2 * sd[2]],
            [np.inf, mu[1] + 1.0 * sd[1], mu[2] + 0.6 * sd[2]],
        )
        m = tn_first_two_corrected(box, NormalParams(mu, sigma), FAST_QMC)
        assert any(c.startswith("double-infinite") for c in m.corrections)
        draws = rng.multivariate_normal(mu, sigma, size=2_000_000)
        keep = np.all((draws >= box.lower) & (draws <= box.upper), axis=1)
        x = draws[keep]
        se = x.std(axis=0, ddof=1) / math.sqrt(len(x))
        assert np.all(np.abs(m.mean - x.mean(axis=0)) <= 4 * se + 1e-9)
        # covariance entries carry MC noise ~sigma_i sigma_j / sqrt(n_acc)
        np.testing.assert_allclose(m.cov, np.cov(x.T), rtol=0.02, atol=0.006)

    def test_mean_containment_random(self, rng):
        for _ in range(10):
            p = int(rng.integers(1, 5))
            pars = NormalParams(rng.normal(size=p), random_spd(rng, p))
            sd = np.sqrt(np.diag(pars.sigma))
            lower = pars.mu - (0.3 + 2 * rng.random(p)) * sd
            upper = pars.mu + (0.3 + 2 * rng.random(p)) * sd
            lower[rng.random(p) < 0.2] = -np.inf
            upper[rng.random(p) < 0.2] = np.inf
            box = TruncationBox(lower, upper)
            m = tn_first_two_corrected(box, pars, FAST_QMC)
            assert np.all(m.mean >= box.lower) and np.all(m.mean <= box.upper)
            assert np.linalg.eigvalsh(m.cov)[0] >= -1e-8 * max(np.trace(m.cov), 1.0)

    def test_oracle_agreement_50_instances(self, rng):
        failures = []
        for trial in range(50):
            p = int(rng.integers(1, 5))
            pars = NormalParams(rng.normal(size=p) * 0.5, random_spd(rng, p))
            sd = np.sqrt(np.diag(pars.sigma))
            box = TruncationBox(pars.mu - (0.4 + 1.6 * rng.random(p)) * sd,
                                pars.mu + (0.4 + 1.6 * rng.random(p)) * sd)
            if mvn_prob(box, pars, FAST_QMC)[0] < 1e-3:
                continue
            draws = rng.multivariate_normal(pars.mu, pars.sigma, size=1_000_000)
            keep = np.all((draws >= box.lower) & (draws <= box.upper), axis=1)
            x = draws[keep]
            nacc = len(x)
            m = tn_first_two_corrected(box, pars, FAST_QMC)
            se_mean = x.std(axis=0, ddof=1) / math.sqrt(nacc)
            if np.any(np.abs(m.mean - x.mean(axis=0)) > 4 * se_mean + 1e-7):
                failures.append((trial, "mean"))
                continue
            cov_mc = np.cov(x.T).reshape(p, p)
            centered = x - x.mean(axis=0)
            for i in range(p):
                for j in range(p):
                    prod = centered[:, i] * centered[:, j]
                    se = prod.std(ddof=1) / math.sqrt(nacc)
                    if abs(m.cov[i, j] - cov_mc[i, j]) > 4 * se + 1e-7:
                        failures.append((trial, f"cov[{i},{j}]"))
        assert not failures, f"oracle disagreements: {failures}"
