import math

import numpy as np
import pytest

from truncskew import (
    DegenerateBoxError,
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
    tn_first_two_mgf,
    tn_fk,
    tn_mgf_work,
)

from truncskew.mvn import bvn_pdf

from conftest import FAST_QMC, random_spd, unit_index


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

    def test_degenerate_box_raises(self):
        sigma = np.array([[1.0, -0.5], [-0.5, 1.0]])
        box = TruncationBox([-20.0, -10.0], [-9.0, 10.0])
        with pytest.raises(DegenerateBoxError):
            tn_first_two_mgf(box, NormalParams([0.0, 0.0], sigma))


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
