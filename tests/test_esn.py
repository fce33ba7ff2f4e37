import math
import sys
from collections import Counter

import numpy as np
import pytest

import truncskew.esn as esn_module
from truncskew import (
    EsnParams,
    NormalParams,
    PartitionIndex,
    TruncationBox,
    augment,
    esn_cdf,
    esn_conditional,
    esn_derive,
    esn_limit_params,
    esn_marginal,
    esn_mean_cov,
    esn_pdf,
    esn_sample,
    fesn_mean_cov,
    mvn_pdf,
    mvn_prob,
    quad_oracle_1d,
    quad_oracle_2d,
    reduce_to_normal,
    tesn_mean_cov,
    tesn_prob,
    tesn_prob_with_error,
)

from conftest import FAST_QMC, random_esn_params, random_spd


def _eta(pr: EsnParams, d) -> float:
    """eta = phi(tau; 0, 1 + lam'lam) / xi, the factor in delta = eta sqrt(1 +
    lam'lam) Delta, formed in log space from the derived log xi."""
    n2 = 1.0 + float(pr.lam @ pr.lam)
    return math.exp(-0.5 * (math.log(2.0 * math.pi * n2) + pr.tau * pr.tau / n2) - d.log_xi)


class TestDerive:
    def test_normal_case(self):
        pr = EsnParams.normal([0.0, 1.0], np.eye(2))
        d = esn_derive(pr)
        assert d.xi == 0.5
        np.testing.assert_array_equal(d.Delta, np.zeros(2))
        np.testing.assert_array_equal(d.Gamma, np.eye(2))
        np.testing.assert_array_equal(d.mu_b, np.zeros(2))
        assert _eta(pr, d) == pytest.approx(2 * 0.3989422804014327, abs=1e-14)

    def test_scalar_skewed(self):
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[1.0], tau=0.0)
        d = esn_derive(pr)
        assert d.Delta[0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert d.Gamma[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert _eta(pr, d) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-14)
        # delta = eta * sqrt(1 + lam'lam) * Delta
        assert d.delta[0] == pytest.approx(_eta(pr, d) * math.sqrt(2) * d.Delta[0], abs=1e-14)
        assert d.delta[0] == pytest.approx(1 / math.sqrt(math.pi), abs=1e-14)

    def test_delta_consistency_random(self, rng):
        for p in (1, 2, 4):
            pr = random_esn_params(rng, p)
            d = esn_derive(pr)
            np.testing.assert_allclose(
                d.delta, _eta(pr, d) * math.sqrt(1.0 + pr.lam @ pr.lam) * d.Delta, rtol=1e-12)
            assert np.linalg.eigvalsh(d.Gamma)[0] > 0
            assert 0.0 < d.xi <= 1.0

    def test_deep_shift_log_channel(self):
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[0.0], tau=-40.0)
        d = esn_derive(pr)
        assert d.xi == 0.0  # linear channel underflows
        assert d.log_xi == pytest.approx(-804.6084420137538, abs=1e-9)
        assert math.isfinite(_eta(pr, d))


@pytest.fixture
def derivations(monkeypatch):
    """The laws passed to ``esn_derive``, in call order, from every module of
    the package that binds the function."""
    original = esn_module.esn_derive
    laws = []

    def counted(p):
        laws.append(p)
        return original(p)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "truncskew":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return laws


def _derivations_per_law(laws) -> Counter:
    return Counter(map(id, laws))  # ``laws`` keeps every object alive


class TestDeriveOnce:
    """Each law derives its constants once, on first use, as ``derived``."""

    def test_recurrence_mean_cov_derives_the_law_once(self, rng, derivations):
        pr = random_esn_params(rng, 2)
        box = TruncationBox(pr.mu - 1.0, pr.mu + 1.5)
        tesn_mean_cov(box, pr, FAST_QMC, method="recurrence")
        assert pr.derived.hidden
        per_law = _derivations_per_law(derivations)
        assert per_law[id(pr)] == 1
        assert max(per_law.values()) == 1

    def test_folded_mean_cov_derives_each_law_once(self, rng, derivations):
        pr = random_esn_params(rng, 3)
        fesn_mean_cov(pr, FAST_QMC)
        per_law = _derivations_per_law(derivations)
        assert per_law[id(pr)] == 1
        assert max(per_law.values()) == 1

    def test_caller_arrays_are_copied(self, rng):
        mu, sigma, lam = rng.normal(size=2), random_spd(rng, 2), np.array([0.7, -0.4])
        saved = [a.copy() for a in (mu, sigma, lam)]
        pr = EsnParams(mu=mu, sigma=sigma, lam=lam, tau=0.3)
        d = pr.derived
        for a in (mu, sigma, lam):
            a[...] = 0.0
        for kept, before in zip((pr.mu, pr.sigma, pr.lam), saved):
            np.testing.assert_array_equal(kept, before)
        assert pr.derived is d
        fresh = esn_derive(pr)
        for field in ("varphi", "Delta", "delta", "mu_b", "Gamma"):
            np.testing.assert_array_equal(getattr(d, field), getattr(fresh, field))
        assert (d.xi, d.log_xi, d.hidden) == (fresh.xi, fresh.log_xi, fresh.hidden)

    @pytest.mark.parametrize("field", ["mu", "sigma", "lam"])
    def test_law_arrays_are_read_only(self, rng, field):
        pr = random_esn_params(rng, 2)
        with pytest.raises(ValueError, match="read-only"):
            getattr(pr, field)[0] = 1.0


class TestPdf:
    def test_reduces_to_normal(self, rng):
        pr = EsnParams.normal(rng.normal(size=2), random_spd(rng, 2))
        norm = NormalParams(pr.mu, pr.sigma)
        for _ in range(5):
            x = rng.normal(size=2)
            assert esn_pdf(x, pr) == pytest.approx(mvn_pdf(x, norm), rel=1e-12)

    def test_lambda_zero_is_the_normal_bitwise(self, rng):
        # at lam = 0 the selection factor's two log terms are the same double
        differ = 0
        for _ in range(200):
            p = int(rng.integers(1, 5))
            tau = float(rng.normal() * 3.0) if rng.random() < 0.5 else 0.0
            pr = EsnParams(mu=rng.normal(size=p), sigma=random_spd(rng, p),
                           lam=np.zeros(p), tau=tau)
            x = pr.mu + 2.0 * rng.normal(size=p)
            differ += esn_pdf(x, pr) != mvn_pdf(x, NormalParams(pr.mu, pr.sigma))
        assert differ == 0

    def test_skew_normal_at_center(self, rng):
        pr = EsnParams(mu=[0.4, -0.2], sigma=random_spd(rng, 2),
                       lam=[1.0, -2.0], tau=0.0)
        norm = NormalParams(pr.mu, pr.sigma)
        # Phi(0) = 1/2 and xi = 1/2 cancel at the location point
        assert esn_pdf(pr.mu, pr) == pytest.approx(mvn_pdf(pr.mu, norm), rel=1e-13)

    def test_large_positive_shift_is_normal(self, rng):
        pr = EsnParams(mu=[0.1, 0.0], sigma=random_spd(rng, 2),
                       lam=[0.7, -0.4], tau=50.0)
        norm = NormalParams(pr.mu, pr.sigma)
        for _ in range(5):
            x = rng.normal(size=2) * 2
            assert esn_pdf(x, pr) == pytest.approx(mvn_pdf(x, norm), rel=1e-12)

    def test_integrates_to_one_1d(self):
        pr = EsnParams(mu=[0.3], sigma=[[1.4]], lam=[2.0], tau=-0.6)
        total = quad_oracle_1d(lambda x: esn_pdf([x], pr), -12.0, 12.0)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_integrates_to_one_2d(self):
        pr = EsnParams(mu=[0.1, -0.2], sigma=[[1.0, 0.4], [0.4, 0.8]],
                       lam=[1.0, 0.5], tau=0.4)
        total = quad_oracle_2d(lambda x, y: esn_pdf([x, y], pr),
                               -8.0, 8.0, -8.0, 8.0, tol=1e-6)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_marginal_conditional_factorization(self, rng):
        pr = random_esn_params(rng, 3)
        x = rng.normal(size=3)
        joint = esn_pdf(x, pr)
        for j in range(3):
            keep = PartitionIndex.dropping(3, [k for k in range(3) if k != j])
            marg = esn_marginal(pr, keep)
            cond = esn_conditional(pr, PartitionIndex.dropping(3, [j]), [x[j]])
            prod = esn_pdf([x[j]], marg) * esn_pdf(np.delete(x, j), cond)
            assert joint == pytest.approx(prod, rel=1e-10)


class TestCdf:
    def test_far_upper_corner_is_one(self, rng):
        pr = random_esn_params(rng, 2)
        sd = np.sqrt(np.diag(pr.sigma))
        val = esn_cdf(pr.mu + 10 * sd, pr, FAST_QMC)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_skew_normal_quarter(self):
        # dim 1, unit scale, lam 1, tau 0 at the origin: exactly 1/4
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[1.0], tau=0.0)
        assert esn_cdf([0.0], pr) == pytest.approx(0.25, abs=1e-13)

    def test_factor_two_identity_at_zero_shift(self, rng):
        # the zero-shift cdf equals twice the augmented normal orthant value
        pr = EsnParams(mu=[0.2, -0.1], sigma=random_spd(rng, 2),
                       lam=[0.8, -0.5], tau=0.0)
        y = rng.normal(size=2)
        aug = augment(pr, TruncationBox(np.full(2, -np.inf), y))
        direct, err = mvn_prob(aug.box, aug.params, FAST_QMC)
        assert esn_cdf(y, pr, FAST_QMC) == pytest.approx(2 * direct, abs=4 * err)

    def test_against_sampler(self, rng):
        pr = random_esn_params(rng, 2)
        y = pr.mu + 0.5
        draws = esn_sample(pr, 400_000, seed=77)
        hits = np.all(draws <= y, axis=1)
        se = math.sqrt(hits.mean() * (1 - hits.mean()) / len(hits))
        assert esn_cdf(y, pr, FAST_QMC) == pytest.approx(hits.mean(), abs=4 * se + 1e-5)

    def test_reduces_to_normal(self, rng):
        pr = EsnParams.normal(rng.normal(size=2), random_spd(rng, 2))
        y = pr.mu + 0.3
        box = TruncationBox(np.full(2, -np.inf), y)
        ref, err = mvn_prob(box, NormalParams(pr.mu, pr.sigma), FAST_QMC)
        # the skewed side goes through one more (stochastic) dimension
        assert esn_cdf(y, pr, FAST_QMC) == pytest.approx(ref, abs=2 * err + 1e-5)


class TestMarginalConditional:
    def test_normal_reduction(self, rng):
        pr = EsnParams.normal(rng.normal(size=3), random_spd(rng, 3))
        keep = PartitionIndex.dropping(3, [2])
        marg = esn_marginal(pr, keep)
        np.testing.assert_allclose(marg.mu, pr.mu[:2], atol=1e-14)
        np.testing.assert_allclose(marg.sigma, pr.sigma[:2, :2], atol=1e-14)
        np.testing.assert_allclose(marg.lam, np.zeros(2), atol=1e-12)
        v = rng.normal(size=1)
        cond = esn_conditional(pr, PartitionIndex.dropping(3, [2]), v)
        from truncskew import conditional_normal
        mean_ref, cov_ref = conditional_normal(pr.mu, pr.sigma,
                                               PartitionIndex.dropping(3, [2]), v)
        np.testing.assert_allclose(cond.mu, mean_ref, atol=1e-12)
        np.testing.assert_allclose(cond.sigma, cov_ref, atol=1e-12)
        np.testing.assert_allclose(cond.lam, np.zeros(2), atol=1e-12)

    def test_diagonal_single_skew(self):
        pr = EsnParams(mu=[0.0, 1.0], sigma=np.diag([1.0, 2.0]),
                       lam=[1.3, 0.0], tau=0.7)
        marg = esn_marginal(pr, PartitionIndex.dropping(2, [1]))
        assert marg.lam[0] == pytest.approx(1.3, abs=1e-13)
        assert marg.tau == pytest.approx(0.7, abs=1e-13)

    def test_marginal_pdf_matches_integrated_joint(self, rng):
        pr = random_esn_params(rng, 3)
        keep = PartitionIndex.dropping(3, [1, 2])
        marg = esn_marginal(pr, keep)
        sd = np.sqrt(np.diag(pr.sigma))
        lo1, hi1 = pr.mu[1] - 8 * sd[1], pr.mu[1] + 8 * sd[1]
        lo2, hi2 = pr.mu[2] - 8 * sd[2], pr.mu[2] + 8 * sd[2]
        for x0 in np.linspace(pr.mu[0] - 1.5 * sd[0], pr.mu[0] + 1.5 * sd[0], 5):
            integrated = quad_oracle_2d(
                lambda u, v: esn_pdf([x0, u, v], pr), lo1, hi1, lo2, hi2, tol=1e-7)
            assert esn_pdf([x0], marg) == pytest.approx(integrated, abs=1e-6)


class TestMeanCov:
    def test_normal_case(self, rng):
        mu = rng.normal(size=3)
        sigma = random_spd(rng, 3)
        m = esn_mean_cov(EsnParams.normal(mu, sigma))
        np.testing.assert_allclose(m.mean, mu, atol=1e-14)
        np.testing.assert_allclose(m.cov, sigma, atol=1e-14)

    def test_scalar_skew_normal(self):
        m = esn_mean_cov(EsnParams(mu=[0.0], sigma=[[1.0]], lam=[1.0], tau=0.0))
        assert m.mean[0] == pytest.approx(0.564190, abs=1e-6)
        assert m.cov[0, 0] == pytest.approx(1 - 1 / math.pi, abs=1e-12)

    def test_against_unbounded_truncation(self, rng):
        pr = random_esn_params(rng, 2)
        closed = esn_mean_cov(pr)
        boxed = tesn_mean_cov(TruncationBox.unbounded(2), pr, FAST_QMC)
        np.testing.assert_allclose(boxed.mean, closed.mean, rtol=5e-5, atol=5e-5)
        np.testing.assert_allclose(boxed.cov, closed.cov, rtol=5e-5, atol=5e-5)

    def test_raw2_consistency(self, rng):
        pr = random_esn_params(rng, 3)
        m = esn_mean_cov(pr)
        np.testing.assert_allclose(m.raw2, m.cov + np.outer(m.mean, m.mean),
                                   rtol=1e-12)


class TestLimit:
    def test_normal_case(self, rng):
        pr = EsnParams.normal(rng.normal(size=2), random_spd(rng, 2))
        lim = esn_limit_params(pr)
        np.testing.assert_allclose(lim.mu, pr.mu, atol=1e-14)
        np.testing.assert_allclose(lim.sigma, pr.sigma, atol=1e-14)

    def test_scalar_substitution(self):
        pr = EsnParams(mu=[2.0], sigma=[[1.0]], lam=[1.0], tau=-80.0)
        lim = esn_limit_params(pr)
        assert lim.mu[0] == pytest.approx(42.0, abs=1e-10)
        assert lim.sigma[0, 0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="the limiting law converges at Mills-ratio rate: at the switch "
               "point the exact density is offset by ~|Delta|/35 in location, "
               "so the sup gap on a +-3 sd grid is ~1e-1 relative for "
               "order-one skewness, not 1e-3; see the scale check below and "
               "the acceptance report",
    )
    def test_pdf_gap_at_switch_point(self):
        # documented target: relative gap below 1e-3 at tau_tilde = -35
        lam = 1.0
        tau = -35.0 * math.sqrt(1 + lam * lam)
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[lam], tau=tau)
        lim = esn_limit_params(pr)
        grid = lim.mu[0] + np.linspace(-3, 3, 21) * math.sqrt(lim.sigma[0, 0])
        gaps = [
            abs(esn_pdf([x], pr) / mvn_pdf([x], lim) - 1.0) for x in grid
        ]
        assert max(gaps) < 1e-3

    def test_pdf_gap_at_switch_point_scale(self):
        # what actually holds at the switch point: the gap is governed by the
        # Mills-ratio correction E[T | T < -35] + 35 ~ 1/35, i.e. a location
        # offset of |Delta|/35, giving a sup gap of order 1e-1 relative on a
        # +-3 sd grid -- small enough for probabilities, visible for densities
        lam = 1.0
        tau = -35.0 * math.sqrt(1 + lam * lam)
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[lam], tau=tau)
        lim = esn_limit_params(pr)
        sd = math.sqrt(lim.sigma[0, 0])
        grid = lim.mu[0] + np.linspace(-3, 3, 21) * sd
        sup = max(abs(esn_pdf([x], pr) / mvn_pdf([x], lim) - 1.0) for x in grid)
        offset = (1 / math.sqrt(2)) * (1 / 35.0) / sd  # |Delta|/35 in sd units
        assert 0.5 * 3 * offset < sup < 4 * 3 * offset

    def test_convergence_monotone(self):
        lam = 1.5
        sup_gaps = []
        for tt in (-10.0, -20.0, -30.0):
            tau = tt * math.sqrt(1 + lam * lam)
            pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[lam], tau=tau)
            lim = esn_limit_params(pr)
            grid = lim.mu[0] + np.linspace(-4, 4, 41) * math.sqrt(lim.sigma[0, 0])
            sup_gaps.append(max(abs(esn_pdf([x], pr) - mvn_pdf([x], lim))
                                for x in grid))
        assert sup_gaps[0] > sup_gaps[1] > sup_gaps[2]


class TestSampler:
    def test_mean_converges(self):
        pr = EsnParams.normal([1.0, -2.0], np.eye(2))
        for n, tol in ((10_000, 0.05), (160_000, 0.0125)):
            draws = esn_sample(pr, n, seed=3)
            assert np.max(np.abs(draws.mean(axis=0) - pr.mu)) < 4 * tol

    def test_moments_match_closed_form(self, rng):
        pr = random_esn_params(rng, 2)
        n = 1_000_000
        draws = esn_sample(pr, n, seed=11)
        m = esn_mean_cov(pr)
        se_mean = np.sqrt(np.diag(m.cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - m.mean) <= 4 * se_mean)
        cov_mc = np.cov(draws.T)
        assert np.max(np.abs(cov_mc - m.cov)) < 0.01

    def test_conditional_path(self):
        # lam = 0, tau = -10: the selection is independent of the draw, so the
        # law is exactly normal; log xi ~ -53 forces the conditional sampler
        pr = EsnParams(mu=[0.5], sigma=[[2.0]], lam=[0.0], tau=-10.0)
        draws = esn_sample(pr, 400_000, seed=21)
        assert draws.mean() == pytest.approx(0.5, abs=4 * math.sqrt(2.0 / 400_000))
        assert draws.var() == pytest.approx(2.0, rel=0.02)

    def test_deterministic(self):
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[2.0], tau=0.3)
        a = esn_sample(pr, 1000, seed=9)
        b = esn_sample(pr, 1000, seed=9)
        np.testing.assert_array_equal(a, b)

    @staticmethod
    def _scipy_sample(p, n, seed):
        # the sampler as it was when X2 came from scipy.special.ndtri_exp
        from scipy.special import ndtri_exp

        rng = np.random.Generator(np.random.Philox(key=seed))
        d = p.derived
        x2 = ndtri_exp(d.log_xi + np.log(rng.random(n)))
        z = rng.standard_normal((n, p.dim))
        return p.mu - np.outer(x2, d.Delta) + z @ esn_module._psd_factor(d.Gamma).T

    @pytest.mark.parametrize("lam, tau_tilde", [
        ([0.8, -0.5], 0.3), ([1.5, 2.0], 2.5), ([0.8, -0.5], -3.0),
        ([0.8, -0.5], -40.0), ([0.0, 0.0], -1.0),
    ])
    @pytest.mark.parametrize("seed", [1, 17, 2024])
    def test_matches_scipy_quantile_sampler(self, lam, tau_tilde, seed):
        # tau_tilde = -40 puts every log xi + log U below -800, where the
        # quantile takes Newton steps past AS241's range; at lam = 0 X2 is
        # drawn and discarded.  Draws near 0 keep X2's absolute error, a few
        # ulps of X2 Delta, hence the absolute floor.
        lam = np.array(lam)
        pr = EsnParams(mu=[0.3, -1.2], sigma=[[1.5, 0.4], [0.4, 0.8]], lam=lam,
                       tau=tau_tilde * math.sqrt(1.0 + lam @ lam))
        got = esn_sample(pr, 20_000, seed)
        np.testing.assert_allclose(got, self._scipy_sample(pr, 20_000, seed),
                                   rtol=1e-12, atol=1e-14)


class TestTinyNormalizer:
    # tau_tilde = -34.5 lies above the switch point with xi ~ 4e-261, so the
    # normal rectangle is divided by xi directly

    def test_univariate_against_quadrature(self):
        # at lam = 2.5 the bivariate rectangles are ~1e-261, far below any
        # absolute quadrature tolerance
        for lam in (1.0, 2.5):
            pr = EsnParams(mu=[0.4], sigma=[[2.0]], lam=[lam],
                           tau=-34.5 * math.sqrt(1.0 + lam * lam))
            assert esn_derive(pr).xi < 1e-250
            center = esn_limit_params(pr).mu[0]

            def dens(x):
                return esn_pdf([x], pr)

            for y in (center - 1.0, center, center + 0.7):
                ref = quad_oracle_1d(dens, center - 15.0 * math.sqrt(2.0), y)
                assert esn_cdf([y], pr) == pytest.approx(ref, abs=1e-7)
                ref = quad_oracle_1d(dens, center - 1.0, y + 1.0)
                box = TruncationBox([center - 1.0], [y + 1.0])
                assert tesn_prob(box, pr) == pytest.approx(ref, abs=1e-7)

    def test_bivariate_cdf_is_the_lower_box_probability(self, rng):
        lam = np.array([0.8, -0.5])
        pr = EsnParams(mu=[0.2, -0.1], sigma=random_spd(rng, 2), lam=lam,
                       tau=-34.5 * math.sqrt(1.0 + lam @ lam))
        y = esn_limit_params(pr).mu + 0.3
        box = TruncationBox(np.full(2, -np.inf), y)
        assert esn_cdf(y, pr, FAST_QMC) == tesn_prob(box, pr, FAST_QMC)


class TestProbRoundTrip:
    """Every box probability goes through ``NormalReduction.prob``."""

    @pytest.mark.parametrize("tau_tilde, lam", [
        (0.4, [0.9, -0.6]), (-20.0, [0.9, -0.6]), (-40.0, [0.9, -0.6]), (-3.0, [0.0, 0.0]),
    ])
    def test_cdf_is_the_prob_of_the_lower_orthant(self, tau_tilde, lam):
        lam = np.array(lam)
        pr = EsnParams(mu=[0.3, -0.2], sigma=[[1.2, 0.5], [0.5, 0.8]], lam=lam,
                       tau=tau_tilde * math.sqrt(1.0 + lam @ lam))
        y = esn_mean_cov(pr).mean + np.array([0.4, -0.3])
        box = TruncationBox(np.full(2, -np.inf), y)
        via_box = tesn_prob_with_error(box, pr, FAST_QMC)
        assert esn_cdf(y, pr, FAST_QMC) == via_box[0]
        assert reduce_to_normal(box, pr).prob(FAST_QMC) == via_box
        assert 0.0 < via_box[0] < 1.0


class TestSingleContainer:
    """``augment`` returns the reduction itself, not a second container."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_augment_is_the_hidden_reduction(self, rng, p):
        pr = random_esn_params(rng, p)
        d = esn_derive(pr)
        assert d.hidden
        box = TruncationBox(pr.mu - 1.0, pr.mu + rng.uniform(0.5, 2.0, size=p))
        aug, red = augment(pr, box), reduce_to_normal(box, pr)
        assert aug.box.lower.tobytes() == red.box.lower.tobytes()
        assert aug.box.upper.tobytes() == red.box.upper.tobytes()
        assert aug.params.mu.tobytes() == red.params.mu.tobytes()
        assert aug.params.sigma.tobytes() == red.params.sigma.tobytes()
        assert aug.hidden is red.hidden is True
        assert aug.xi == red.xi == d.xi
        assert aug.corrections == red.corrections == ()
        assert aug.lift((1,) * p) == red.lift((1,) * p) == (1,) * p + (0,)
        prob, err = mvn_prob(aug.box, aug.params, FAST_QMC)
        prob = min(1.0, prob / d.xi)
        rounding = (4.0 * abs(math.log(d.xi)) + 1.0) * 2.0 ** -53 * prob
        assert aug.prob(FAST_QMC) == (prob, err / d.xi + rounding)
