import math
import sys

import numpy as np
import pytest

from truncskew import (
    DegenerateBoxError,
    EsnParams,
    NormalParams,
    PartitionIndex,
    TesnSession,
    TnSession,
    TruncationBox,
    count_integrals,
    edge_conditional,
    esn_limit_params,
    esn_marginal,
    esn_mean_cov,
    esn_pdf,
    esn_sample,
    mvn_prob,
    quad_oracle_1d,
    quad_oracle_2d,
    reduce_to_normal,
    tesn_fk,
    tesn_fk_univariate,
    tesn_fk_via_normal,
    tesn_mean_cov,
    tesn_moment,
    tesn_prob,
    tesn_prob_with_error,
    tn_first_two_corrected,
    tn_first_two_mgf,
    tn_fk,
)

from truncskew import tesn

from conftest import (
    FAST_QMC,
    far_tail_limit_box,
    moments_by_quad,
    random_esn_params,
    random_instance_with_mass,
    random_spd,
    tn_conditional,
    unit_index,
    unresolved_box,
)


class TestXiRounding:
    """The box-probability estimate covers the rounding of
    xi = exp(log Phi(tau_tilde)), whose relative error grows with |log xi|."""

    @pytest.mark.parametrize("tau_tilde", [-10.0, -20.0, -30.0])
    def test_half_space_within_its_estimate(self, tau_tilde):
        # quadrature puts P(x_0 < 0) below 2e-24 here: the truth is 1
        lam = np.array([1.0, 0.5])
        pr = EsnParams(mu=[0.0, 0.0], sigma=[[1.0, 0.3], [0.3, 1.0]], lam=lam,
                       tau=tau_tilde * math.sqrt(1.0 + lam @ lam))
        prob, err = tesn_prob_with_error(TruncationBox([0.0, -np.inf], [np.inf, np.inf]), pr)
        assert abs(prob - 1.0) <= err

    def test_bound_covers_xi_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for tau_tilde in np.linspace(-35.0, 0.0, 351):
                xi = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[0.0], tau=tau_tilde).derived.xi
                exact = mpmath.ncdf(mpmath.mpf(float(tau_tilde)))
                bound = (4.0 * abs(math.log(xi)) + 1.0) * 2.0 ** -53
                assert abs(mpmath.mpf(xi) / exact - 1) <= bound


class TestProb:
    def test_full_space(self, rng):
        for p in (1, 2, 3):
            pr = random_esn_params(rng, p)
            val, err = tesn_prob_with_error(TruncationBox.unbounded(p), pr, FAST_QMC)
            assert val == pytest.approx(1.0, abs=max(3 * err, 1e-9))

    def test_normal_reduction(self, rng):
        pr = EsnParams.normal(rng.normal(size=2), random_spd(rng, 2))
        sd = np.sqrt(np.diag(pr.sigma))
        box = TruncationBox(pr.mu - sd, pr.mu + 0.7 * sd)
        ref, ref_err = mvn_prob(box, NormalParams(pr.mu, pr.sigma), FAST_QMC)
        val, err = tesn_prob_with_error(box, pr, FAST_QMC)
        assert abs(val - ref) <= 2 * (err + ref_err)

    def test_skew_halfline(self):
        # unit-scale skew-normal with unit slant: P(Y > 0) = 3/4 exactly
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[1.0], tau=0.0)
        val = tesn_prob(TruncationBox([0.0], [np.inf]), pr)
        assert val == pytest.approx(0.75, abs=1e-12)

    def test_nested_boxes_monotone(self, rng):
        pr = random_esn_params(rng, 2)
        sd = np.sqrt(np.diag(pr.sigma))
        inner = TruncationBox(pr.mu - 0.6 * sd, pr.mu + 0.5 * sd)
        outer = TruncationBox(pr.mu - 1.5 * sd, pr.mu + 1.4 * sd)
        vi, ei = tesn_prob_with_error(inner, pr, FAST_QMC)
        vo, eo = tesn_prob_with_error(outer, pr, FAST_QMC)
        assert vo >= vi - (ei + eo)


class TestUnivariate:
    def test_normal_case_first_moment(self):
        pr = EsnParams.normal([0.0], [[1.0]])
        table = tesn_fk_univariate(0.0, np.inf, pr, 1)
        assert table[(1,)] == pytest.approx(0.3989422804014327, abs=1e-13)

    def test_order_zero_matches_prob(self):
        pr = EsnParams(mu=[0.2], sigma=[[1.1]], lam=[-0.8], tau=0.5)
        table = tesn_fk_univariate(-0.5, 1.5, pr, 0)
        assert table[(0,)] == pytest.approx(
            tesn_prob(TruncationBox([-0.5], [1.5]), pr), abs=1e-12)

    def test_against_quadrature(self):
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[2.0], tau=1.0)
        table = tesn_fk_univariate(-1.0, 2.0, pr, 4)
        for k in range(5):
            ref = quad_oracle_1d(lambda x, k=k: x**k * esn_pdf([x], pr), -1.0, 2.0)
            assert table[(k,)] == pytest.approx(ref, abs=1e-9)


class TestRecurrence:
    def test_order_zero(self, rng):
        box, pr = random_instance_with_mass(rng, 2)
        assert tesn_fk(box, pr, (0, 0), cfg=FAST_QMC) == pytest.approx(
            tesn_prob(box, pr, FAST_QMC), abs=1e-12)

    def test_untruncated_first_moments(self, rng):
        pr = random_esn_params(rng, 3)
        closed = esn_mean_cov(pr)
        session = TesnSession(TruncationBox.unbounded(3), pr, FAST_QMC)
        for i in range(3):
            val = session.fk(unit_index(3, i)) / session.prob()
            assert val == pytest.approx(closed.mean[i], rel=5e-5, abs=5e-5)

    def test_mixed_moment_vs_mc(self, rng):
        box, pr = random_instance_with_mass(rng, 2, min_prob=0.05)
        draws = esn_sample(pr, 10_000_000, seed=123)
        keep = np.all((draws >= box.lower) & (draws <= box.upper), axis=1)
        x = draws[keep]
        vals = x[:, 0] * x[:, 1]
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        session = TesnSession(box, pr, FAST_QMC)
        analytic = session.fk((1, 1)) / session.prob()
        assert abs(analytic - vals.mean()) <= 4 * se


class TestNormalReduction:
    def test_cross_method_30_instances(self, rng):
        worst = 0.0
        for trial in range(30):
            p = int(rng.integers(1, 4))
            box, pr = random_instance_with_mass(rng, p, min_prob=1e-3)
            kappa = tuple(int(v) for v in rng.integers(0, 2, size=p))
            if sum(kappa) == 0:
                kappa = unit_index(p, int(rng.integers(0, p)))
            if sum(kappa) < 3 and rng.random() < 0.5:
                kappa = tuple(min(k + 1, 3) for k in kappa)
            v_rec = tesn_fk(box, pr, kappa, cfg=FAST_QMC)
            v_nr = tesn_fk_via_normal(box, pr, kappa, cfg=FAST_QMC)
            rel = abs(v_rec - v_nr) / max(abs(v_nr), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-4, f"worst relative gap {worst:.2e}"

    def test_normal_case_structure(self, rng):
        pr = EsnParams.normal(rng.normal(size=2), random_spd(rng, 2))
        sd = np.sqrt(np.diag(pr.sigma))
        box = TruncationBox(pr.mu - sd, pr.mu + sd)
        v_esn = tesn_fk_via_normal(box, pr, (1, 1), cfg=FAST_QMC)
        v_norm = tn_fk(box, NormalParams(pr.mu, pr.sigma), (1, 1), cfg=FAST_QMC)
        assert v_esn == pytest.approx(v_norm, rel=1e-5)

    def test_order_zero_is_prob(self, rng):
        box, pr = random_instance_with_mass(rng, 2)
        v = tesn_fk_via_normal(box, pr, (0, 0), cfg=FAST_QMC)
        assert v == pytest.approx(tesn_prob(box, pr, FAST_QMC), abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -3.0, -40.0])
    def test_lambda_zero_drops_the_hidden_coordinate(self, rng, tau):
        # at lam = 0 the hidden coordinate is independent of Y with mass xi,
        # so dropping it is exact on either side of the switch point
        pr = EsnParams(mu=rng.normal(size=3), sigma=random_spd(rng, 3),
                       lam=np.zeros(3), tau=tau)
        box = TruncationBox(pr.mu - 1.0, pr.mu + 2.0)
        red = reduce_to_normal(box, pr)
        assert red.hidden is False
        assert red.xi == 1.0
        assert red.corrections == ()
        assert red.box is box
        assert red.params.mu.tobytes() == pr.mu.tobytes()
        assert red.params.sigma.tobytes() == pr.sigma.tobytes()

    def test_normal_moment_stays_p_dimensional(self, rng):
        pr = EsnParams.normal(rng.normal(size=3) * 0.5, random_spd(rng, 3))
        sd = np.sqrt(np.diag(pr.sigma))
        box = TruncationBox(pr.mu - sd, pr.mu + 1.5 * sd)
        with count_integrals() as counter:
            value = tesn_moment(box, pr, (1, 1, 1), FAST_QMC)
        assert max(counter.by_dim) == 3
        session = TnSession(box, NormalParams(pr.mu, pr.sigma), FAST_QMC)
        assert value == pytest.approx(session.fk((1, 1, 1)) / session.prob(), abs=1e-12)


class TestMoment:
    def test_order_zero_is_one(self, rng):
        box, pr = random_instance_with_mass(rng, 2)
        assert tesn_moment(box, pr, (0, 0), FAST_QMC) == 1.0

    def test_symmetric_zero(self):
        pr = EsnParams.normal([0.0, 0.0], [[1.0, 0.4], [0.4, 1.0]])
        box = TruncationBox([-1.2, -1.2], [1.2, 1.2])
        assert tesn_moment(box, pr, (1, 0), FAST_QMC) == pytest.approx(0.0, abs=1e-12)

    def test_against_oracle(self, rng):
        from truncskew import mc_tesn_moment
        box, pr = random_instance_with_mass(rng, 2, min_prob=0.02)
        est = mc_tesn_moment(box, pr, (1, 1), 1_000_000, seed=31)
        val = tesn_moment(box, pr, (1, 1), FAST_QMC)
        assert abs(val - est.value) <= 4 * est.std_error

    def test_degenerate_box(self):
        pr = EsnParams.normal([0.0, 0.0], np.eye(2))
        box = TruncationBox([-60.0, -60.0], [-55.0, -55.0])
        with pytest.raises(DegenerateBoxError):
            tesn_moment(box, pr, (1, 0), FAST_QMC)

    def test_moment_order_cap(self, rng):
        from truncskew import DimensionTooLargeError
        box, pr = random_instance_with_mass(rng, 1)
        with pytest.raises(DimensionTooLargeError):
            tesn_moment(box, pr, (9,), FAST_QMC)


class TestMeanCov:
    def test_normal_reduction_matches_tn(self, rng):
        pr = EsnParams.normal(rng.normal(size=2), random_spd(rng, 2))
        sd = np.sqrt(np.diag(pr.sigma))
        box = TruncationBox(pr.mu - 0.9 * sd, pr.mu + 1.2 * sd)
        m_esn = tesn_mean_cov(box, pr, FAST_QMC)
        m_tn = tn_first_two_corrected(box, NormalParams(pr.mu, pr.sigma), FAST_QMC)
        np.testing.assert_allclose(m_esn.mean, m_tn.mean, atol=1e-6)
        np.testing.assert_allclose(m_esn.cov, m_tn.cov, atol=1e-6)

    def test_untruncated_matches_closed_form(self, rng):
        pr = random_esn_params(rng, 3)
        m = tesn_mean_cov(TruncationBox.unbounded(3), pr, FAST_QMC)
        closed = esn_mean_cov(pr)
        np.testing.assert_allclose(m.mean, closed.mean, rtol=5e-5, atol=5e-5)
        np.testing.assert_allclose(m.cov, closed.cov, rtol=5e-5, atol=5e-5)

    def test_methods_agree(self, rng):
        for _ in range(5):
            p = int(rng.integers(1, 4))
            box, pr = random_instance_with_mass(rng, p, min_prob=1e-2,
                                                allow_infinite=False)
            m_nr = tesn_mean_cov(box, pr, FAST_QMC, method="normal-reduction")
            m_rec = tesn_mean_cov(box, pr, FAST_QMC, method="recurrence")
            np.testing.assert_allclose(m_rec.mean, m_nr.mean, rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(m_rec.cov, m_nr.cov, rtol=1e-4, atol=1e-5)

    def test_deep_shift_routes_to_limit(self, rng):
        pr = random_esn_params(rng, 2)
        deep = EsnParams(mu=pr.mu, sigma=pr.sigma, lam=pr.lam, tau=-200.0)
        sd = np.sqrt(np.diag(pr.sigma))
        box = TruncationBox(pr.mu - sd, pr.mu + sd)
        m = tesn_mean_cov(box, deep, FAST_QMC)
        ref = tn_first_two_corrected(box, esn_limit_params(deep), FAST_QMC)
        np.testing.assert_allclose(m.mean, ref.mean, atol=1e-6)
        np.testing.assert_allclose(m.cov, ref.cov, atol=1e-6)
        assert "limit-tau" in m.corrections

    def test_mean_containment_and_psd(self, rng):
        for _ in range(8):
            p = int(rng.integers(1, 4))
            box, pr = random_instance_with_mass(rng, p, min_prob=1e-3)
            m = tesn_mean_cov(box, pr, FAST_QMC)
            assert np.all(m.mean >= box.lower) and np.all(m.mean <= box.upper)
            assert np.linalg.eigvalsh(m.cov)[0] >= -1e-8 * max(np.trace(m.cov), 1.0)

    def test_boundary_term_vanishing(self, rng):
        # pushing a finite lower bound far out reproduces the infinite-bound
        # result, whose edge term is dropped exactly
        pr = random_esn_params(rng, 2)
        sd = np.sqrt(np.diag(pr.sigma))
        hi = pr.mu + 0.8 * sd
        box_inf = TruncationBox([-np.inf, pr.mu[1] - sd[1]], hi)
        box_far = TruncationBox([pr.mu[0] - 35 * sd[0], pr.mu[1] - sd[1]], hi)
        m_inf = tesn_mean_cov(box_inf, pr, FAST_QMC)
        m_far = tesn_mean_cov(box_far, pr, FAST_QMC)
        np.testing.assert_allclose(m_inf.mean, m_far.mean, atol=1e-8)
        np.testing.assert_allclose(m_inf.cov, m_far.cov, atol=1e-8)

    def test_recurrence_with_massless_companion(self):
        # the companion normal N(mu - mu_b, Gamma) puts numerically zero mass
        # on the box while the skewed law's mass there is healthy
        pr = EsnParams(mu=[0.0, 0.0], sigma=[[1.0, 0.3], [0.3, 1.0]],
                       lam=[3.0, 0.0], tau=60.0)
        box = TruncationBox([-1.0, -1.0], [1.0, 1.5])
        m_nr = tesn_mean_cov(box, pr, method="normal-reduction")
        m_rec = tesn_mean_cov(box, pr, method="recurrence")
        np.testing.assert_allclose(m_rec.mean, m_nr.mean, rtol=0, atol=1e-8)
        np.testing.assert_allclose(m_rec.raw2, m_nr.raw2, rtol=0, atol=1e-8)
        np.testing.assert_allclose(m_rec.cov, m_nr.cov, rtol=0, atol=1e-8)

    def test_against_sampler(self, rng):
        box, pr = random_instance_with_mass(rng, 3, min_prob=0.05)
        m = tesn_mean_cov(box, pr, FAST_QMC)
        draws = esn_sample(pr, 3_000_000, seed=17)
        keep = np.all((draws >= box.lower) & (draws <= box.upper), axis=1)
        x = draws[keep]
        se = x.std(axis=0, ddof=1) / math.sqrt(len(x))
        assert np.all(np.abs(m.mean - x.mean(axis=0)) <= 4 * se + 1e-6)
        np.testing.assert_allclose(m.cov, np.cov(x.T), rtol=0.03, atol=0.01)


class TestBatchMoments:
    def test_batch_matches_single(self, rng):
        from truncskew import tesn_moments
        box, pr = random_instance_with_mass(rng, 2, min_prob=1e-2)
        kappas = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
        batch = tesn_moments(box, pr, kappas, FAST_QMC)
        for k in kappas:
            assert batch[k] == pytest.approx(
                tesn_moment(box, pr, k, FAST_QMC), abs=1e-12)

    def test_batch_shares_table(self, rng):
        from truncskew import count_integrals, tesn_moments
        box, pr = random_instance_with_mass(rng, 3, min_prob=1e-2)
        kappas = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]
        with count_integrals() as batched:
            tesn_moments(box, pr, kappas, FAST_QMC)
        with count_integrals() as separate:
            for k in kappas:
                tesn_moment(box, pr, k, FAST_QMC)
        assert batched.total < separate.total


class TestEdgeConditional:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_slice_factorization(self, rng, p):
        # f(x) = f_j(x_j) f(x_{-j} | x_j): the identity behind every
        # boundary term of the recurrence, with f_j the density of the
        # marginal law of x_j.  Both sides work in log space, so in the deep
        # shift the bound grows with |log xi|; the points are draws of the law
        for tau_tilde in (None, -20.0, -34.0):
            pr = random_esn_params(rng, p)
            if tau_tilde is not None:
                pr = EsnParams(mu=pr.mu, sigma=pr.sigma, lam=pr.lam,
                               tau=tau_tilde * math.sqrt(1.0 + pr.lam @ pr.lam))
            rel = 1e-12 if tau_tilde is None else 1e-14 * abs(pr.derived.log_xi)
            for x in esn_sample(pr, 3, seed=p):
                joint = esn_pdf(x, pr)
                for j in range(p):
                    density, child = edge_conditional(pr, j, x[j])
                    others = [k for k in range(p) if k != j]
                    marginal = esn_marginal(pr, PartitionIndex.dropping(p, others))
                    assert density == pytest.approx(esn_pdf([x[j]], marginal), rel=rel)
                    inner = esn_pdf(np.delete(x, j), child) if p > 1 else 1.0
                    assert density * inner == pytest.approx(joint, rel=rel)

    def test_recurrence_builds_no_marginal_or_conditional_law(self, rng, monkeypatch):
        # every edge comes from a slice map: no univariate marginal law, no
        # density evaluation, no public conditioning map
        box, pr = random_instance_with_mass(rng, 3, allow_infinite=False)
        expected = tesn_moment(box, pr, (1, 2, 1), FAST_QMC, method="recurrence")

        def refuse(*args, **kwargs):
            raise AssertionError("a slice law was built outside its slice map")

        for name, module in list(sys.modules.items()):
            if name == "truncskew" or name.startswith("truncskew."):
                for fn in ("esn_marginal", "esn_pdf", "esn_conditional"):
                    if hasattr(module, fn):
                        monkeypatch.setattr(module, fn, refuse)
        assert tesn_moment(box, pr, (1, 2, 1), FAST_QMC, method="recurrence") == expected

    @pytest.mark.filterwarnings("error")
    def test_infinite_slice_carries_no_mass(self, rng):
        pr = random_esn_params(rng, 3)
        for j in range(3):
            assert edge_conditional(pr, j, np.inf) == (0.0, None)
            assert edge_conditional(pr, j, -np.inf) == (0.0, None)


def _limit_regime_law(mu, sigma, lam, tau_tilde=-40.0) -> EsnParams:
    lam = np.asarray(lam, dtype=float)
    return EsnParams(mu=mu, sigma=sigma, lam=lam,
                     tau=tau_tilde * math.sqrt(1.0 + lam @ lam))


class TestSessionPerLaw:
    """A law without a hidden coordinate runs a plain normal recurrence:
    the same doubles as ``tn_fk`` on its limiting normal."""

    @pytest.mark.parametrize("regime", ["lambda-zero", "below-switch-point"])
    def test_recurrence_is_the_limiting_normal(self, rng, regime):
        mu, sigma = rng.normal(size=3) * 0.5, random_spd(rng, 3)
        if regime == "lambda-zero":
            pr = EsnParams(mu=mu, sigma=sigma, lam=np.zeros(3), tau=0.7)
        else:
            pr = _limit_regime_law(mu, sigma, [0.6, -0.4, 0.3], tau_tilde=-41.0)
        limit = esn_limit_params(pr)
        sd = np.sqrt(np.diag(limit.sigma))
        box = TruncationBox(limit.mu - sd, limit.mu + 1.5 * sd)
        session = tesn._session(box, pr, FAST_QMC)
        assert type(session) is TnSession
        for kappa in ((1, 0, 0), (1, 1, 1), (2, 0, 1)):
            normal = tn_fk(box, limit, kappa, cfg=FAST_QMC)
            assert tesn_fk(box, pr, kappa, cfg=FAST_QMC) == normal
            ratio = normal / tn_fk(box, limit, (0, 0, 0), cfg=FAST_QMC)
            assert tesn_moment(box, pr, kappa, FAST_QMC, method="recurrence") == ratio

    @pytest.mark.parametrize("regime", ["lambda-zero", "below-switch-point"])
    def test_direct_skewed_session_refuses_the_law(self, rng, regime):
        # at tau_tilde = -36 the skewed recurrence from the limiting F_0
        # gives neither the skewed nor the limiting value
        mu, sigma = rng.normal(size=2) * 0.5, random_spd(rng, 2)
        if regime == "lambda-zero":
            pr = EsnParams(mu=mu, sigma=sigma, lam=np.zeros(2), tau=0.7)
        else:
            pr = _limit_regime_law(mu, sigma, [0.6, -0.4], tau_tilde=-36.0)
        with pytest.raises(ValueError, match="TnSession"):
            TesnSession(TruncationBox.unbounded(2), pr, FAST_QMC)

    def test_hidden_law_keeps_the_skewed_session(self, rng):
        box, pr = random_instance_with_mass(rng, 2)
        assert type(tesn._session(box, pr, FAST_QMC)) is TesnSession


class TestMeanCovRoutes:
    """Each mean/cov method runs the engine it names in every regime."""

    def test_recurrence_below_switch_point_p1(self):
        # a box 9-10 sd above the limiting law's mean: the corrected MGF path
        # would pin the coordinate at its bound with variance 0
        from scipy.stats import truncnorm

        pr = _limit_regime_law([0.3], [[2.0]], [1.5])
        lim = esn_limit_params(pr)
        loc, sd = lim.mu[0], math.sqrt(lim.sigma[0, 0])
        box = TruncationBox([loc + 9.0 * sd], [loc + 10.0 * sd])
        m = tesn_mean_cov(box, pr, method="recurrence")
        ref = truncnorm(9.0, 10.0, loc=loc, scale=sd)
        assert m.corrections == ("limit-tau",)
        assert abs(m.mean[0] - ref.mean()) <= 1e-9
        assert abs(m.cov[0, 0] - ref.var()) <= 1e-9

    def test_recurrence_below_switch_point_p2_out_of_bounds(self):
        pr = _limit_regime_law([0.2, -0.1], [[1.5, 0.4], [0.4, 1.0]], [1.0, -0.7])
        lim = esn_limit_params(pr)
        sd = np.sqrt(np.diag(lim.sigma))
        lo = lim.mu + np.array([9.0, -3.0]) * sd
        hi = lim.mu + np.array([10.0, 6.0]) * sd
        m = tesn_mean_cov(TruncationBox(lo, hi), pr, method="recurrence")
        assert m.corrections == ("limit-tau",)
        # the limiting normal's density, rescaled to order one on the box
        prec = np.linalg.inv(lim.sigma)
        near = np.array([lo[0], lim.mu[1] + lim.sigma[0, 1] / lim.sigma[0, 0] * 9.0 * sd[0]])

        def log_dens(x):
            return -0.5 * (x - lim.mu) @ prec @ (x - lim.mu)

        shift, mid = log_dens(near), 0.5 * (lo + hi)

        def integral(g):
            # moments of u = x - mid, v = y - mid[1], which stay of order one
            return quad_oracle_2d(
                lambda u, v: g(u, v) * math.exp(log_dens(mid + [u, v]) - shift),
                lo[0] - mid[0], hi[0] - mid[0], lo[1] - mid[1], hi[1] - mid[1],
                tol=1e-12)

        mass = integral(lambda u, v: 1.0)
        first = np.array([integral(lambda u, v: u), integral(lambda u, v: v)]) / mass
        second = np.array([[integral(lambda u, v: u * u), integral(lambda u, v: u * v)],
                           [0.0, integral(lambda u, v: v * v)]]) / mass
        second[1, 0] = second[0, 1]
        np.testing.assert_allclose(m.mean, mid + first, rtol=0, atol=1e-9)
        np.testing.assert_allclose(m.cov, second - np.outer(first, first), rtol=0, atol=1e-9)

    def test_recurrence_below_switch_point_p2_healthy(self):
        pr = _limit_regime_law([0.2, -0.1], [[1.5, 0.4], [0.4, 1.0]], [1.0, -0.7])
        lim = esn_limit_params(pr)
        sd = np.sqrt(np.diag(lim.sigma))
        box = TruncationBox(lim.mu - 0.8 * sd, lim.mu + 1.1 * sd)
        m = tesn_mean_cov(box, pr, method="recurrence")
        ref = tn_first_two_mgf(box, lim)
        assert m.corrections == ("limit-tau",)
        np.testing.assert_allclose(m.mean, ref.mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(m.cov, ref.cov, rtol=0, atol=1e-10)

    def test_mgf_on_a_normal_is_tn_first_two_mgf(self, rng):
        pr = EsnParams.normal(rng.normal(size=3) * 0.5, random_spd(rng, 3))
        sd = np.sqrt(np.diag(pr.sigma))
        box = TruncationBox(pr.mu - sd, pr.mu + 1.5 * sd)
        m = tesn_mean_cov(box, pr, FAST_QMC, method="mgf")
        ref = tn_first_two_mgf(box, NormalParams(pr.mu, pr.sigma), FAST_QMC)
        for field in ("mean", "raw2", "cov"):
            assert getattr(m, field).tobytes() == getattr(ref, field).tobytes()
        assert m.corrections == ()
        far = TruncationBox(pr.mu + 40.0 * sd, pr.mu + 41.0 * sd)
        with pytest.raises(DegenerateBoxError):
            tesn_mean_cov(far, pr, FAST_QMC, method="mgf")

    def test_recurrence_at_lambda_zero_skips_the_companion(self, rng):
        pr = EsnParams(mu=rng.normal(size=3) * 0.5, sigma=random_spd(rng, 3),
                       lam=np.zeros(3), tau=0.7)
        sd = np.sqrt(np.diag(pr.sigma))
        box = TruncationBox(pr.mu - sd, pr.mu + 1.5 * sd)
        with count_integrals() as counter:
            m = tesn_mean_cov(box, pr, FAST_QMC, method="recurrence")
        assert counter.by_dim[3] == 1
        assert counter.total == 31
        ref = tn_first_two_corrected(box, NormalParams(pr.mu, pr.sigma), FAST_QMC)
        np.testing.assert_allclose(m.mean, ref.mean, rtol=0, atol=1e-9)
        np.testing.assert_allclose(m.cov, ref.cov, rtol=0, atol=1e-9)

    def test_pinned_hidden_coordinate_is_the_deep_shift_limit(self):
        # at tau_tilde = -20 the hidden coordinate's interval has mass
        # Phi(-20) ~ 3e-89, so the corrected path pins it at its bound
        pr = _limit_regime_law([0.2, -0.1], [[1.5, 0.4], [0.4, 1.0]], [1.0, -0.7],
                               tau_tilde=-20.0)
        closed = esn_mean_cov(pr)
        sd = np.sqrt(np.diag(closed.cov))
        box = TruncationBox(closed.mean - 2.0 * sd, closed.mean + 1.5 * sd)
        m = tesn_mean_cov(box, pr, FAST_QMC)
        red = reduce_to_normal(box, pr)
        full = tn_first_two_corrected(red.box, red.params, FAST_QMC)
        assert m.corrections == ("limit-tau (augmented coordinate pinned)",)
        assert m.mean.tobytes() == full.mean[:2].tobytes()
        assert m.raw2.tobytes() == np.ascontiguousarray(full.raw2[:2, :2]).tobytes()
        assert m.cov.tobytes() == np.ascontiguousarray(full.cov[:2, :2]).tobytes()


class TestNormalizerGate:
    """Every ratio and the recurrence mean/cov refuse a box whose mass is
    below the kernel's error estimate, as the MGF path does."""

    def test_recurrence_mean_cov_raises(self):
        box, pr = unresolved_box()
        with pytest.raises(DegenerateBoxError):
            tesn_mean_cov(box, pr, method="recurrence")

    @pytest.mark.parametrize("method", ["recurrence", "normal-reduction"])
    @pytest.mark.parametrize("kappa", [(1, 0, 0), (2, 0, 0)])
    def test_moment_raises(self, method, kappa):
        box, pr = unresolved_box()
        with pytest.raises(DegenerateBoxError):
            tesn_moment(box, pr, kappa, method=method)

    def test_corrected_path_still_pins(self):
        box, pr = far_tail_limit_box()
        m = tesn_mean_cov(box, pr, method="normal-reduction")
        assert m.corrections == ("limit-tau", "out-of-bounds coord 1")
        assert m.mean[0] == box.lower[0]
        assert m.cov[0, 0] == 0.0
        assert np.all(np.diag(m.cov)[1:] > 0.0)

    def test_far_tail_limit_box_is_answered(self):
        # mass 1.6e-32 with estimate 1.3e-41: the recurrence and MGF routes
        # match 1-d quadrature over coordinate 0 of the limiting normal
        box, pr = far_tail_limit_box()
        lim = esn_limit_params(pr)
        sd = np.sqrt(np.diag(lim.sigma))
        R = lim.sigma / np.outer(sd, sd)
        lo, hi = (box.lower - lim.mu) / sd, (box.upper - lim.mu) / sd
        ref = lim.mu + sd * moments_by_quad(lo, hi, tn_conditional(lo, hi, R))[0]
        assert ref[0] == pytest.approx(-54.97927, abs=1e-5)
        for method in ("recurrence", "mgf"):
            m = tesn_mean_cov(box, pr, method=method)
            assert m.corrections == ("limit-tau",)
            np.testing.assert_allclose(m.mean, ref, rtol=1e-8, atol=0.0)

    def test_gate_seeds_the_session_without_a_call(self, rng):
        # the gate's kernel call is the session's F_0: no call is added
        box, pr = random_instance_with_mass(rng, 2, min_prob=0.05)
        with count_integrals() as counter:
            value = tesn_moment(box, pr, (1, 1), FAST_QMC, method="recurrence")
        session = TesnSession(box, pr, FAST_QMC)
        with count_integrals() as direct:
            assert value == session.fk((1, 1)) / session.prob()
        assert counter.by_dim == direct.by_dim
