import gc
import math
import time

import numpy as np
import pytest

from truncskew import (
    DimensionTooLargeError,
    EsnParams,
    NegativeArgumentError,
    NormalParams,
    QmcConfig,
    SignPattern,
    TesnSession,
    TnSession,
    TruncationBox,
    count_integrals,
    esn_pdf,
    esn_sample,
    fesn_cdf,
    fesn_ik,
    fesn_mean_cov,
    fesn_mean_cov_orthant,
    fesn_moment,
    fesn_pdf,
    flip_params,
    mc_fesn_moment,
    quad_oracle_2d,
    sign_patterns,
    std_cdf,
    std_pdf,
    tesn_fk,
    tesn_prob_with_error,
)
import truncskew.esn as esn_module
import truncskew.folded as folded_module
import truncskew.tesn as tesn_module
from truncskew.cli import _benchmark_instance
from truncskew.esn import reduce_to_normal
from truncskew.folded import _orthant_masses
from truncskew.tesn import tesn_mean_cov
from truncskew.tn import RecurrenceSession

from conftest import FAST_QMC, random_esn_params, random_spd, unit_index


def _folded_normal_mean(mu, var):
    """Closed-form mean of |N(mu, var)|."""
    sd = math.sqrt(var)
    return sd * math.sqrt(2 / math.pi) * math.exp(-mu * mu / (2 * var)) + mu * (
        1 - 2 * std_cdf(-mu / sd))


class TestSignPatterns:
    def test_gray_code_order(self):
        pats = list(sign_patterns(3))
        assert len(pats) == 8
        assert pats[0].s == (1, 1, 1)
        for a, b in zip(pats, pats[1:]):
            assert sum(x != y for x, y in zip(a.s, b.s)) == 1  # one flip each

    def test_parity(self):
        assert SignPattern((1, -1, -1)).pi_s == 1
        assert SignPattern((-1, 1, 1)).pi_s == -1

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLargeError):
            list(sign_patterns(13))


class TestFlip:
    def test_identity_pattern(self, rng):
        pr = random_esn_params(rng, 3)
        out = flip_params(pr, SignPattern((1, 1, 1)))
        np.testing.assert_array_equal(out.mu, pr.mu)
        np.testing.assert_array_equal(out.sigma, pr.sigma)
        np.testing.assert_array_equal(out.lam, pr.lam)

    def test_all_negative_normal(self, rng):
        pr = EsnParams.normal(rng.normal(size=2), random_spd(rng, 2))
        out = flip_params(pr, SignPattern((-1, -1)))
        np.testing.assert_array_equal(out.mu, -pr.mu)
        np.testing.assert_allclose(out.sigma, pr.sigma, atol=1e-15)

    def test_closure_identity(self, rng):
        # density of the reflected law at x equals the original at Lambda_s x
        pr = random_esn_params(rng, 3)
        for s in sign_patterns(3):
            x = rng.normal(size=3)
            lhs = esn_pdf(s.vec * x, pr)
            rhs = esn_pdf(x, flip_params(pr, s))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_point_density_invariance(self, rng):
        pr = random_esn_params(rng, 2)
        vals = [esn_pdf(np.zeros(2), flip_params(pr, s)) for s in sign_patterns(2)]
        assert max(vals) - min(vals) <= 1e-12 * max(vals)


class TestPdfCdf:
    def test_halfnormal_pdf(self):
        pr = EsnParams.normal([0.0], [[1.0]])
        for y in (0.2, 1.0, 2.5):
            assert fesn_pdf([y], pr) == pytest.approx(2 * std_pdf(y), rel=1e-13)

    def test_halfnormal_cdf(self):
        pr = EsnParams.normal([0.0], [[1.0]])
        for y in (0.5, 1.0, 2.0):
            assert fesn_cdf([y], pr) == pytest.approx(
                math.erf(y / math.sqrt(2)), abs=1e-12)

    def test_pdf_builds_no_reflected_law(self, rng, monkeypatch):
        pr = random_esn_params(rng, 3)
        y = np.abs(rng.normal(size=3))
        expected = fesn_pdf(y, pr)
        law = EsnParams(pr.mu, pr.sigma, pr.lam, pr.tau)
        esn_derive, derived = esn_module.esn_derive, []

        def refuse(p, s):
            raise AssertionError("fesn_pdf built a reflected law")

        def derive(p):
            derived.append(p)
            return esn_derive(p)

        monkeypatch.setattr(folded_module, "flip_params", refuse)
        monkeypatch.setattr(esn_module, "esn_derive", derive)
        assert fesn_pdf(y, law) == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert len(derived) == 1 and derived[0] is law

    def test_negative_argument(self):
        pr = EsnParams.normal([0.0], [[1.0]])
        with pytest.raises(NegativeArgumentError):
            fesn_pdf([-0.1], pr)
        with pytest.raises(NegativeArgumentError):
            fesn_cdf([-0.1], pr)

    def test_pdf_integrates_to_one(self, rng):
        pr = random_esn_params(rng, 2)
        sd = np.sqrt(np.diag(pr.sigma))
        hi = np.abs(pr.mu) + 9 * sd
        total = quad_oracle_2d(lambda x, y: fesn_pdf([x, y], pr),
                               0.0, hi[0], 0.0, hi[1], tol=1e-6)
        assert total == pytest.approx(1.0, abs=2e-6)

    def test_cdf_matches_empirical(self, rng):
        pr = random_esn_params(rng, 2)
        y = np.abs(pr.mu) + np.sqrt(np.diag(pr.sigma)) * 0.8
        draws = np.abs(esn_sample(pr, 500_000, seed=13))
        hits = np.all(draws <= y, axis=1)
        se = math.sqrt(hits.mean() * (1 - hits.mean()) / len(hits))
        assert fesn_cdf(y, pr, FAST_QMC) == pytest.approx(
            hits.mean(), abs=4 * se + 1e-5)


class TestOrthantIntegrals:
    def test_order_zero(self, rng):
        pr = random_esn_params(rng, 2)
        val = fesn_ik(pr, (0, 0), cfg=FAST_QMC)
        ref, err = tesn_prob_with_error(TruncationBox.orthant(2), pr, FAST_QMC)
        assert val == pytest.approx(ref, abs=1e-12)

    def test_equals_box_recurrence(self, rng):
        pr = random_esn_params(rng, 2)
        for kappa in ((1, 0), (1, 1), (2, 1)):
            via_box = tesn_fk(TruncationBox.orthant(2), pr, kappa, cfg=FAST_QMC)
            via_ik = fesn_ik(pr, kappa, cfg=FAST_QMC)
            assert via_ik == pytest.approx(via_box, rel=1e-10)

    def test_halfline_first_moment(self):
        pr = EsnParams.normal([0.0], [[1.0]])
        assert fesn_ik(pr, (1,)) == pytest.approx(0.3989422804014327, abs=1e-13)


class TestMoments:
    def test_halfnormal_mean(self):
        pr = EsnParams.normal([0.0], [[1.0]])
        assert fesn_moment(pr, (1,)) == pytest.approx(
            math.sqrt(2 / math.pi), abs=1e-10)

    def test_even_moment_preserved(self):
        pr = EsnParams.normal([0.0], [[1.0]])
        assert fesn_moment(pr, (2,)) == pytest.approx(1.0, abs=1e-10)

    def test_even_moment_invariance(self, rng):
        # all-even multi-indices ignore folding entirely
        pr = random_esn_params(rng, 2)
        folded = fesn_moment(pr, (2, 2), cfg=FAST_QMC)
        plain = tesn_fk(TruncationBox.unbounded(2), pr, (2, 2), cfg=FAST_QMC)
        assert folded == pytest.approx(plain, rel=1e-4)

    def test_methods_agree(self, rng):
        pr = random_esn_params(rng, 2)
        for kappa in ((1, 0), (1, 1), (2, 1)):
            v_orth = fesn_moment(pr, kappa, method="orthant-sum", cfg=FAST_QMC)
            v_nr = fesn_moment(pr, kappa, method="normal-reduction", cfg=FAST_QMC)
            assert v_orth == pytest.approx(v_nr, rel=1e-4)

    def test_against_mc(self, rng):
        pr = random_esn_params(rng, 2)
        est = mc_fesn_moment(pr, (1, 1), 1_000_000, seed=19)
        val = fesn_moment(pr, (1, 1), cfg=FAST_QMC)
        assert abs(val - est.value) <= 4 * est.std_error

    def test_orthant_partition_of_unity(self, rng):
        for p in (2, 3):
            pr = random_esn_params(rng, p)
            total, err_sum = 0.0, 0.0
            for s in sign_patterns(p):
                v, e = tesn_prob_with_error(TruncationBox.orthant(p),
                                            flip_params(pr, s), FAST_QMC)
                total += v
                err_sum += e
            assert abs(total - 1.0) <= err_sum + 1e-9


def _at_shift(pr: EsnParams, tau_tilde) -> EsnParams:
    """The same law with its shift set so that tau / sqrt(1 + lam'lam) is
    ``tau_tilde`` (unchanged for None)."""
    if tau_tilde is None:
        return pr
    tau = tau_tilde * math.sqrt(1.0 + float(pr.lam @ pr.lam))
    return EsnParams(mu=pr.mu, sigma=pr.sigma, lam=pr.lam, tau=tau)


# regular, deep shift (hidden coordinate kept), limit (limiting normal)
SHIFT_REGIMES = [None, -20.0, -40.0]


def _more_points(factor: int) -> QmcConfig:
    """FAST_QMC with ``factor`` times its points (same replicates and seed)."""
    return QmcConfig(sample_count=factor * FAST_QMC.sample_count,
                     replicates=FAST_QMC.replicates, seed=FAST_QMC.seed)


class TestOrthantTable:
    """The 2^p orthant masses of one inclusion-exclusion table against one
    direct rectangle call per reflected law.

    The direct calls run at 16 times FAST_QMC's points.  At p = 4 the table
    makes one dim-5 lattice call and otherwise deterministic ones, while
    each direct call is a dim-5 lattice call of its own, so the two sides no
    longer share a lattice error that cancels; at FAST_QMC's points a
    direct call under-covers (:meth:`test_direct_fast_qmc_under_covers`)."""

    @staticmethod
    def _table(pr: EsnParams):
        red = reduce_to_normal(TruncationBox.orthant(pr.dim), pr)
        masses = _orthant_masses(red.box, red.params, pr.dim, FAST_QMC)
        return {s: (m / red.xi, e / red.xi) for s, (m, e) in masses.items()}

    @pytest.mark.parametrize("tau_tilde", SHIFT_REGIMES)
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_direct_orthants(self, rng, p, tau_tilde):
        pr = _at_shift(random_esn_params(rng, p), tau_tilde)
        table = self._table(pr)
        assert len(table) == 2 ** p
        for s in sign_patterns(p):
            ref, ref_err = tesn_prob_with_error(TruncationBox.orthant(p),
                                                flip_params(pr, s), _more_points(16))
            val, err = table[s]
            assert abs(val - ref) <= err + ref_err + 1e-12, (s.s, val, ref)

    @pytest.mark.xfail(strict=True, reason="the dim-5 FAST_QMC estimate under-covers "
                       "its error on this orthant (3.4e-6 off, estimate 1.2e-6)")
    def test_direct_fast_qmc_under_covers(self, rng):
        # the law of test_matches_direct_orthants[4-None], pattern (1, -1, 1, 1)
        pr = flip_params(random_esn_params(rng, 4), SignPattern((1, -1, 1, 1)))
        val, err = tesn_prob_with_error(TruncationBox.orthant(4), pr, FAST_QMC)
        ref, ref_err = tesn_prob_with_error(TruncationBox.orthant(4), pr, _more_points(64))
        assert abs(val - ref) <= err + ref_err

    @pytest.mark.parametrize("tau_tilde", SHIFT_REGIMES)
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_partition_of_unity(self, rng, p, tau_tilde):
        pr = _at_shift(random_esn_params(rng, p), tau_tilde)
        total = sum(m for m, _ in self._table(pr).values())
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kappa, points", [
        ((1, 1, 1), int(2048 * 2 ** 1.5)),   # error enters 8 times, one sign
        ((1, 0, 1), 2048),                   # error cancels
        ((2, 2, 2), 2048),
    ])
    def test_top_call_points_follow_kappa(self, rng, monkeypatch, kappa, points):
        seen = {}
        kernel = folded_module.mvn_prob

        def spy(box, params, cfg):
            seen[box.dim] = cfg.sample_count
            return kernel(box, params, cfg)

        monkeypatch.setattr(folded_module, "mvn_prob", spy)
        pr = random_esn_params(rng, 3)
        red = reduce_to_normal(TruncationBox.orthant(3), pr)
        _orthant_masses(red.box, red.params, 3, FAST_QMC, [kappa])
        assert seen[4] == points

    @pytest.mark.parametrize("method", ["orthant-sum", "normal-reduction"])
    def test_one_top_dimension_call(self, rng, method):
        pr = random_esn_params(rng, 3)
        with count_integrals() as counter:
            fesn_moment(pr, (1, 1, 1), method=method, cfg=FAST_QMC)
        assert counter.by_dim[4] == 1
        assert max(counter.by_dim) == 4

    @pytest.mark.parametrize("tau_tilde", SHIFT_REGIMES)
    def test_methods_agree_p3(self, rng, tau_tilde):
        pr = _at_shift(random_esn_params(rng, 3), tau_tilde)
        for kappa in ((1, 1, 1), (2, 0, 1)):
            v_orth = fesn_moment(pr, kappa, method="orthant-sum", cfg=FAST_QMC)
            v_nr = fesn_moment(pr, kappa, method="normal-reduction", cfg=FAST_QMC)
            assert v_orth == pytest.approx(v_nr, rel=1e-8)


@pytest.fixture
def per_pattern(monkeypatch):
    """Runs a callable with every session outside any slice cache: one
    session tree per sign pattern, the reference the shared trees must match."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(RecurrenceSession, "_share", lambda self, *a: None)
            return fn(*args, **kwargs)
    return run


class TestSliceSharing:
    """The sign-pattern sessions of a folded sum share their edge children."""

    @pytest.mark.parametrize("method", ["orthant-sum", "normal-reduction"])
    @pytest.mark.parametrize("tau_tilde", SHIFT_REGIMES)
    @pytest.mark.parametrize("p, kappas", [
        (2, [(2, 1), (1, 1)]),
        (3, [(1, 1, 1), (2, 0, 1)]),
        (4, [(1, 1, 1, 1), (2, 0, 1, 0)]),
    ], ids=["p2", "p3", "p4"])
    def test_equals_one_tree_per_pattern(self, rng, per_pattern, method, tau_tilde,
                                         p, kappas):
        pr = _at_shift(random_esn_params(rng, p), tau_tilde)
        for kappa in kappas:
            shared = fesn_moment(pr, kappa, method=method, cfg=FAST_QMC)
            alone = per_pattern(fesn_moment, pr, kappa, method=method, cfg=FAST_QMC)
            assert shared == pytest.approx(alone, rel=1e-13)

    @pytest.mark.parametrize("method", ["orthant-sum", "normal-reduction"])
    def test_fewer_kernel_calls(self, rng, per_pattern, method):
        pr = random_esn_params(rng, 3)
        with count_integrals() as shared:
            fesn_moment(pr, (1, 1, 1), method=method, cfg=FAST_QMC)
        with count_integrals() as alone:
            per_pattern(fesn_moment, pr, (1, 1, 1), method=method, cfg=FAST_QMC)
        assert shared.total <= 0.45 * alone.total
        assert shared.by_dim[4] == alone.by_dim[4] == 1

    def test_child_laws_built_only_on_a_cache_miss(self, rng, monkeypatch):
        # one slice-law maker call per child session: a cache hit builds none
        laws, children = [], []
        slice_map, init = tesn_module._slice_map, TesnSession.__init__

        def counting_map(p, j, child):
            return slice_map(p, j, lambda law: laws.append(law) or child(law))

        def counting_init(self, box, params, cfg):
            if params.dim < 3:
                children.append(self)
            init(self, box, params, cfg)

        monkeypatch.setattr(tesn_module, "_slice_map", counting_map)
        monkeypatch.setattr(TesnSession, "__init__", counting_init)
        fesn_moment(random_esn_params(rng, 3), (1, 1, 1), method="orthant-sum", cfg=FAST_QMC)
        assert len(laws) == len(children) == 24

    def test_orthant_mean_cov_unchanged(self, rng, per_pattern):
        pr = random_esn_params(rng, 3)
        shared = fesn_mean_cov_orthant(pr, FAST_QMC)
        alone = per_pattern(fesn_mean_cov_orthant, pr, FAST_QMC)
        np.testing.assert_allclose(shared.mean, alone.mean, rtol=1e-13)
        np.testing.assert_allclose(shared.cov, alone.cov, rtol=1e-13)

    @pytest.mark.parametrize("method", ["orthant-sum", "normal-reduction"])
    def test_trees_freed_without_the_cycle_collector(self, rng, method):
        pr = random_esn_params(rng, 3)
        fesn_moment(pr, (1, 1, 1), method=method, cfg=FAST_QMC)  # first-use imports
        gc.collect()
        gc.disable()
        try:
            fesn_moment(pr, (1, 1, 1), method=method, cfg=FAST_QMC)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sessions_outside_a_fold_share_nothing(self):
        # slices fixed in different orders stay apart: the p = 6 mean/cov
        # counts of the method comparison do not move
        box, pr = _benchmark_instance(6, 20240101)
        with count_integrals() as reduction:
            tesn_mean_cov(box, pr, FAST_QMC, method="normal-reduction")
        with count_integrals() as recurrence:
            tesn_mean_cov(box, pr, FAST_QMC, method="recurrence")
        assert dict(reduction.by_dim) == {1: 7, 5: 72, 6: 13, 7: 1}
        assert recurrence.total == 159


class TestMeanCov:
    def test_independent_standard(self):
        pr = EsnParams.normal([0.0, 0.0], np.eye(2))
        m = fesn_mean_cov(pr)
        np.testing.assert_allclose(m.mean, math.sqrt(2 / math.pi), atol=1e-10)
        assert m.raw2[0, 1] == pytest.approx(2 / math.pi, abs=1e-8)
        np.testing.assert_allclose(np.diag(m.cov), 1 - 2 / math.pi, atol=1e-10)
        assert m.cov[0, 1] == pytest.approx(2 / math.pi - 2 / math.pi, abs=1e-8)

    def test_folded_normal_closed_form_means(self, rng):
        # normal case: diagonal path must match the classical folded-normal mean
        mu = rng.normal(size=2)
        sigma = random_spd(rng, 2)
        m = fesn_mean_cov(EsnParams.normal(mu, sigma), FAST_QMC)
        for i in range(2):
            assert m.mean[i] == pytest.approx(
                _folded_normal_mean(mu[i], sigma[i, i]), rel=1e-9)

    def test_explicit_vs_orthant_30_instances(self, rng):
        worst = 0.0
        for trial in range(30):
            p = 2 if trial < 20 else 3
            pr = random_esn_params(rng, p)
            me = fesn_mean_cov(pr, FAST_QMC)
            mo = fesn_mean_cov_orthant(pr, FAST_QMC)
            rel_mean = np.max(np.abs(me.mean - mo.mean) / np.abs(mo.mean))
            rel_raw2 = np.max(np.abs(me.raw2 - mo.raw2) / np.abs(mo.raw2))
            worst = max(worst, rel_mean, rel_raw2)
        assert worst <= 1e-4, f"worst relative gap {worst:.2e}"

    def test_asymmetry_of_pair_formula_is_benign(self, rng):
        # the collapsed cross-moment formula singles out the second index;
        # swapping coordinate order must not change the answer
        pr = random_esn_params(rng, 2)
        swapped = EsnParams(mu=pr.mu[::-1].copy(),
                            sigma=pr.sigma[::-1, ::-1].copy(),
                            lam=pr.lam[::-1].copy(), tau=pr.tau)
        m1 = fesn_mean_cov(pr, FAST_QMC)
        m2 = fesn_mean_cov(swapped, FAST_QMC)
        assert m1.raw2[0, 1] == pytest.approx(m2.raw2[0, 1], rel=1e-6)

    def test_against_mc(self, rng):
        pr = random_esn_params(rng, 3)
        m = fesn_mean_cov(pr, FAST_QMC)
        draws = np.abs(esn_sample(pr, 2_000_000, seed=29))
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(m.mean - draws.mean(axis=0)) <= 4 * se + 1e-6)
        np.testing.assert_allclose(m.cov, np.cov(draws.T), rtol=0.02, atol=0.005)

    def test_normal_case_cross_moment(self, rng):
        # lam = 0, tau = 0: the explicit path must reproduce folded-normal
        # cross moments (reference: the sign-pattern sum over plain normal
        # orthant integrals, no skewed machinery involved)
        mu = rng.normal(size=2) * 0.5
        sigma = random_spd(rng, 2)
        pr = EsnParams.normal(mu, sigma)
        m = fesn_mean_cov(pr, FAST_QMC)
        ref = 0.0
        for s in sign_patterns(2):
            v = s.vec
            pars = NormalParams(v * mu, sigma * np.outer(v, v))
            ref += TnSession(TruncationBox.orthant(2), pars, FAST_QMC).fk((1, 1))
        assert m.raw2[0, 1] == pytest.approx(ref, rel=1e-5)

    def test_explicit_faster_than_orthant_sum(self, rng):
        pr = random_esn_params(rng, 3)
        t0 = time.perf_counter()
        fesn_mean_cov(pr, FAST_QMC)
        t_explicit = time.perf_counter() - t0
        t0 = time.perf_counter()
        fesn_mean_cov_orthant(pr, FAST_QMC)
        t_orthant = time.perf_counter() - t0
        ratio = t_orthant / t_explicit
        print(f"\nfolded mean/cov speedup (orthant-sum / explicit): {ratio:.1f}x")
        assert t_explicit < t_orthant


class TestCrossWorkSubQuantities:
    """Each ingredient of the collapsed cross-moment formula against an
    independent quadrature / closed-form oracle, before assembly."""

    @pytest.fixture()
    def pair(self, rng):
        return random_esn_params(rng, 2)

    def test_density_factors(self, pair):
        from truncskew import folded_cross_work, quad_oracle_1d
        w = folded_cross_work(pair, FAST_QMC)
        sd = np.sqrt(np.diag(pair.sigma))
        span = float(np.max(np.abs(pair.mu)) + 10 * sd.max())
        # the factor at x_i = 0 is the marginal density of coordinate i there
        marg_i = quad_oracle_1d(lambda y: esn_pdf([0.0, y], pair), -span, span)
        marg_j = quad_oracle_1d(lambda x: esn_pdf([x, 0.0], pair), -span, span)
        assert w.dens_i == pytest.approx(marg_i, rel=1e-8)
        assert w.dens_j == pytest.approx(marg_j, rel=1e-8)

    def test_conditional_cdfs_at_zero(self, pair):
        from truncskew import folded_cross_work, quad_oracle_1d
        w = folded_cross_work(pair, FAST_QMC)
        sd = np.sqrt(np.diag(pair.sigma))
        span = float(np.max(np.abs(pair.mu)) + 10 * sd.max())
        below = quad_oracle_1d(lambda y: esn_pdf([0.0, y], pair), -span, 0.0)
        assert w.cdf_ji == pytest.approx(below / w.dens_i, abs=1e-7)
        below_i = quad_oracle_1d(lambda x: esn_pdf([x, 0.0], pair), -span, 0.0)
        assert w.cdf_ij == pytest.approx(below_i / w.dens_j, abs=1e-7)

    def test_mixed_orthant_probabilities(self, pair):
        from truncskew import folded_cross_work
        w = folded_cross_work(pair, FAST_QMC)
        draws = esn_sample(pair, 2_000_000, seed=55)
        p_plus_minus = np.mean((draws[:, 0] > 0) & (draws[:, 1] < 0))
        p_minus_plus = np.mean((draws[:, 0] < 0) & (draws[:, 1] > 0))
        se = 2.0 / math.sqrt(len(draws))
        assert w.cdf2_i == pytest.approx(p_plus_minus, abs=4 * se + 1e-5)
        assert w.cdf2_j == pytest.approx(p_minus_plus, abs=4 * se + 1e-5)

    def test_limit_orthant_probabilities(self, pair):
        from truncskew import bvn_cdf, folded_cross_work
        w = folded_cross_work(pair, FAST_QMC)
        g = w.gamma
        sdg = np.sqrt(np.diag(g))
        rho = g[0, 1] / (sdg[0] * sdg[1])
        # P(W_i > 0, W_j < 0) via the standardized bivariate cdf
        ref_i = bvn_cdf(w.m[0] / sdg[0], -w.m[1] / sdg[1], -rho)
        ref_j = bvn_cdf(-w.m[0] / sdg[0], w.m[1] / sdg[1], -rho)
        assert w.ncdf2_i == pytest.approx(ref_i, abs=1e-12)
        assert w.ncdf2_j == pytest.approx(ref_j, abs=1e-12)

    def test_normal_conditional_parameters(self, pair):
        from truncskew import conditional_normal, folded_cross_work
        w = folded_cross_work(pair, FAST_QMC)
        from truncskew import PartitionIndex
        mean, cov = conditional_normal(w.m, w.gamma,
                                       PartitionIndex.dropping(2, [0]), [0.0])
        assert w.m_ji == pytest.approx(mean[0], rel=1e-12)
        assert w.v_ji == pytest.approx(cov[0, 0], rel=1e-12)
        mean2, cov2 = conditional_normal(w.m, w.gamma,
                                         PartitionIndex.dropping(2, [1]), [0.0])
        assert w.m_ij == pytest.approx(mean2[0], rel=1e-12)
        assert w.v_ij == pytest.approx(cov2[0, 0], rel=1e-12)

    def test_inner_folded_moment(self, pair):
        from truncskew import folded_cross_work, quad_oracle_1d
        w = folded_cross_work(pair, FAST_QMC)
        cond = w.cond_given_j
        sd = math.sqrt(cond.sigma[0, 0])
        span = abs(cond.mu[0]) + 10 * sd
        ref = quad_oracle_1d(lambda x: abs(x) * esn_pdf([x], cond), -span, span)
        assert w.inner_abs == pytest.approx(ref, abs=1e-8)
