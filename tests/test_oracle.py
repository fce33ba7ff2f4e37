import math

import numpy as np
import pytest

from truncskew import (
    EsnParams,
    RejectionTooHighError,
    TruncationBox,
    esn_pdf,
    esn_sample,
    fesn_cdf,
    mc_fesn_moment,
    mc_tesn_moment,
    quad_oracle_1d,
    tesn_moment,
    tesn_prob_with_error,
)

from truncskew.esn import sample_with_rng

from conftest import FAST_QMC, random_esn_params, random_instance_with_mass


class TestReproducibility:
    def test_bit_identical(self, rng):
        box, pr = random_instance_with_mass(rng, 2, min_prob=0.05)
        a = mc_tesn_moment(box, pr, (1, 0), 200_000, seed=99)
        b = mc_tesn_moment(box, pr, (1, 0), 200_000, seed=99)
        assert a == b

    def test_seed_matters(self, rng):
        box, pr = random_instance_with_mass(rng, 2, min_prob=0.05)
        a = mc_tesn_moment(box, pr, (1, 0), 200_000, seed=99)
        b = mc_tesn_moment(box, pr, (1, 0), 200_000, seed=100)
        assert a.value != b.value


class TestPilot:
    """The pilot is the first min(n, 10^4) draws of the stream."""

    @staticmethod
    def _rate(box, pr, seed, chunks):
        rng = np.random.Generator(np.random.Philox(key=seed))
        hits = sum(int(np.all((x >= box.lower) & (x <= box.upper), axis=1).sum())
                   for x in (sample_with_rng(pr, n, rng) for n in chunks))
        return hits / sum(chunks)

    def test_small_n_draws_n(self, rng):
        box, pr = random_instance_with_mass(rng, 2, min_prob=0.05)
        est = mc_tesn_moment(box, pr, (0, 0), 1000, seed=11)
        assert est.n_effective == 1000
        assert est.value == self._rate(box, pr, 11, [1000])

    def test_large_n_keeps_the_full_pilot(self, rng):
        box, pr = random_instance_with_mass(rng, 2, min_prob=0.05)
        est = mc_tesn_moment(box, pr, (0, 0), 25_000, seed=11)
        assert est.n_effective == 25_000
        assert est.value == self._rate(box, pr, 11, [10_000, 15_000])


class TestTesnOracle:
    def test_acceptance_estimates_probability(self, rng):
        box, pr = random_instance_with_mass(rng, 2, min_prob=0.05)
        est = mc_tesn_moment(box, pr, (0, 0), 1_000_000, seed=5)
        ref, err = tesn_prob_with_error(box, pr, FAST_QMC)
        assert abs(est.value - ref) <= 4 * est.std_error + err

    def test_symmetric_first_moment_zero(self):
        pr = EsnParams.normal([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
        box = TruncationBox([-1.5, -1.5], [1.5, 1.5])
        est = mc_tesn_moment(box, pr, (1, 0), 400_000, seed=8)
        assert abs(est.value) <= 4 * est.std_error

    def test_matches_analytic_20_instances(self, rng):
        bad = 0
        for _ in range(20):
            p = int(rng.integers(1, 4))
            box, pr = random_instance_with_mass(rng, p, min_prob=0.01)
            kappa = tuple(int(v) for v in rng.integers(0, 2, size=p))
            if sum(kappa) == 0:
                kappa = tuple(1 if i == 0 else 0 for i in range(p))
            est = mc_tesn_moment(box, pr, kappa, 400_000, seed=int(rng.integers(1e6)))
            val = tesn_moment(box, pr, kappa, FAST_QMC)
            if abs(val - est.value) > 4 * est.std_error + 1e-6:
                bad += 1
        assert bad == 0

    def test_rejection_too_high(self):
        pr = EsnParams.normal([0.0], [[1.0]])
        box = TruncationBox([8.0], [9.0])
        with pytest.raises(RejectionTooHighError):
            mc_tesn_moment(box, pr, (1,), 100_000, seed=3)


class TestFesnOracle:
    def test_halfnormal_mean(self):
        pr = EsnParams.normal([0.0], [[1.0]])
        est = mc_fesn_moment(pr, (1,), 500_000, seed=4)
        assert abs(est.value - math.sqrt(2 / math.pi)) <= 4 * est.std_error

    def test_cdf_against_empirical(self, rng):
        pr = random_esn_params(rng, 2)
        y = np.abs(pr.mu) + 0.9 * np.sqrt(np.diag(pr.sigma))
        draws = np.abs(esn_sample(pr, 400_000, seed=44))
        hits = np.all(draws <= y, axis=1)
        se = math.sqrt(hits.mean() * (1 - hits.mean()) / len(hits))
        assert fesn_cdf(y, pr, FAST_QMC) == pytest.approx(
            hits.mean(), abs=4 * se + 1e-5)


class TestQuadrature:
    def test_esn_pdf_integrates_to_one(self):
        pr = EsnParams(mu=[0.2], sigma=[[1.3]], lam=[1.5], tau=-0.3)
        val = quad_oracle_1d(lambda x: esn_pdf([x], pr), -14.0, 14.0)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestCoverage:
    def test_calibration(self):
        # 200 independent estimates of a known conditional mean: at least 99%
        # must fall within three standard errors (seeded, hence deterministic)
        pr = EsnParams(mu=[0.0], sigma=[[1.0]], lam=[1.0], tau=0.0)
        box = TruncationBox([-1.0], [1.5])
        truth = tesn_moment(box, pr, (1,), FAST_QMC)
        misses = 0
        for k in range(200):
            est = mc_tesn_moment(box, pr, (1,), 20_000, seed=1000 + k)
            if abs(est.value - truth) > 3 * est.std_error:
                misses += 1
        assert misses <= 2  # >= 99% coverage
