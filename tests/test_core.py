import numpy as np
import pytest

from truncskew import (
    IndexOutOfRangeError,
    NotPSDError,
    PartitionIndex,
    SingularBlockError,
    conditional_normal,
    sym_sqrt,
)
from truncskew import core
from truncskew.core import sym_roots, symmetrize

from conftest import random_spd


class TestSymSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(sym_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(sym_sqrt(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-14)

    def test_square_recovers_input(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = sym_sqrt(s)
        np.testing.assert_allclose(root @ root, s, atol=1e-12)

    def test_random_spd_square_back(self, rng):
        for p in (2, 3, 5, 8):
            s = random_spd(rng, p)
            root = sym_sqrt(s)
            err = np.linalg.norm(root @ root - s, 2) / np.linalg.norm(s, 2)
            assert err <= 1e-12
            np.testing.assert_array_equal(root, root.T)

    def test_psd_rank_deficient_clamps(self):
        v = np.array([1.0, 2.0, -1.0])
        s = np.outer(v, v)  # rank one, eigenvalues {|v|^2, 0, 0}
        root = sym_sqrt(s)
        np.testing.assert_allclose(root @ root, s, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(root) >= -1e-13)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSDError):
            sym_sqrt(np.diag([1.0, -0.5]))

    def test_tolerance_configurable(self, monkeypatch):
        s = np.diag([1.0, -1e-8])
        with pytest.raises(NotPSDError):
            sym_sqrt(s)
        monkeypatch.setattr(core, "_PSD_REL_TOL", 1e-6)
        root = sym_sqrt(s)  # now inside tolerance, clamped to zero
        assert root[1, 1] == 0.0


class TestSymRoots:
    """Both roots from one eigendecomposition, bit for bit what the root and
    the inverse root computed from separate ones were."""

    def test_bitwise_the_separate_roots(self, rng):
        for p in (1, 2, 3, 5, 8):
            s = random_spd(rng, p)
            root, inv_root = sym_roots(s)
            w, V = np.linalg.eigh(s)
            np.testing.assert_array_equal(root, sym_sqrt(s))
            np.testing.assert_array_equal(inv_root, symmetrize((V / np.sqrt(w)) @ V.T))

    def test_indefinite_rejected_first(self):
        with pytest.raises(NotPSDError, match="eigenvalue"):
            sym_roots(np.diag([1.0, -0.5]))

    def test_singular_rejected(self):
        # PSD within tolerance passes the square root, not the inverse root
        with pytest.raises(NotPSDError, match="not positive definite"):
            sym_roots(np.diag([1.0, 0.0]))


class TestIndexCalculus:
    def test_partition_index_validation(self):
        pi = PartitionIndex(kept=(0, 2), removed=(1,))
        assert pi.dim == 3
        with pytest.raises(IndexOutOfRangeError):
            PartitionIndex(kept=(0, 1), removed=(1,))
        with pytest.raises(IndexOutOfRangeError):
            PartitionIndex(kept=(2, 0), removed=(1,))

    def test_partition_dropping(self):
        pi = PartitionIndex.dropping(4, [3, 1])
        assert pi.kept == (0, 2) and pi.removed == (1, 3)


class TestConditionalNormal:
    def test_independent_blocks_unchanged(self):
        s = np.diag([2.0, 3.0, 4.0])
        mu = np.array([1.0, -1.0, 0.5])
        mean, cov = conditional_normal(mu, s, PartitionIndex.dropping(3, [2]), [9.0])
        np.testing.assert_allclose(mean, mu[:2], atol=1e-14)
        np.testing.assert_allclose(cov, s[:2, :2], atol=1e-14)

    def test_bivariate_textbook(self):
        rho = 0.6
        s = np.array([[1.0, rho], [rho, 1.0]])
        mu = np.array([0.3, -0.7])
        v = 1.4
        mean, cov = conditional_normal(mu, s, PartitionIndex.dropping(2, [1]), [v])
        np.testing.assert_allclose(mean, [mu[0] + rho * (v - mu[1])], atol=1e-14)
        np.testing.assert_allclose(cov, [[1 - rho**2]], atol=1e-14)

    def test_random_vs_block_inversion(self, rng):
        mu = rng.normal(size=4)
        s = random_spd(rng, 4)
        part = PartitionIndex(kept=(0, 2), removed=(1, 3))
        value = rng.normal(size=2)
        mean, cov = conditional_normal(mu, s, part, value)
        # independent dense route: explicit inverse of the conditioned block
        k, r = [0, 2], [1, 3]
        s22inv = np.linalg.inv(s[np.ix_(r, r)])
        mean_ref = mu[k] + s[np.ix_(k, r)] @ s22inv @ (value - mu[r])
        cov_ref = s[np.ix_(k, k)] - s[np.ix_(k, r)] @ s22inv @ s[np.ix_(r, k)]
        np.testing.assert_allclose(mean, mean_ref, rtol=1e-10)
        np.testing.assert_allclose(cov, cov_ref, rtol=1e-10)

    def test_output_symmetric_psd(self, rng):
        for _ in range(10):
            p = int(rng.integers(3, 7))
            s = random_spd(rng, p)
            mu = rng.normal(size=p)
            drop = sorted(rng.choice(p, size=p // 2, replace=False).tolist())
            part = PartitionIndex.dropping(p, drop)
            _, cov = conditional_normal(mu, s, part, rng.normal(size=len(drop)))
            np.testing.assert_array_equal(cov, cov.T)
            assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * np.trace(cov)

    def test_one_coordinate_block(self, monkeypatch):
        # a finite non-zero 1x1 block has condition number 1: no SVD is taken
        def no_svd(_):
            raise AssertionError("condition number computed for a 1x1 block")

        monkeypatch.setattr(np.linalg, "cond", no_svd)
        s = np.array([[2.0, 0.6, -0.3], [0.6, 1.5, 0.2], [-0.3, 0.2, 0.8]])
        mu = np.array([0.1, -0.4, 0.3])
        mean, cov = conditional_normal(mu, s, PartitionIndex.dropping(3, [1]), [0.9])
        k = [0, 2]
        np.testing.assert_allclose(mean, mu[k] + s[k, 1] / s[1, 1] * (0.9 - mu[1]),
                                   rtol=1e-14)
        np.testing.assert_allclose(
            cov, s[np.ix_(k, k)] - np.outer(s[k, 1], s[k, 1]) / s[1, 1], rtol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_regression_matches_ix_solve_bitwise(self, rng, dim):
        # the gathers by np.ix_ and one solve, the formula the regression
        # keeps bit for bit on one and on two conditioned-on coordinates
        for _ in range(20):
            s = random_spd(rng, dim) * 10.0 ** rng.uniform(-3.0, 3.0)
            r = sorted(rng.choice(dim, size=1 + (dim > 2 and rng.random() < 0.3),
                                  replace=False).tolist())
            k = [i for i in range(dim) if i not in r]
            s_rk = s[np.ix_(r, k)]
            b = np.linalg.solve(s[np.ix_(r, r)], s_rk).T
            want = (b, symmetrize(s[np.ix_(k, k)] - b @ s_rk))
            got = core._regression(s, k, r)
            assert [g.shape for g in got] == [w.shape for w in want]
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (s, r)

    def test_zero_one_coordinate_block_raises(self):
        s = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(SingularBlockError):
            conditional_normal(np.zeros(3), s, PartitionIndex.dropping(3, [1]), [0.0])

    def test_singular_block_raises(self):
        s = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularBlockError):
            conditional_normal(np.zeros(3), s, PartitionIndex.dropping(3, [0, 1]),
                               [0.0, 0.0])


class TestSliceGeometry:
    def test_one_coordinate_node_regresses_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("regression with nothing to regress")

        monkeypatch.setattr(core, "_regression", refuse)
        node = core._SliceGeometry(np.array([[2.0]]), np.array([0.5]), np.array([[1.75]]))
        child = node.slice(0)
        assert child.b.shape == (0,) and child.S.shape == (0, 0)
        assert child.Delta.shape == (0,) and child.Gamma.shape == (0, 0)
        assert child.s == pytest.approx(np.sqrt(1.0 - 0.25 / 2.0), rel=1e-15)

    @pytest.mark.parametrize("s_jj", [0.0, np.inf, np.nan])
    def test_one_coordinate_node_checks_its_block(self, s_jj):
        with pytest.raises(SingularBlockError):
            core._SliceGeometry(np.array([[s_jj]])).slice(0)
