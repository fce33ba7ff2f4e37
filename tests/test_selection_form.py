"""Internal laws in their selection form: a slice, marginal, conditional or
reflection of a law carries (mu, sigma, Delta, tau_tilde) and takes no
matrix root, and the sessions on both sides of a slice share its geometry.
Only a law given by (mu, sigma, lam, tau) is decomposed, once."""

import sys

import numpy as np
import pytest

from truncskew import (
    EsnParams,
    TruncationBox,
    edge_conditional,
    fesn_mean_cov,
    fesn_mean_cov_orthant,
    fesn_moment,
    sym_sqrt,
    tesn_moment,
)
from truncskew import core
from truncskew.core import PartitionIndex, conditional_normal, sym_roots
from truncskew.tesn import TesnSession

from conftest import FAST_QMC, random_esn_params

_BOX = TruncationBox([-1.5, -0.8, -2.0], [1.2, 2.0, 0.7])

# the public calls whose session trees the invariants cover
_CALLS = {
    "recurrence-moment": lambda p: tesn_moment(_BOX, p, (2, 1, 1), FAST_QMC, "recurrence"),
    "folded-moment": lambda p: fesn_moment(p, (1, 1, 1), FAST_QMC, "orthant-sum"),
    "folded-mean-cov": lambda p: fesn_mean_cov(p, FAST_QMC),
}


def _spy(monkeypatch, original, record):
    """Replace ``original`` in every truncskew module that binds it by a
    wrapper that passes its arguments to ``record`` first."""
    def spy(*args):
        record(*args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "truncskew":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)


@pytest.mark.parametrize("call", _CALLS)
def test_only_the_public_law_is_decomposed(rng, monkeypatch, call):
    p = random_esn_params(rng, 3)
    decomposed = []
    _spy(monkeypatch, core._psd_eigh, decomposed.append)
    _CALLS[call](p)
    assert len(decomposed) == 1
    assert decomposed[0] is p.sigma


@pytest.mark.parametrize("call", _CALLS)
def test_no_regression_is_repeated(rng, monkeypatch, call):
    # both sides of a slice, and the orthant boxes of one law in a folded
    # sum, take one regression of it
    inputs = []
    _spy(monkeypatch, core._regression,
         lambda S, k, r: inputs.append((S.tobytes(), tuple(k), tuple(r))) if k else None)
    _CALLS[call](random_esn_params(rng, 3))
    assert inputs
    assert len(set(inputs)) == len(inputs)


def test_both_sides_of_a_slice_share_its_geometry(rng):
    p = random_esn_params(rng, 3)
    session = TesnSession(_BOX, p, FAST_QMC)
    session.fk((1, 1, 0))
    for j in range(3):
        (_, lower), (_, upper) = session._edge(j, 0), session._edge(j, 1)
        assert lower._geometry is upper._geometry is session._geometry.slice(j)
        assert lower.normal._geometry is upper.normal._geometry


@pytest.mark.parametrize("j", [0, 1, 2])
def test_edge_conditional_lam_and_tau(rng, j):
    # the slice law's lam and tau, computed when read, match the regression
    # form: lam = S^{1/2} varphi_others and tau' = tau + w (t - mu_j), with
    # S the conditional covariance and w = varphi_j + b' varphi_others
    for _ in range(5):
        p = random_esn_params(rng, 3)
        t = float(p.mu[j] + rng.normal() * np.sqrt(p.sigma[j, j]))
        _, law = edge_conditional(p, j, t)
        others = [k for k in range(3) if k != j]
        varphi = sym_roots(p.sigma)[1] @ p.lam
        b = p.sigma[others, j] / p.sigma[j, j]
        _, S = conditional_normal(p.mu, p.sigma, PartitionIndex.dropping(3, [j]), [t])
        np.testing.assert_allclose(law.lam, sym_sqrt(S) @ varphi[others], rtol=1e-12, atol=0)
        tau = p.tau + (varphi[j] + b @ varphi[others]) * (t - p.mu[j])
        assert law.tau == pytest.approx(tau, rel=1e-12, abs=1e-15)
        assert not law.lam.flags.writeable


def test_internal_law_reads_like_a_public_one(rng):
    # a law rebuilt from the lam and tau of an internal one has its constants
    p = random_esn_params(rng, 3)
    _, law = edge_conditional(p, 1, 0.3)
    again = EsnParams(law.mu, law.sigma, law.lam, law.tau)
    for name in ("tau_tilde", "xi", "log_xi"):
        assert getattr(law.derived, name) == pytest.approx(getattr(again.derived, name),
                                                           rel=1e-12)
    for name in ("Delta", "delta", "mu_b", "Gamma", "varphi"):
        np.testing.assert_allclose(getattr(law.derived, name), getattr(again.derived, name),
                                   rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("gap", [1e-14, 1e-15])
def test_folded_mean_cov_at_a_near_singular_pair(gap):
    # the explicit route's marginals need no regression, so a pair
    # correlated within 1e-14 of 1 answers; it agrees with the nearby law
    # and with the orthant sum
    def law(r):
        sigma = [[1.0, r, 0.3], [r, 1.0, 0.3], [0.3, 0.3, 1.0]]
        return EsnParams(mu=np.zeros(3), sigma=sigma, lam=[0.5, 0.0, -0.5], tau=0.3)

    near = fesn_mean_cov(law(1.0 - gap)).mean
    np.testing.assert_allclose(near, [0.794332, 0.794332, 0.789849], atol=1e-5)
    np.testing.assert_allclose(near, fesn_mean_cov(law(1.0 - 1e-10)).mean, atol=1e-4)
    np.testing.assert_allclose(near, fesn_mean_cov_orthant(law(1.0 - gap)).mean, atol=1e-4)

