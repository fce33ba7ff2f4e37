"""Validation happens once, where an input enters the library.

The public constructors and ``conditional_normal`` check what they are
given; the objects the library derives from checked ones are built by the
private trusted constructors and make no further ``as_sym_matrix`` call.
"""

import sys

import numpy as np
import pytest

from truncskew import (
    EsnParams,
    NormalParams,
    PartitionIndex,
    TruncationBox,
    conditional_normal,
    fesn_moment,
    tesn_moment,
)
from truncskew import cli, core
from truncskew.errors import DimensionMismatchError

from conftest import FAST_QMC

ASYMMETRIC = np.array([[1.0, 0.5], [0.2, 1.0]])


class TestPublicConstructorsCheck:
    @pytest.mark.parametrize("lower, upper", [
        ([np.nan, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.nan]),
        ([0.0, 1.0], [1.0, 1.0]),
        ([0.0, 2.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0]),
    ], ids=["nan-lower", "nan-upper", "equal", "reversed", "lengths"])
    def test_truncation_box(self, lower, upper):
        with pytest.raises(DimensionMismatchError):
            TruncationBox(lower, upper)

    @pytest.mark.parametrize("mu, sigma", [
        ([0.0, 0.0], ASYMMETRIC),
        ([0.0, 0.0], np.eye(3)),
        ([0.0, 0.0], np.ones((2, 3))),
        ([np.inf, 0.0], np.eye(2)),
        ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]]),
    ], ids=["asymmetric", "dimension", "not-square", "infinite-mu", "nan-sigma"])
    def test_normal_params(self, mu, sigma):
        with pytest.raises(DimensionMismatchError):
            NormalParams(mu, sigma)

    @pytest.mark.parametrize("mu, sigma, lam, tau", [
        ([0.0, 0.0], ASYMMETRIC, [0.0, 0.0], 0.0),
        ([0.0, 0.0], np.eye(3), [0.0, 0.0], 0.0),
        ([0.0, 0.0], np.eye(2), [0.0, 0.0, 0.0], 0.0),
        ([np.nan, 0.0], np.eye(2), [0.0, 0.0], 0.0),
        ([0.0, 0.0], np.eye(2), [np.inf, 0.0], 0.0),
        ([0.0], [[1.0]], [1.0], np.inf),
        ([0.0], [[1.0]], [1.0], -np.inf),
        ([0.0], [[1.0]], [1.0], np.nan),
    ], ids=["asymmetric", "sigma-dimension", "lam-dimension", "nan-mu", "infinite-lam",
            "infinite-tau", "minus-infinite-tau", "nan-tau"])
    def test_esn_params(self, mu, sigma, lam, tau):
        with pytest.raises(DimensionMismatchError):
            EsnParams(mu=mu, sigma=sigma, lam=lam, tau=tau)

    @pytest.mark.parametrize("mu, sigma, part, value", [
        ([0.0, 0.0], ASYMMETRIC, PartitionIndex.dropping(2, [1]), [0.0]),
        ([0.0, 0.0], np.eye(3), PartitionIndex.dropping(2, [1]), [0.0]),
        ([0.0, 0.0, 0.0], np.eye(3), PartitionIndex.dropping(2, [1]), [0.0]),
        ([0.0, 0.0], np.eye(2), PartitionIndex.dropping(2, [1]), [0.0, 1.0]),
    ], ids=["asymmetric", "sigma-dimension", "partition-dimension", "value-length"])
    def test_conditional_normal(self, mu, sigma, part, value):
        with pytest.raises(DimensionMismatchError):
            conditional_normal(mu, sigma, part, value)

    def test_esn_params_copies_stay_read_only(self):
        mu = np.zeros(2)
        p = EsnParams(mu=mu, sigma=np.eye(2), lam=[1.0, 0.0])
        mu[0] = 5.0
        assert p.mu[0] == 0.0
        with pytest.raises(ValueError):
            p.sigma[0, 0] = 2.0


# as_sym_matrix calls made before derived objects had trusted constructors,
# for the p = 3 moment (1, 1, 1) of cli._benchmark_instance(3, 20240101)
_CHECKS_BEFORE = {"normal-reduction": 160, "recurrence": 340, "orthant-sum": 403}


@pytest.fixture
def sym_checks(monkeypatch):
    """Count ``as_sym_matrix`` calls through every module that binds it."""
    calls = []
    original = core.as_sym_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("truncskew") and getattr(module, "as_sym_matrix", None) is original:
            monkeypatch.setattr(module, "as_sym_matrix", counted)
    return calls


@pytest.mark.parametrize("method", sorted(_CHECKS_BEFORE))
def test_moment_checks_its_inputs_once(sym_checks, method):
    box, params = cli._benchmark_instance(3, 20240101)
    sym_checks.clear()
    if method == "orthant-sum":
        fesn_moment(params, (1, 1, 1), FAST_QMC, method)
    else:
        tesn_moment(box, params, (1, 1, 1), FAST_QMC, method)
    assert 4 * len(sym_checks) <= _CHECKS_BEFORE[method]


def test_derived_laws_stay_read_only():
    from truncskew.esn import esn_conditional, esn_marginal

    _, p = cli._benchmark_instance(3, 20240101)
    for law in (esn_marginal(p, PartitionIndex.dropping(3, [0])),
                esn_conditional(p, PartitionIndex.dropping(3, [2]), [0.5])):
        for arr in (law.mu, law.sigma, law.lam):
            assert not arr.flags.writeable
        assert isinstance(law.tau, float)
