"""Shared helpers: random instance factories and a light QMC config for tests."""

import numpy as np
import pytest

from truncskew import EsnParams, NormalParams, QmcConfig, TruncationBox, tesn_prob

# Smaller lattice than the library default; error estimates scale accordingly
# and every comparison against a stochastic path uses them.
FAST_QMC = QmcConfig(sample_count=2048, replicates=8, seed=20240101)


def random_spd(rng: np.random.Generator, p: int, jitter: float = 0.0) -> np.ndarray:
    a = rng.normal(size=(p, p))
    return a @ a.T + (0.5 * p + 0.5 + jitter) * np.eye(p)


def random_normal_params(rng: np.random.Generator, p: int) -> NormalParams:
    return NormalParams(rng.normal(size=p) * 0.5, random_spd(rng, p))


def random_esn_params(rng: np.random.Generator, p: int,
                      tau_scale: float = 1.0) -> EsnParams:
    return EsnParams(
        mu=rng.normal(size=p) * 0.5,
        sigma=random_spd(rng, p),
        lam=rng.normal(size=p) * 0.8,
        tau=float(rng.normal() * tau_scale),
    )


def random_box(rng: np.random.Generator, mu: np.ndarray, sigma: np.ndarray,
               allow_infinite: bool = True) -> TruncationBox:
    p = mu.shape[0]
    sd = np.sqrt(np.diag(sigma))
    lower = mu - (0.2 + 2.0 * rng.random(p)) * sd
    upper = mu + (0.2 + 2.0 * rng.random(p)) * sd
    if allow_infinite:
        lower[rng.random(p) < 0.25] = -np.inf
        upper[rng.random(p) < 0.25] = np.inf
    return TruncationBox(lower, upper)


def random_instance_with_mass(rng: np.random.Generator, p: int,
                              min_prob: float = 1e-3, tau_scale: float = 1.0,
                              allow_infinite: bool = True):
    """(box, params) with box probability at least ``min_prob``."""
    while True:
        params = random_esn_params(rng, p, tau_scale=tau_scale)
        box = random_box(rng, params.mu, params.sigma, allow_infinite)
        if tesn_prob(box, params, FAST_QMC) >= min_prob:
            return box, params


def unresolved_limit_box():
    """A p = 3 box whose mass is below the kernel's error estimate: the
    benchmark's p = 3 law at tau_tilde = -40, the box at the limiting
    mean +- 1 sd except coordinate 1, which sits 9-10 sd above it (mass
    1.6e-32, trivariate estimate 1.1e-30)."""
    import math

    from truncskew.cli import _benchmark_instance
    from truncskew.esn import esn_limit_params

    _, base = _benchmark_instance(3, 20240101)
    pr = EsnParams(base.mu, base.sigma, base.lam,
                   tau=-40.0 * math.sqrt(1.0 + base.lam @ base.lam))
    lim = esn_limit_params(pr)
    sd = np.sqrt(np.diag(lim.sigma))
    lo, hi = lim.mu - sd, lim.mu + sd
    lo[0], hi[0] = lim.mu[0] + 9.0 * sd[0], lim.mu[0] + 10.0 * sd[0]
    return TruncationBox(lo, hi), pr


def unit_index(p: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(p))


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
