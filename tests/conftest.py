"""Shared helpers: random instance factories, a light QMC config, boxes
at the edge of what the kernels resolve, and a 1-d quadrature reference
for truncated normal moments."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import minimize_scalar
from scipy.special import erfcx, ndtr

from truncskew import (
    EsnParams,
    NormalParams,
    QmcConfig,
    TruncationBox,
    mvn_prob,
    tesn_prob,
    tn_first_two_mgf,
)

# Smaller lattice than the library default; error estimates scale accordingly
# and every comparison against a stochastic path uses them.
FAST_QMC = QmcConfig(sample_count=2048, replicates=8, seed=20240101)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


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


def far_tail_limit_box():
    """A p = 3 box far out in the limit regime: the benchmark's p = 3 law at
    tau_tilde = -40, the box at the limiting mean +- 1 sd except coordinate
    0, which sits 9-10 sd above it.  Its mass, 1.6e-32, is resolved (estimate
    1.3e-41), so the recurrence and MGF routes answer it; the corrected path
    still pins coordinate 0."""
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


def unresolved_box():
    """A p = 3 box whose mass is below the kernel's error estimate: the law
    with unit variances, correlations 0.7, lambda = (0.5, -0.3, 0.2) and
    tau = 0 on (-inf, -8] x [-1, 1]^2.  The dim-4 rectangle of its reduction
    cancels over its corners to 0.0, with estimate 2.8e-26."""
    sigma = np.full((3, 3), 0.7)
    np.fill_diagonal(sigma, 1.0)
    pr = EsnParams(np.zeros(3), sigma, [0.5, -0.3, 0.2], 0.0)
    return TruncationBox([-np.inf, -1.0, -1.0], [-8.0, 1.0, 1.0]), pr


def unit_index(p: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(p))


def moments_by_quad(lo, hi, conditional):
    """Mean and covariance of a standard normal X, of correlation R, on the
    box [lo, hi], by scipy's QUADPACK over x_0.  ``conditional(x)`` gives
    log P(rest in box | x_0 = x) and the truncated mean and covariance of
    the rest given x_0 = x.  The weight phi(x) P(rest | x) is log-concave
    with curvature below -1, so it is scaled by its top and integrated over
    12 either side of its mode, beyond which it is below exp(-72) of its top."""
    nodes = {}

    def at(x):
        if x not in nodes:
            log_p, mean, cov = conditional(x)
            nodes[x] = (-0.5 * x * x + log_p, np.asarray(mean, float), np.asarray(cov, float))
        return nodes[x]

    a, b = max(lo[0], -40.0), min(hi[0], 40.0)
    mode = minimize_scalar(lambda x: -at(x)[0], bounds=(a, b), method="bounded").x
    top = at(mode)[0]
    a, b = max(a, mode - 12.0), min(b, mode + 12.0)

    def integral(f):
        def g(x):
            log_w, mean, cov = at(x)
            return math.exp(log_w - top) * f(x, mean, cov)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(g, a, b, points=[mode] if a < mode < b else None,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]

    mass = integral(lambda x, m, c: 1.0)
    mean0 = integral(lambda x, m, c: x) / mass
    rest = len(lo) - 1
    mean_r = np.array([integral(lambda x, m, c, j=j: m[j]) for j in range(rest)]) / mass
    mean = np.concatenate(([mean0], mean_r))

    def second(i, j):
        def f(x, m, c):
            dev = np.concatenate(([x], m)) - mean
            return (c[i - 1, j - 1] if i and j else 0.0) + dev[i] * dev[j]
        return integral(f) / mass

    cov = np.array([[second(min(i, j), max(i, j)) for j in range(rest + 1)]
                    for i in range(rest + 1)])
    return mean, cov


def bvn_conditional(lo, hi, rho):
    """:func:`moments_by_quad`'s ``conditional`` for two coordinates: x_1
    given x_0 = x is N(rho x, s^2) on [lo_1, hi_1].  Its standardized
    interval [al, be] is taken on the side where the cdf is small; with both
    limits below 0 the mass and the ratios phi / mass come from scipy's
    ``erfcx`` (the Mills ratio Phi(t) / phi(t) = sqrt(pi / 2) erfcx(-t /
    sqrt 2)), which keeps them to a few ulps in the far tail."""
    s = math.sqrt((1.0 - rho) * (1.0 + rho))

    def mills(t):
        return math.sqrt(0.5 * math.pi) * float(erfcx(-t * math.sqrt(0.5)))

    def conditional(x):
        al, be = float(lo[1] - rho * x) / s, float(hi[1] - rho * x) / s
        flip = al + be > 0.0  # NaN, so no flip, on the whole line
        if flip:
            al, be = -be, -al
        if be <= 0.0:
            # phi(al) / phi(be), and the mass over phi(be)
            ratio = math.exp(-0.5 * (al - be) * (al + be))
            z = mills(be) - ratio * mills(al)
            log_z = -0.5 * be * be - _LOG_SQRT_2PI + math.log(z)
            pa, pb = ratio / z, 1.0 / z
        else:
            z = float(ndtr(be) - ndtr(al))
            log_z = math.log(z)
            pa, pb = (math.exp(-0.5 * t * t - _LOG_SQRT_2PI) / z if math.isfinite(t) else 0.0
                      for t in (al, be))
        mean = pa - pb
        var = 1.0 + (al * pa if pa else 0.0) - (be * pb if pb else 0.0) - mean * mean
        return log_z, [rho * x + s * (-mean if flip else mean)], [[s * s * var]]

    return conditional


def tn_conditional(lo, hi, R):
    """:func:`moments_by_quad`'s ``conditional`` from this library at one
    dimension down: the rectangle and the MGF moments of the rest given
    x_0 = x, which the bivariate test checks against closed forms."""
    b = R[1:, 0]
    pars = NormalParams(np.zeros(len(b)), R[1:, 1:] - np.outer(b, b))

    def conditional(x):
        box = TruncationBox(lo[1:] - b * x, hi[1:] - b * x)
        m = tn_first_two_mgf(box, pars)
        return math.log(mvn_prob(box, pars)[0]), m.mean + b * x, m.cov

    return conditional


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
