"""Extended skew-normal distribution.

Density, cdf, derived constants, marginal / conditional parameter maps,
closed-form untruncated moments, the limiting normal parameters for large
negative shift, and seeded sampling.

Each law derives its constants (:class:`EsnDerived`) once, as
:attr:`EsnParams.derived`, where every routine reads them: by one matrix root
for a law given by ``(mu, sigma, lam, tau)`` (:func:`esn_derive`), by none
for the slices, marginals, conditionals and reflections the library builds,
which carry their selection form ``(mu, sigma, Delta, tau_tilde)``
(:func:`_selection_law`) and compute ``lam`` and ``tau`` only when read.

Every skewed rectangle task is carried by one normal task, the
:class:`NormalReduction` of :func:`reduce_to_normal`: :func:`augment` where
the law keeps its hidden coordinate, N(mu - mu_b, Gamma) where it does not.

The density is the normal density times a shifted normal-cdf factor,

    f(y) = xi^{-1} phi_p(y; mu, Sigma) Phi(tau + varphi' (y - mu)),

with the slant ``varphi = Sigma^{-1/2} lam``, normalized by
``xi = Phi(tau_tilde)`` with ``tau_tilde = tau / sqrt(1+lam'lam)``.
``lam = 0, tau = 0`` is the plain normal; ``tau = 0`` is the classical
skew-normal (with the factor-2 normalization).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    PartitionIndex,
    _regression,
    _sym_roots,
    _sym_sqrt,
    _unchecked,
    as_sym_matrix,
    as_vector,
    symmetrize,
)
from .errors import DimensionMismatchError
from .moments import FirstTwoMoments, MultiIndex
from .mvn import (
    DEFAULT_QMC,
    NormalParams,
    QmcConfig,
    TruncationBox,
    log_std_cdf,
    mvn_logpdf,
    mvn_prob,
)

__all__ = [
    "EsnParams",
    "EsnDerived",
    "NormalReduction",
    "esn_derive",
    "esn_pdf",
    "esn_logpdf",
    "esn_cdf",
    "esn_marginal",
    "esn_conditional",
    "esn_mean_cov",
    "esn_limit_params",
    "esn_sample",
    "augment",
    "reduce_to_normal",
]

_TAU_TILDE_LIMIT = -35.0  # below it, a law drops its hidden coordinate for the limiting normal
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class EsnParams:
    """Location ``mu``, PD scale ``sigma``, skewness ``lam``, shift ``tau``.

    The arrays are read-only, so :attr:`derived` never goes stale."""

    mu: np.ndarray
    sigma: np.ndarray
    lam: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        mu = as_vector(self.mu).copy()
        sigma = as_sym_matrix(self.sigma, dim=mu.shape[0])
        lam = as_vector(self.lam, dim=mu.shape[0]).copy()
        tau = float(self.tau)
        if not all(np.isfinite(arr).all() for arr in (mu, sigma, lam, tau)):
            raise DimensionMismatchError("mu, sigma, lam and tau must be finite")
        for name, arr in (("mu", mu), ("sigma", sigma), ("lam", lam)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "tau", tau)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def derived(self) -> "EsnDerived":
        """The law's constants, derived once on first use (:func:`esn_derive`)."""
        return esn_derive(self)

    @classmethod
    def normal(cls, mu, sigma) -> "EsnParams":
        mu = as_vector(mu)
        return cls(mu=mu, sigma=sigma, lam=np.zeros(mu.shape[0]), tau=0.0)


class _SelectionLaw(EsnParams):
    """A law of :func:`_selection_law`, whose ``lam = sigma^{1/2} varphi``
    (one root) and ``tau = tau_tilde sqrt(1 + varphi' sigma varphi)`` are
    computed on first read."""

    @cached_property
    def lam(self) -> np.ndarray:
        lam = _sym_sqrt(self.sigma) @ self.derived.varphi
        lam.flags.writeable = False
        return lam

    @cached_property
    def tau(self) -> float:
        varphi = self.derived.varphi
        return self.derived.tau_tilde * math.sqrt(1.0 + float(varphi @ self.sigma @ varphi))


def _selection_law(mu, sigma, Delta, Gamma, tau_tilde: float) -> EsnParams:
    """The law of mu + X given U <= tau_tilde, (X, U) normal with Cov(X) =
    ``sigma``, Var(U) = 1 and Cov(X, U) = -``Delta`` (Arellano-Valle &
    Azzalini 2006), and ``Gamma = sigma - Delta Delta'``: float arrays,
    ``sigma`` and ``Gamma`` exactly symmetric, made read-only in place."""
    mu.flags.writeable = sigma.flags.writeable = False
    law = _unchecked(_SelectionLaw, mu, sigma)
    law.__dict__["derived"] = _derived(Delta, Gamma, tau_tilde)
    return law


@dataclass(frozen=True)
class EsnDerived:
    """Constants derived from :class:`EsnParams`, shared by all algorithms.

    With the hidden coordinate U of :func:`_selection_law`, ``delta = r
    Delta`` with r = phi(tau_tilde) / Phi(tau_tilde) the Mills ratio, ``mu_b =
    tau_tilde Delta`` and ``Gamma = Cov(X | U)``, positive definite whenever
    sigma is; none takes a root.

    ``hidden`` is the one decision on the hidden coordinate of the
    hidden-truncation representation: it is kept only when lam != 0 and
    tau_tilde is at or above ``_TAU_TILDE_LIMIT``.  At lam = 0 it is
    independent of Y with mass exactly xi, so dropping it is exact; below
    the switch point dropping it is the limiting-normal approximation.
    """

    tau_tilde: float          # tau / sqrt(1 + lam' lam)
    xi: float                 # Phi(tau_tilde), in (0, 1]
    log_xi: float             # log Phi(tau_tilde), finite far into the tail
    Delta: np.ndarray         # sigma^{1/2} lam / sqrt(1 + lam'lam)
    delta: np.ndarray         # r Delta, r the Mills ratio at tau_tilde
    mu_b: np.ndarray          # tau_tilde * Delta
    Gamma: np.ndarray         # sigma - Delta Delta'
    hidden: bool

    @cached_property
    def varphi(self) -> np.ndarray:
        """The slant sigma^{-1/2} lam = u / sqrt(1 + Delta'u), u = Gamma^{-1}
        Delta (:func:`esn_derive` sets it from its root)."""
        u = np.linalg.solve(self.Gamma, self.Delta)
        return u / math.sqrt(1.0 + float(self.Delta @ u))


def _derived(Delta: np.ndarray, Gamma: np.ndarray, tau_tilde: float) -> EsnDerived:
    """The constants of a selection form, the normalizer and the Mills ratio
    formed in log space so the far-left-tail regime stays finite."""
    log_xi = log_std_cdf(tau_tilde)
    mills = math.exp(-0.5 * (_LOG_2PI + tau_tilde * tau_tilde) - log_xi)
    hidden = bool(np.any(Delta)) and tau_tilde >= _TAU_TILDE_LIMIT
    return _unchecked(EsnDerived, tau_tilde, math.exp(log_xi), log_xi, Delta, mills * Delta,
                      tau_tilde * Delta, Gamma, hidden)


def esn_derive(p: EsnParams) -> EsnDerived:
    """The constants of a law given by ``(mu, sigma, lam, tau)``: ``Delta``
    and the slant from one eigendecomposition of sigma."""
    lam_norm2 = 1.0 + float(p.lam @ p.lam)
    sigma_sqrt, sigma_inv_sqrt = _sym_roots(p.sigma)
    Delta = sigma_sqrt @ p.lam / math.sqrt(lam_norm2)
    d = _derived(Delta, symmetrize(p.sigma - np.outer(Delta, Delta)), p.tau / math.sqrt(lam_norm2))
    d.__dict__["varphi"] = sigma_inv_sqrt @ p.lam
    return d


class NormalReduction(NamedTuple):
    """A normal rectangle task that carries an ESN one: the ESN integral of
    ``y^kappa`` over the ESN box is the normal integral of ``lift(kappa)``
    over ``box`` divided by ``xi``, up to the approximations named in
    ``corrections``.  :meth:`prob` is the one round trip of a box
    probability; moments map back by keeping the first p coordinates."""

    box: TruncationBox
    params: NormalParams
    hidden: bool              # a hidden last coordinate was appended
    xi: float
    corrections: tuple[str, ...]

    def lift(self, kappa: MultiIndex) -> MultiIndex:
        return kappa + (0,) if self.hidden else kappa

    def prob(self, cfg: QmcConfig = DEFAULT_QMC) -> tuple[float, float]:
        """The ESN box probability, capped at 1, and its absolute error
        estimate: the normal rectangle and its estimate divided by xi, plus
        the rounding of xi = exp(log Phi(tau_tilde)), whose relative error
        stays below (4 |log xi| + 1) 2^-53."""
        prob, err = mvn_prob(self.box, self.params, cfg)
        prob = min(1.0, prob / self.xi)
        return prob, err / self.xi + (4.0 * abs(math.log(self.xi)) + 1.0) * 2.0 ** -53 * prob


def augment(p: EsnParams, box: TruncationBox) -> NormalReduction:
    """The reduction that keeps the hidden coordinate: the normal with
    location (mu, 0) and scale [[sigma, -Delta], [-Delta', 1]] on the box
    times (-inf, tau_tilde] in the last coordinate, which no moment index
    raises, and xi = Phi(tau_tilde)."""
    d = p.derived
    if box.dim != p.dim:
        raise DimensionMismatchError("box and parameter dimensions differ")
    omega = np.empty((p.dim + 1, p.dim + 1))
    omega[:-1, :-1] = p.sigma
    omega[:-1, -1] = omega[-1, :-1] = -d.Delta
    omega[-1, -1] = 1.0
    params = NormalParams._trusted(np.append(p.mu, 0.0), omega)
    box = TruncationBox._trusted(np.append(box.lower, -np.inf), np.append(box.upper, d.tau_tilde))
    return NormalReduction(box, params, True, d.xi, ())


def reduce_to_normal(box: TruncationBox, p: EsnParams) -> NormalReduction:
    """The ESN-to-normal reduction behind every skewed rectangle task.

    With the hidden coordinate (``EsnDerived.hidden``) it is :func:`augment`,
    whose xi >= Phi(-35) ~ 1e-268 is a normal double.  Without it, the
    p-dimensional normal N(mu - mu_b, Gamma) on the same box with xi = 1:
    N(mu, sigma) exactly at lam = 0, whatever tau is; the limiting normal
    below the shift switch point, where xi underflows (``corrections`` is
    ``("limit-tau",)``).
    """
    if p.derived.hidden:
        return augment(p, box)
    if box.dim != p.dim:
        raise DimensionMismatchError("box and parameter dimensions differ")
    corrections = ("limit-tau",) if np.any(p.derived.Delta) else ()
    return NormalReduction(box, esn_limit_params(p), False, 1.0, corrections)


# ----------------------------------------------------------------------------
# density and cdf


def esn_logpdf(x, p: EsnParams) -> float:
    """The normal log-density plus the log selection factor.  At lam = 0 the
    factor's two terms are the same double, so the result is the normal
    log-density bit for bit."""
    d = p.derived
    x = as_vector(x, dim=p.dim)
    arg = p.tau + float(d.varphi @ (x - p.mu))
    return mvn_logpdf(x, NormalParams._trusted(p.mu, p.sigma)) + (log_std_cdf(arg) - d.log_xi)


def esn_pdf(x, p: EsnParams) -> float:
    return math.exp(esn_logpdf(x, p))


def esn_cdf(y, p: EsnParams, cfg: QmcConfig = DEFAULT_QMC) -> float:
    """P(Y <= y): the rectangle probability over (-inf, y], i.e.
    :meth:`NormalReduction.prob` of that box's reduction."""
    y = as_vector(y, dim=p.dim)
    return reduce_to_normal(TruncationBox(np.full(p.dim, -np.inf), y), p).prob(cfg)[0]


# ----------------------------------------------------------------------------
# marginal / conditional parameter maps


def esn_marginal(p: EsnParams, keep: PartitionIndex) -> EsnParams:
    """Parameters of the kept sub-vector (the family is closed under
    marginalization): subsets of the selection form, tau_tilde kept."""
    if keep.dim != p.dim:
        raise DimensionMismatchError("partition does not match dimension")
    one = list(keep.kept)
    if not keep.removed:
        return p
    d = p.derived
    return _selection_law(p.mu[one], p.sigma[one][:, one], d.Delta[one], d.Gamma[one][:, one],
                          d.tau_tilde)


def esn_conditional(p: EsnParams, given: PartitionIndex, value) -> EsnParams:
    """Parameters of the kept sub-vector given ``x[removed] = value``: one
    regression of the kept coordinates on the removed ones, and U given
    them, mean ``-a'(value - mu_removed)`` (``a = sigma_removed^{-1}
    Delta_removed``) and variance ``s^2 = 1 - Delta_removed' a``, rescaled."""
    if given.dim != p.dim:
        raise DimensionMismatchError("partition does not match dimension")
    one = list(given.removed)
    two = list(given.kept)
    value = as_vector(value, dim=len(one))
    if not one:
        return p
    d = p.derived
    B, S = _regression(p.sigma, two, one)
    a = np.linalg.solve(p.sigma[one][:, one], d.Delta[one])
    s = math.sqrt(1.0 - float(d.Delta[one] @ a))
    dev = value - p.mu[one]
    Delta = (d.Delta[two] - B @ d.Delta[one]) / s
    return _selection_law(p.mu[two] + B @ dev, S, Delta, symmetrize(S - np.outer(Delta, Delta)),
                          (d.tau_tilde + float(a @ dev)) / s)


# ----------------------------------------------------------------------------
# untruncated moments and limiting behaviour


def esn_mean_cov(p: EsnParams) -> FirstTwoMoments:
    """Closed-form untruncated mean and covariance.

    With the hidden coordinate U (Y = mu + X given U <= tau_tilde, where
    Cov(X, U) = -Delta), the truncated U has mean -r and variance
    1 - r (r + tau_tilde), r the Mills ratio, so E[Y] = mu + delta and
    Var[Y] = sigma - delta (delta + mu_b)'.  Without a hidden coordinate the
    moments of the p-dimensional normal of :func:`reduce_to_normal` are
    returned instead: mu and sigma exactly at lam = 0, the limiting normal's
    below the shift switch point (the closed form degrades by cancellation
    there).
    """
    d = p.derived
    if not d.hidden:
        red = reduce_to_normal(TruncationBox.unbounded(p.dim), p)
        return FirstTwoMoments.from_mean_cov(red.params.mu, red.params.sigma,
                                             corrections=red.corrections)
    cov = symmetrize(p.sigma - np.outer(d.delta, d.delta + d.mu_b))
    return FirstTwoMoments.from_mean_cov(p.mu + d.delta, cov)


def esn_limit_params(p: EsnParams) -> NormalParams:
    """Normal parameters the family collapses to as the shift goes to -inf:
    location mu - mu_b, scale Gamma."""
    return NormalParams._trusted(p.mu - p.derived.mu_b, p.derived.Gamma)


# ----------------------------------------------------------------------------
# sampling


def esn_sample(p: EsnParams, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. draws, deterministic given ``seed`` (Philox 4x64 keyed
    by the seed).

    Uses the hidden-truncation representation: (X1 | X2 < tau_tilde) with
    (X1, X2) jointly normal.  Every draw is exact for every xi, with no
    rejection: X2 comes from its truncated law by log-space inverse cdf and
    X1 from the normal conditional on it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return sample_with_rng(p, n, rng)


def sample_with_rng(p: EsnParams, n: int, rng: "np.random.Generator") -> np.ndarray:
    """Draw ``n`` variates advancing the caller's generator (lets several
    chunks share one deterministic stream)."""
    from scipy.special import ndtri_exp

    d = p.derived
    x2 = ndtri_exp(d.log_xi + np.log(rng.random(n)))
    z = rng.standard_normal((n, p.dim))
    return p.mu - np.outer(x2, d.Delta) + z @ _psd_factor(d.Gamma).T


def _psd_factor(S: np.ndarray) -> np.ndarray:
    """A factor A with A A' = S; Cholesky when PD, symmetric root otherwise."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return _sym_sqrt(S)
