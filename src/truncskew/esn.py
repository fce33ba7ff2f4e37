"""Extended skew-normal distribution.

Density, cdf, derived constants, marginal / conditional parameter maps,
closed-form untruncated moments, the limiting normal parameters for large
negative shift, and seeded sampling.

Every skewed rectangle task is carried by one normal task, the
:class:`NormalReduction` of :func:`reduce_to_normal`: :func:`augment` where
the law keeps its hidden coordinate, N(mu - mu_b, Gamma) where it does not.

The density is the normal density times a shifted normal-cdf factor,

    f(y) = xi^{-1} phi_p(y; mu, Sigma) Phi(tau + lam' Sigma^{-1/2} (y - mu)),

normalized by ``xi = Phi(tau_tilde)`` with ``tau_tilde = tau / sqrt(1+lam'lam)``.
``lam = 0, tau = 0`` is the plain normal; ``tau = 0`` is the classical
skew-normal (with the factor-2 normalization).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import settings
from .core import (
    PartitionIndex,
    as_sym_matrix,
    as_vector,
    sym_roots,
    sym_sqrt,
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


@dataclass(frozen=True)
class EsnParams:
    """Location ``mu``, PD scale ``sigma``, skewness ``lam``, shift ``tau``."""

    mu: np.ndarray
    sigma: np.ndarray
    lam: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        mu = as_vector(self.mu)
        sigma = as_sym_matrix(self.sigma, dim=mu.shape[0])
        lam = as_vector(self.lam, dim=mu.shape[0])
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def normal(cls, mu, sigma) -> "EsnParams":
        mu = as_vector(mu)
        return cls(mu=mu, sigma=sigma, lam=np.zeros(mu.shape[0]), tau=0.0)


@dataclass(frozen=True)
class EsnDerived:
    """Constants derived from :class:`EsnParams`, shared by all algorithms.

    ``delta = eta * sqrt(1 + lam'lam) * Delta`` holds by construction;
    ``Gamma = sigma - Delta Delta'`` is positive definite whenever sigma is.

    ``hidden`` is the one decision on the hidden coordinate of the
    hidden-truncation representation: it is kept only when lam != 0 and
    tau_tilde is at or above ``settings.tau_tilde_limit``.  At lam = 0 it is
    independent of Y with mass exactly xi, so dropping it is exact; below
    the switch point dropping it is the limiting-normal approximation.
    """

    lam_norm2: float          # 1 + lam' lam
    tau_tilde: float          # tau / sqrt(1 + lam' lam)
    xi: float                 # Phi(tau_tilde), in (0, 1]
    log_xi: float             # log Phi(tau_tilde), finite far into the tail
    eta: float                # phi(tau; 0, 1 + lam'lam) / xi
    varphi: np.ndarray        # sigma^{-1/2} lam
    Delta: np.ndarray         # sigma^{1/2} lam / sqrt(1 + lam'lam)
    delta: np.ndarray         # eta * sigma^{1/2} lam
    mu_b: np.ndarray          # tau_tilde * Delta
    Gamma: np.ndarray         # sigma - Delta Delta'
    sigma_sqrt: np.ndarray
    sigma_inv_sqrt: np.ndarray
    hidden: bool


def esn_derive(p: EsnParams) -> EsnDerived:
    """All derived constants; the normalizer is kept in log space so the
    far-left-tail regime stays finite."""
    lam_norm2 = 1.0 + float(p.lam @ p.lam)
    tau_tilde = p.tau / math.sqrt(lam_norm2)
    log_xi = log_std_cdf(tau_tilde)
    xi = math.exp(log_xi)
    # eta = phi(tau; 0, lam_norm2) / xi, formed in log space
    log_phi_tau = -0.5 * (math.log(2.0 * math.pi * lam_norm2) + p.tau * p.tau / lam_norm2)
    eta = math.exp(log_phi_tau - log_xi)
    sigma_sqrt, sigma_inv_sqrt = sym_roots(p.sigma)
    root_lam = sigma_sqrt @ p.lam
    Delta = root_lam / math.sqrt(lam_norm2)
    return EsnDerived(
        lam_norm2=lam_norm2,
        tau_tilde=tau_tilde,
        xi=xi,
        log_xi=log_xi,
        eta=eta,
        varphi=sigma_inv_sqrt @ p.lam,
        Delta=Delta,
        delta=eta * root_lam,
        mu_b=tau_tilde * Delta,
        Gamma=symmetrize(p.sigma - np.outer(Delta, Delta)),
        sigma_sqrt=sigma_sqrt,
        sigma_inv_sqrt=sigma_inv_sqrt,
        hidden=bool(np.any(p.lam)) and tau_tilde >= settings.tau_tilde_limit,
    )


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
        estimate: the normal rectangle and its estimate divided by xi."""
        prob, err = mvn_prob(self.box, self.params, cfg)
        return min(1.0, prob / self.xi), err / self.xi


def augment(p: EsnParams, box: TruncationBox | None = None,
            derived: EsnDerived | None = None) -> NormalReduction:
    """The reduction that keeps the hidden coordinate: the normal with
    location (mu, 0) and scale [[sigma, -Delta], [-Delta', 1]] on the box
    (the whole space by default) times (-inf, tau_tilde] in the last
    coordinate, which no moment index raises, and xi = Phi(tau_tilde)."""
    d = derived if derived is not None else esn_derive(p)
    if box is None:
        box = TruncationBox.unbounded(p.dim)
    if box.dim != p.dim:
        raise DimensionMismatchError("box and parameter dimensions differ")
    omega = np.empty((p.dim + 1, p.dim + 1))
    omega[:-1, :-1] = p.sigma
    omega[:-1, -1] = omega[-1, :-1] = -d.Delta
    omega[-1, -1] = 1.0
    params = NormalParams(np.append(p.mu, 0.0), omega)
    box = TruncationBox(np.append(box.lower, -np.inf), np.append(box.upper, d.tau_tilde))
    return NormalReduction(box, params, True, d.xi, ())


def reduce_to_normal(box: TruncationBox, p: EsnParams,
                     derived: EsnDerived | None = None) -> NormalReduction:
    """The ESN-to-normal reduction behind every skewed rectangle task.

    With the hidden coordinate (``EsnDerived.hidden``) it is :func:`augment`,
    whose xi >= Phi(-35) ~ 1e-268 is a normal double.  Without it, the
    p-dimensional normal N(mu - mu_b, Gamma) on the same box with xi = 1:
    N(mu, sigma) exactly at lam = 0, whatever tau is; the limiting normal
    below the shift switch point, where xi underflows (``corrections`` is
    ``("limit-tau",)``).
    """
    d = derived if derived is not None else esn_derive(p)
    if d.hidden:
        return augment(p, box, d)
    if box.dim != p.dim:
        raise DimensionMismatchError("box and parameter dimensions differ")
    corrections = ("limit-tau",) if np.any(p.lam) else ()
    return NormalReduction(box, esn_limit_params(p, d), False, 1.0, corrections)


# ----------------------------------------------------------------------------
# density and cdf


def esn_logpdf(x, p: EsnParams, derived: EsnDerived | None = None) -> float:
    """The normal log-density plus the log selection factor.  At lam = 0 the
    factor's two terms are the same double, so the result is the normal
    log-density bit for bit."""
    d = derived if derived is not None else esn_derive(p)
    x = as_vector(x, dim=p.dim)
    arg = p.tau + float(p.lam @ (d.sigma_inv_sqrt @ (x - p.mu)))
    return mvn_logpdf(x, NormalParams(p.mu, p.sigma)) + (log_std_cdf(arg) - d.log_xi)


def esn_pdf(x, p: EsnParams, derived: EsnDerived | None = None) -> float:
    return math.exp(esn_logpdf(x, p, derived))


def esn_cdf(y, p: EsnParams, cfg: QmcConfig = DEFAULT_QMC,
            derived: EsnDerived | None = None) -> float:
    """P(Y <= y): the rectangle probability over (-inf, y], i.e.
    :meth:`NormalReduction.prob` of that box's reduction."""
    y = as_vector(y, dim=p.dim)
    return reduce_to_normal(TruncationBox(np.full(p.dim, -np.inf), y), p, derived).prob(cfg)[0]


# ----------------------------------------------------------------------------
# marginal / conditional parameter maps


def _partition_quantities(p: EsnParams, one: list[int], two: list[int],
                          derived: EsnDerived | None = None):
    """Blocks used by both the marginal and the conditional map, with the
    conventions of the closure property: block 'one' is kept / conditioned
    on, block 'two' is the complement."""
    varphi = (derived if derived is not None else esn_derive(p)).varphi
    S11 = p.sigma[np.ix_(one, one)]
    S12 = p.sigma[np.ix_(one, two)]
    S22 = p.sigma[np.ix_(two, two)]
    phi1 = varphi[one]
    phi2 = varphi[two]
    S11_inv_S12 = np.linalg.solve(S11, S12)
    S22_1 = symmetrize(S22 - S12.T @ S11_inv_S12)
    phi1_tilde = phi1 + S11_inv_S12 @ phi2
    c12 = 1.0 / math.sqrt(1.0 + float(phi2 @ (S22_1 @ phi2)))
    return S11, S12, S22_1, phi1_tilde, phi2, c12, S11_inv_S12


def esn_marginal(p: EsnParams, keep: PartitionIndex,
                 derived: EsnDerived | None = None) -> EsnParams:
    """Parameters of the kept sub-vector (the family is closed under
    marginalization)."""
    if keep.dim != p.dim:
        raise DimensionMismatchError("partition does not match dimension")
    one = list(keep.kept)
    two = list(keep.removed)
    if not two:
        return p
    S11, _, _, phi1_tilde, _, c12, _ = _partition_quantities(p, one, two, derived)
    lam1 = c12 * (sym_sqrt(S11) @ phi1_tilde)
    return EsnParams(mu=p.mu[one], sigma=S11, lam=lam1, tau=c12 * p.tau)


def esn_conditional(p: EsnParams, given: PartitionIndex, value,
                    derived: EsnDerived | None = None) -> EsnParams:
    """Parameters of the kept sub-vector given ``x[removed] = value``."""
    if given.dim != p.dim:
        raise DimensionMismatchError("partition does not match dimension")
    one = list(given.removed)
    two = list(given.kept)
    value = as_vector(value, dim=len(one))
    if not one:
        return p
    _, S12, S22_1, phi1_tilde, phi2, _, S11_inv_S12 = _partition_quantities(p, one, two, derived)
    dev = value - p.mu[one]
    mu_cond = p.mu[two] + S11_inv_S12.T @ dev
    tau_cond = p.tau + float(phi1_tilde @ dev)
    lam_cond = sym_sqrt(S22_1) @ phi2
    return EsnParams(mu=mu_cond, sigma=S22_1, lam=lam_cond, tau=tau_cond)


# ----------------------------------------------------------------------------
# untruncated moments and limiting behaviour


def esn_mean_cov(p: EsnParams) -> FirstTwoMoments:
    """Closed-form untruncated mean and covariance.

    Uses the standardized representation Z = sigma^{-1/2}(Y - mu) whose mean
    is eta*lam.  Without a hidden coordinate the moments of the
    p-dimensional normal of :func:`reduce_to_normal` are returned instead:
    mu and sigma exactly at lam = 0, the limiting normal's below the shift
    switch point (the closed form degrades by cancellation there).
    """
    d = esn_derive(p)
    if not d.hidden:
        red = reduce_to_normal(TruncationBox.unbounded(p.dim), p, d)
        return FirstTwoMoments.from_mean_cov(red.params.mu, red.params.sigma,
                                             corrections=red.corrections)
    mean_z = d.eta * p.lam
    # var of the hidden coordinate truncated above at tau_tilde is
    # 1 - r*(r + tau_tilde) with r the Mills ratio, which propagates to
    # I - E[Z](E[Z] + (tau/(1+lam'lam)) lam)'.
    cov_z = np.eye(p.dim) - np.outer(mean_z, mean_z + (p.tau / d.lam_norm2) * p.lam)
    mean = p.mu + d.sigma_sqrt @ mean_z
    cov = symmetrize(d.sigma_sqrt @ cov_z @ d.sigma_sqrt)
    return FirstTwoMoments.from_mean_cov(mean, cov)


def esn_limit_params(p: EsnParams, derived: EsnDerived | None = None) -> NormalParams:
    """Normal parameters the family collapses to as the shift goes to -inf:
    location mu - mu_b, scale Gamma."""
    d = derived if derived is not None else esn_derive(p)
    return NormalParams(mu=p.mu - d.mu_b, sigma=d.Gamma)


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


def sample_with_rng(p: EsnParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` variates advancing the caller's generator (lets several
    chunks share one deterministic stream)."""
    from scipy.special import ndtri_exp

    d = esn_derive(p)
    x2 = ndtri_exp(d.log_xi + np.log(rng.random(n)))
    z = rng.standard_normal((n, p.dim))
    return p.mu - np.outer(x2, d.Delta) + z @ _psd_factor(d.Gamma).T


def _psd_factor(S: np.ndarray) -> np.ndarray:
    """A factor A with A A' = S; Cholesky when PD, symmetric root otherwise."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return sym_sqrt(S)
