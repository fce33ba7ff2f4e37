"""Folded distributions: the law of the componentwise absolute value.

A fold is a sum over the 2^p sign patterns s of the reflected laws; the
extended skew-normal family is closed under reflection (only mu, the
off-diagonal scale entries, and lam flip; the shift and the normalizer are
invariant).  Moments reduce to positive-orthant integrals, available through
the direct recurrence (:func:`fesn_ik`), the normal reduction of each
reflected law, or -- for the first two moments -- explicit formulas that
collapse the sign sum to a handful of univariate and bivariate evaluations
per matrix entry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import settings
from .core import PartitionIndex, symmetrize
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NegativeArgumentError,
)
from .esn import EsnParams, esn_cdf, esn_derive, esn_limit_params, esn_logpdf, esn_marginal
from .moments import FirstTwoMoments
from .mvn import (
    DEFAULT_QMC,
    QmcConfig,
    TruncationBox,
    mvn_prob,
    norm_pdf,
    std_cdf,
)
from .tesn import TesnSession, edge_conditional, tesn_fk, tesn_fk_via_normal, tesn_prob

__all__ = [
    "SignPattern",
    "sign_patterns",
    "flip_params",
    "fesn_pdf",
    "fesn_cdf",
    "fesn_ik",
    "fesn_moment",
    "fesn_mean_cov",
    "FoldedCrossWork",
    "folded_cross_work",
    "fesn_mean_cov_orthant",
]


@dataclass(frozen=True)
class SignPattern:
    """One element of {-1, +1}^p with its parity."""

    s: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (-1, 1) for v in self.s):
            raise ValueError("sign pattern entries must be -1 or +1")
        object.__setattr__(self, "s", tuple(int(v) for v in self.s))

    @property
    def pi_s(self) -> int:
        return int(np.prod(self.s))

    @property
    def vec(self) -> np.ndarray:
        return np.asarray(self.s, dtype=float)


def sign_patterns(dim: int):
    """All 2^dim sign patterns in Gray-code order (adjacent patterns differ
    in a single flip)."""
    if dim > settings.orthant_sum_max_dim:
        raise DimensionTooLargeError(
            f"2^{dim} sign patterns exceed the cap of 2^{settings.orthant_sum_max_dim}"
        )
    for k in range(1 << dim):
        g = k ^ (k >> 1)
        yield SignPattern(tuple(-1 if (g >> b) & 1 else 1 for b in range(dim)))


def flip_params(p: EsnParams, s: SignPattern) -> EsnParams:
    """Parameters of Lambda_s X: the family is closed under reflections, with
    the shift invariant."""
    if len(s.s) != p.dim:
        raise DimensionMismatchError("sign pattern length does not match dim")
    v = s.vec
    return EsnParams(mu=v * p.mu, sigma=symmetrize(p.sigma * np.outer(v, v)),
                     lam=v * p.lam, tau=p.tau)


def _require_nonnegative(y, dim: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (dim,):
        raise DimensionMismatchError(f"expected a vector of length {dim}")
    if np.any(y < 0.0):
        raise NegativeArgumentError("folded distributions live on the positive orthant")
    return y


def fesn_pdf(y, p: EsnParams) -> float:
    """Density of |X| at y >= 0: the 2^p-term reflection sum."""
    y = _require_nonnegative(y, p.dim)
    return float(sum(math.exp(esn_logpdf(y, flip_params(p, s)))
                     for s in sign_patterns(p.dim)))


def fesn_cdf(y, p: EsnParams, cfg: QmcConfig = DEFAULT_QMC) -> float:
    """P(|X| <= y) = rectangle probability of [-y, y]: a single call, no
    sign sum."""
    y = _require_nonnegative(y, p.dim)
    if np.any(y == 0.0):
        return 0.0
    return tesn_prob(TruncationBox(-y, y), p, cfg)


def fesn_ik(p: EsnParams, kappa, session: TesnSession | None = None,
            cfg: QmcConfig = DEFAULT_QMC) -> float:
    """Positive-orthant moment integral I_kappa: :func:`tesn_fk` with lower
    limits 0 and upper limits infinity (so the zero-power lower edge is the
    only surviving boundary term)."""
    return tesn_fk(TruncationBox.orthant(p.dim), p, kappa, session, cfg)


def fesn_moment(p: EsnParams, kappa, method: str = "orthant-sum",
                cfg: QmcConfig = DEFAULT_QMC) -> float:
    """Raw folded moment E[|X|^kappa]: the sum over sign patterns of the
    positive-orthant integral of each reflected law.

    'orthant-sum' takes each from the direct recurrence (:func:`tesn_fk`);
    'normal-reduction' from :func:`tesn_fk_via_normal`.
    """
    if method == "orthant-sum":
        fk = tesn_fk
    elif method == "normal-reduction":
        fk = tesn_fk_via_normal
    else:
        raise ValueError(f"unknown method {method!r}")
    orthant = TruncationBox.orthant(p.dim)
    return float(sum(fk(orthant, flip_params(p, s), kappa, cfg=cfg)
                     for s in sign_patterns(p.dim)))


# ----------------------------------------------------------------------------
# explicit first two moments


@dataclass(frozen=True)
class FoldedCrossWork:
    """Every sub-quantity of the collapsed cross-moment formula, exposed so
    each can be checked against an independent oracle before assembly."""

    pair: EsnParams
    m: np.ndarray                  # limiting location mu - mu_b
    gamma: np.ndarray              # limiting scale
    dens_i: float                  # univariate density factor at x_i = 0
    dens_j: float
    cond_given_i: EsnParams        # law of V_j | V_i = 0
    cond_given_j: EsnParams        # law of V_i | V_j = 0
    cdf_ji: float                  # its cdf at 0 (and mirrored)
    cdf_ij: float
    cdf2_i: float                  # P(V_i > 0, V_j < 0), skewed law
    cdf2_j: float                  # P(V_i < 0, V_j > 0)
    ncdf2_i: float                 # the same two under the limiting normal
    ncdf2_j: float
    m_ji: float                    # normal conditional at zero: mean ...
    v_ji: float                    # ... and variance, both orders
    m_ij: float
    v_ij: float
    inner_abs: float               # E|V_i| under the conditional given V_j = 0


def folded_cross_work(pair: EsnParams, cfg: QmcConfig = DEFAULT_QMC) -> FoldedCrossWork:
    """Assemble the ingredients of the explicit E|V_i V_j| formula for a
    bivariate law (coordinate 0 = i, coordinate 1 = j)."""
    d = esn_derive(pair)
    m = pair.mu - d.mu_b
    g_ii, g_ij, g_jj = d.Gamma[0, 0], d.Gamma[0, 1], d.Gamma[1, 1]

    ec_i = edge_conditional(pair, 0, d)
    ec_j = edge_conditional(pair, 1, d)
    cond_given_i = ec_i.child_params(pair, 0.0, d)
    cond_given_j = ec_j.child_params(pair, 0.0, d)

    flip_i = flip_params(pair, SignPattern((-1, 1)))
    flip_j = flip_params(pair, SignPattern((1, -1)))
    origin = np.zeros(2)
    neg_box = TruncationBox([-np.inf, -np.inf], [0.0, 0.0])

    return FoldedCrossWork(
        pair=pair,
        m=m,
        gamma=d.Gamma,
        dens_i=ec_i.edge_density(0.0),
        dens_j=ec_j.edge_density(0.0),
        cond_given_i=cond_given_i,
        cond_given_j=cond_given_j,
        cdf_ji=esn_cdf([0.0], cond_given_i, cfg),
        cdf_ij=esn_cdf([0.0], cond_given_j, cfg),
        cdf2_i=esn_cdf(origin, flip_i, cfg),
        cdf2_j=esn_cdf(origin, flip_j, cfg),
        ncdf2_i=mvn_prob(neg_box, esn_limit_params(flip_i), cfg)[0],
        ncdf2_j=mvn_prob(neg_box, esn_limit_params(flip_j), cfg)[0],
        m_ji=m[1] - g_ij * m[0] / g_ii,
        v_ji=g_jj - g_ij * g_ij / g_ii,
        m_ij=m[0] - g_ij * m[1] / g_jj,
        v_ij=g_ii - g_ij * g_ij / g_jj,
        inner_abs=fesn_moment(cond_given_j, (1,), cfg=cfg),
    )


def _abs_cross_moment(pair: EsnParams, cfg: QmcConfig) -> float:
    """E[|V_0 V_1|] for a bivariate law, with the four-orthant sum collapsed.

    Ingredients: the mixed-orthant probabilities under the skewed and the
    limiting-normal law, the two density factors at zero, the univariate
    conditional cdfs at zero, and one univariate folded first moment of the
    conditional law.
    """
    w = folded_cross_work(pair, cfg)
    d = esn_derive(pair)
    mu_i, mu_j = pair.mu
    s_ii, s_ij, s_jj = pair.sigma[0, 0], pair.sigma[0, 1], pair.sigma[1, 1]
    delta_i, delta_j = d.delta
    mb_i, mb_j = d.mu_b
    g_ii, g_ij, g_jj = w.gamma[0, 0], w.gamma[0, 1], w.gamma[1, 1]
    ncdf_ji = std_cdf(-w.m_ji / math.sqrt(w.v_ji))
    ncdf_ij = std_cdf(-w.m_ij / math.sqrt(w.v_ij))
    return (
        (mu_i * mu_j + s_ij) * (1.0 - 2.0 * (w.cdf2_i + w.cdf2_j))
        + (delta_i * mu_j + delta_j * (mu_i - mb_i))
        * (1.0 - 2.0 * (w.ncdf2_i + w.ncdf2_j))
        + 2.0 * mu_j * (s_ii * w.dens_i * (1.0 - 2.0 * w.cdf_ji)
                        + s_ij * w.dens_j * (1.0 - 2.0 * w.cdf_ij))
        + 2.0 * delta_j * (g_ii * norm_pdf(mu_i, mb_i, g_ii) * (1.0 - 2.0 * ncdf_ji)
                           + g_ij * norm_pdf(mu_j, mb_j, g_jj) * (1.0 - 2.0 * ncdf_ij))
        + 2.0 * s_jj * w.dens_j * w.inner_abs
    )


def fesn_mean_cov(p: EsnParams, cfg: QmcConfig = DEFAULT_QMC) -> FirstTwoMoments:
    """Mean and covariance of |X| without a 2^p sum.

    Diagonal entries come from the univariate marginal folds; each
    off-diagonal entry from the collapsed bivariate formula applied to the
    corresponding marginal pair.
    """
    n = p.dim
    mean = np.zeros(n)
    raw2 = np.zeros((n, n))
    for i in range(n):
        marg = esn_marginal(p, PartitionIndex.dropping(n, [k for k in range(n) if k != i]))
        mean[i] = fesn_moment(marg, (1,), cfg=cfg)
        raw2[i, i] = fesn_moment(marg, (2,), cfg=cfg)
    for i in range(n):
        for j in range(i + 1, n):
            keep = PartitionIndex.dropping(n, [k for k in range(n) if k not in (i, j)])
            pair = esn_marginal(p, keep)
            raw2[i, j] = raw2[j, i] = _abs_cross_moment(pair, cfg)
    cov = symmetrize(raw2 - np.outer(mean, mean))
    return FirstTwoMoments(mean=mean, raw2=symmetrize(raw2), cov=cov)


def fesn_mean_cov_orthant(p: EsnParams, cfg: QmcConfig = DEFAULT_QMC) -> FirstTwoMoments:
    """Mean and covariance of |X| by the full 2^p orthant sum (reference
    implementation for cross-checks and the benchmark)."""
    n = p.dim
    mean = np.zeros(n)
    raw2 = np.zeros((n, n))
    for s in sign_patterns(n):
        session = TesnSession(TruncationBox.orthant(n), flip_params(p, s), cfg)
        for i in range(n):
            e_i = tuple(1 if k == i else 0 for k in range(n))
            mean[i] += session.fk(e_i)
            for j in range(i, n):
                kappa = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(n))
                val = session.fk(kappa)
                raw2[i, j] += val
                if j != i:
                    raw2[j, i] += val
    cov = symmetrize(raw2 - np.outer(mean, mean))
    return FirstTwoMoments(mean=mean, raw2=symmetrize(raw2), cov=cov)
