"""Folded distributions: the law of the componentwise absolute value.

A fold is a sum over the 2^p sign patterns s of the reflected laws; the
extended skew-normal family is closed under reflection (only mu, the
off-diagonal scale entries, and lam flip; the shift and the normalizer are
invariant).  Moments reduce to positive-orthant integrals, available through
the direct recurrence (:func:`fesn_ik`), the normal reduction of each
reflected law, or -- for the first two moments -- explicit formulas that
collapse the sign sum to a handful of univariate and bivariate evaluations
per matrix entry.

The 2^p orthant masses of a sign sum come from one inclusion-exclusion
table (:func:`_orthant_masses`): reflecting coordinates commutes with the
normal reduction and leaves tau_tilde unchanged, so every reflected
orthant is a signed sum of the lower-orthant masses of the unreflected
normal: C(p, k) rectangle calls of dimension k + 1 for k = 0..p (k below
the switch point, where k = 0 needs none), so one (p+1)-dimensional call
where one call per pattern made 2^p.  The masses sum to one by
construction.

The edge terms share one slice cache per sum (:func:`_pattern_fks`).  Every
edge of a positive orthant lies at x_j = 0, which reflecting x_j leaves in
place, so pattern s and pattern s with coordinate j flipped have the same
child law on that slice: the law of the free coordinates given the fixed
ones, reflected by the free signs.  Their sessions, at every depth, take
that child and its memo table from the cache instead of building their own.
"""

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .core import PartitionIndex, _regression, symmetrize
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NegativeArgumentError,
)
from .esn import (
    EsnParams,
    esn_cdf,
    esn_limit_params,
    esn_logpdf,
    esn_marginal,
    esn_mean_cov,
    reduce_to_normal,
)
from .moments import FirstTwoMoments, as_multi_index
from .mvn import (
    DEFAULT_QMC,
    NormalParams,
    QmcConfig,
    TruncationBox,
    mvn_prob,
    norm_pdf,
    std_cdf,
)
from .tesn import _session, edge_conditional, tesn_fk, tesn_prob
from .tn import TnSession

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

_ORTHANT_SUM_MAX_DIM = 12  # cap on dimension for 2**p sign-pattern sums


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
    if dim > _ORTHANT_SUM_MAX_DIM:
        raise DimensionTooLargeError(
            f"2^{dim} sign patterns exceed the cap of 2^{_ORTHANT_SUM_MAX_DIM}"
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
    return EsnParams._trusted(v * p.mu, symmetrize(p.sigma * np.outer(v, v)), v * p.lam, p.tau)


def _require_nonnegative(y, dim: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (dim,):
        raise DimensionMismatchError(f"expected a vector of length {dim}")
    if np.any(y < 0.0):
        raise NegativeArgumentError("folded distributions live on the positive orthant")
    return y


def fesn_pdf(y, p: EsnParams) -> float:
    """Density of |X| at y >= 0: the 2^p-term reflection sum, the law's own
    density at the reflected points s * y (a reflection has unit Jacobian)."""
    y = _require_nonnegative(y, p.dim)
    return float(sum(math.exp(esn_logpdf(s.vec * y, p)) for s in sign_patterns(p.dim)))


def fesn_cdf(y, p: EsnParams, cfg: QmcConfig = DEFAULT_QMC) -> float:
    """P(|X| <= y) = rectangle probability of [-y, y]: a single call, no
    sign sum."""
    y = _require_nonnegative(y, p.dim)
    if np.any(y == 0.0):
        return 0.0
    return tesn_prob(TruncationBox(-y, y), p, cfg)


def fesn_ik(p: EsnParams, kappa, cfg: QmcConfig = DEFAULT_QMC) -> float:
    """Positive-orthant moment integral I_kappa: :func:`tesn_fk` with lower
    limits 0 and upper limits infinity (so the zero-power lower edge is the
    only surviving boundary term), on a fresh session."""
    return tesn_fk(TruncationBox.orthant(p.dim), p, kappa, cfg)


def _orthant_masses(box: TruncationBox, params: NormalParams, dim: int,
                    cfg: QmcConfig, kappas=()) -> dict[SignPattern, tuple[float, float]]:
    """Masses of the 2^dim sign-pattern orthants of a normal, with error
    estimates, from one inclusion-exclusion table.

    The first ``dim`` coordinates are folded; any further coordinate (the
    hidden one of :func:`reduce_to_normal`) keeps its interval in ``box``.
    The lower-orthant mass G(B) = P(X_i <= 0 for i in B, further
    coordinates in their intervals) takes one :func:`mvn_prob` call of
    dimension |B| plus the number of further coordinates (no call, mass 1,
    when that is zero).  With P_s and N_s the coordinates where s_i = +1
    and -1, orthant s is the subset transform

        sum over A in P_s of (-1)^|A| G(N_s + A),

    with the sum of the terms' estimates as its estimate.  The masses are
    not clamped, so they sum to G(empty set) exactly; a massless orthant
    can come out slightly negative, within its estimate.

    ``kappas`` are the moment indices the masses serve.  In the folded
    moment of index kappa, pattern s's mass is weighted by prod_i
    s_i^kappa_i times a common factor, so the error of G(B) cancels unless
    kappa is odd on every coordinate of B; then it enters 2^|B| times with
    one sign, where 2^|B| separate orthant calls would add independent
    errors to about 2^(|B|/2) times one.  Such a call gets 2^(|B|/2) times
    ``cfg.sample_count`` points, which makes up the difference for a
    lattice error falling like 1 / points.
    """
    extra = list(range(dim, params.dim))
    lower = np.concatenate([np.full(dim, -np.inf), box.lower[dim:]])
    upper = np.concatenate([np.zeros(dim), box.upper[dim:]])
    n_sets = 1 << dim
    mass = np.ones(n_sets)
    err = np.zeros(n_sets)
    odd_sets = [sum(1 << i for i, k in enumerate(kappa) if k % 2) for kappa in kappas]
    for b in range(n_sets):
        in_b = [i for i in range(dim) if b >> i & 1]
        idx = in_b + extra
        if idx:
            call_cfg = cfg
            if in_b and any(b & odd == b for odd in odd_sets):
                call_cfg = replace(cfg, sample_count=int(
                    cfg.sample_count * 2.0 ** (len(in_b) / 2)))
            mass[b], err[b] = mvn_prob(
                TruncationBox._trusted(lower[idx], upper[idx]),
                NormalParams._trusted(params.mu[idx], params.sigma[np.ix_(idx, idx)]), call_cfg)
    # superset Moebius transform, one coordinate at a time: entry b ends as
    # the orthant whose negative coordinates are the set b
    sets = np.arange(n_sets)
    for i in range(dim):
        below = sets[(sets >> i & 1) == 0]
        mass[below] -= mass[below | 1 << i]
        err[below] += err[below | 1 << i]
    out = {}
    for s in sign_patterns(dim):
        b = sum(1 << i for i, v in enumerate(s.s) if v < 0)
        out[s] = (float(mass[b]), float(err[b]))
    return out


def _pattern_fks(p: EsnParams, method: str, cfg: QmcConfig, kappas):
    """One evaluator ``kappa -> F_kappa`` per sign pattern: the
    positive-orthant integral of the reflected law, on a session whose F_0
    memo (and its companion normal's) is seeded from :func:`_orthant_masses`
    for the indices ``kappas``.

    'orthant-sum' runs :func:`~truncskew.tesn._session` on each reflected
    law; 'normal-reduction' a :class:`TnSession` on its
    :func:`reduce_to_normal`, whose F_0 is the unnormalized mass (the result
    is divided by xi).  All of them, and the companion normals of those that
    are a ``TesnSession``, take their edge children from one slice cache
    (:class:`~truncskew.tn.RecurrenceSession`).
    """
    if method not in ("orthant-sum", "normal-reduction"):
        raise ValueError(f"unknown method {method!r}")
    n = p.dim
    zero = (0,) * n
    orthant = TruncationBox.orthant(n)
    red = reduce_to_normal(orthant, p)
    masses = _orthant_masses(red.box, red.params, n, cfg, kappas)
    if method == "orthant-sum" and red.hidden:
        companion = _orthant_masses(orthant, esn_limit_params(p), n, cfg, kappas)
    fks = []
    # weak: every session holds the cache, and each child is held by the
    # session that built it, so the trees are freed without a cycle
    slices = weakref.WeakValueDictionary()
    for s in sign_patterns(n):
        flipped = flip_params(p, s)
        if method == "orthant-sum":
            session = _session(orthant, flipped, cfg)
            session._share(slices, "main", (), tuple(range(n)), s.s)
            session.table[zero] = masses[s][0] / red.xi
            if red.hidden:
                session.normal.table[zero] = companion[s][0]
            fks.append(session.fk)
        else:
            red_s = reduce_to_normal(orthant, flipped)
            session = TnSession(red_s.box, red_s.params, cfg)
            # the hidden coordinate is never reflected
            session._share(slices, "main", (), tuple(range(red_s.box.dim)),
                           s.s + (1,) * red_s.hidden)
            session.table[red_s.lift(zero)] = masses[s][0]
            fks.append(lambda kappa, session=session, red_s=red_s:
                       session.fk(red_s.lift(kappa)) / red_s.xi)
    return fks


def fesn_moment(p: EsnParams, kappa, cfg: QmcConfig = DEFAULT_QMC,
                method: str = "orthant-sum") -> float:
    """Raw folded moment E[|X|^kappa]: the sum over sign patterns of the
    positive-orthant integral of each reflected law.

    'orthant-sum' takes each from the direct recurrence (as
    :func:`tesn_fk`); 'normal-reduction' from the normal reduction (as
    :func:`~truncskew.tesn.tesn_fk_via_normal`).  Either way the orthant
    masses come from one table (:func:`_orthant_masses`) and sum to one
    exactly: at p = 3 one dim-4, three dim-3, three dim-2 and one dim-1
    call where one call per pattern made eight dim-4 calls.  The edge terms
    of all patterns share their slice children (:func:`_pattern_fks`), so
    each slice law is integrated once per fixing order, not once per
    pattern.
    """
    kappa = as_multi_index(kappa, p.dim)
    return float(sum(fk(kappa) for fk in _pattern_fks(p, method, cfg, [kappa])))


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
    d = pair.derived
    m = pair.mu - d.mu_b
    b_ji, v_ji = _regression(d.Gamma, [1], [0])
    b_ij, v_ij = _regression(d.Gamma, [0], [1])

    dens_i, cond_given_i = edge_conditional(pair, 0, 0.0)
    dens_j, cond_given_j = edge_conditional(pair, 1, 0.0)

    flip_i = flip_params(pair, SignPattern((-1, 1)))
    flip_j = flip_params(pair, SignPattern((1, -1)))
    origin = np.zeros(2)
    neg_box = TruncationBox([-np.inf, -np.inf], [0.0, 0.0])

    return FoldedCrossWork(
        pair=pair,
        m=m,
        gamma=d.Gamma,
        dens_i=dens_i,
        dens_j=dens_j,
        cond_given_i=cond_given_i,
        cond_given_j=cond_given_j,
        cdf_ji=esn_cdf([0.0], cond_given_i, cfg),
        cdf_ij=esn_cdf([0.0], cond_given_j, cfg),
        cdf2_i=esn_cdf(origin, flip_i, cfg),
        cdf2_j=esn_cdf(origin, flip_j, cfg),
        ncdf2_i=mvn_prob(neg_box, esn_limit_params(flip_i), cfg)[0],
        ncdf2_j=mvn_prob(neg_box, esn_limit_params(flip_j), cfg)[0],
        m_ji=m[1] - b_ji[0, 0] * m[0],
        v_ji=v_ji[0, 0],
        m_ij=m[0] - b_ij[0, 0] * m[1],
        v_ij=v_ij[0, 0],
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
    d = pair.derived
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

    The means come from the univariate marginal folds.  The diagonal raw
    second moments need no fold, since |X_i|^2 = X_i^2: they are those of
    the unfolded law (:func:`esn_mean_cov`).  Each off-diagonal entry comes
    from the collapsed bivariate formula applied to the corresponding
    marginal pair.
    """
    n = p.dim
    mean = np.zeros(n)
    raw2 = np.diag(np.diag(esn_mean_cov(p).raw2))
    for i in range(n):
        marg = esn_marginal(p, PartitionIndex.dropping(n, [k for k in range(n) if k != i]))
        mean[i] = fesn_moment(marg, (1,), cfg=cfg)
    for i in range(n):
        for j in range(i + 1, n):
            keep = PartitionIndex.dropping(n, [k for k in range(n) if k not in (i, j)])
            pair = esn_marginal(p, keep)
            raw2[i, j] = raw2[j, i] = _abs_cross_moment(pair, cfg)
    cov = symmetrize(raw2 - np.outer(mean, mean))
    return FirstTwoMoments(mean=mean, raw2=symmetrize(raw2), cov=cov)


def fesn_mean_cov_orthant(p: EsnParams, cfg: QmcConfig = DEFAULT_QMC) -> FirstTwoMoments:
    """Mean and covariance of |X| by the full 2^p orthant sum (reference
    implementation for cross-checks and the benchmark): one direct
    recurrence session per reflected law, every orthant mass (and the
    companion normal's) from one inclusion-exclusion table as in
    :func:`fesn_moment`, so one (p+1)-dim rectangle call in place of 2^p."""
    n = p.dim
    mean = np.zeros(n)
    raw2 = np.zeros((n, n))
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    pairs = {(i, j): tuple(a + b for a, b in zip(units[i], units[j]))
             for i in range(n) for j in range(i, n)}
    for fk in _pattern_fks(p, "orthant-sum", cfg, units + list(pairs.values())):
        for i in range(n):
            mean[i] += fk(units[i])
        for (i, j), kappa in pairs.items():
            val = fk(kappa)
            raw2[i, j] += val
            if j != i:
                raw2[j, i] += val
    cov = symmetrize(raw2 - np.outer(mean, mean))
    return FirstTwoMoments(mean=mean, raw2=symmetrize(raw2), cov=cov)
