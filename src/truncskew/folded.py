"""Folded distributions: the law of the componentwise absolute value.

A fold is a sum over the 2^p sign patterns s of the law on its orthant
O_s = {x : s_i x_i >= 0}, where |x|^kappa = prod_i s_i^kappa_i x^kappa: a
folded moment is a signed sum of the law's own moment integrals over the
2^p orthant boxes, and the folded density the law's density at the
reflected points s * y.  Moments come from those integrals, through the
direct recurrence or the normal reduction, or -- for the first two
moments -- from explicit formulas that collapse the sign sum to a handful
of univariate and bivariate evaluations per matrix entry.

The 2^p orthant masses of a sign sum come from one inclusion-exclusion
table (:func:`_orthant_masses`) of the lower-orthant masses of the law's
normal reduction (the hidden coordinate keeps its interval): C(p, k)
rectangle calls of dimension k + 1 for k = 0..p (k below the switch
point, where k = 0 needs none), so one (p+1)-dimensional call where one
call per pattern made 2^p.  The masses sum to one by construction.

The edge terms share one slice geometry and one slice cache per sum
(:func:`_pattern_fks`).  Every edge of an orthant lies at x_j = 0,
whichever side of it the orthant takes, so orthant s and orthant s with
coordinate j flipped have the same child law and box on that slice.  Their
sessions, at every depth, take that child and its memo table from the
cache instead of building their own.
"""

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .core import PartitionIndex, _SliceGeometry, symmetrize
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NegativeArgumentError,
)
from .esn import (
    EsnParams,
    _selection_law,
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
from .tesn import _session, _slice_map, tesn_fk, tesn_prob
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
    """Parameters of Lambda_s X, in the selection form with no matrix root:
    the signs of mu, of Delta and of the off-diagonal entries of sigma and
    Gamma flip, and tau_tilde stays."""
    if len(s.s) != p.dim:
        raise DimensionMismatchError("sign pattern length does not match dim")
    v = s.vec
    flip = np.outer(v, v)
    d = p.derived
    law = _selection_law(v * p.mu, p.sigma * flip, v * d.Delta, d.Gamma * flip, d.tau_tilde)
    if "lam" in vars(p):  # a lam and tau already known reflect exactly, with no root
        law.__dict__.update(lam=v * p.lam, tau=p.tau)
        law.lam.flags.writeable = False
    return law


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
    """One evaluator ``kappa -> prod_i s_i^kappa_i F_kappa(O_s)`` per sign
    pattern s: the law's moment integral over its orthant O_s, on a session
    whose F_0 memo (and its companion normal's) is seeded from
    :func:`_orthant_masses` for the indices ``kappas``.

    'orthant-sum' runs :func:`~truncskew.tesn._session` on the law over each
    orthant; 'normal-reduction' a :class:`TnSession` on the law's
    :func:`reduce_to_normal` over it, whose F_0 is the unnormalized mass
    (the result is divided by xi).  All of them, and the companion normals
    of those that are a ``TesnSession``, hang off one root
    :class:`~truncskew.core._SliceGeometry` -- of (sigma, Delta, Gamma), or
    of the reduction's covariance -- and take their edge children from one
    slice cache (:class:`~truncskew.tn.RecurrenceSession`).
    """
    if method not in ("orthant-sum", "normal-reduction"):
        raise ValueError(f"unknown method {method!r}")
    n = p.dim
    zero = (0,) * n
    orthant = TruncationBox.orthant(n)
    red = reduce_to_normal(orthant, p)
    masses = _orthant_masses(red.box, red.params, n, cfg, kappas)
    if method == "orthant-sum":
        d = p.derived
        geometry = _SliceGeometry(p.sigma, d.Delta, d.Gamma)
        if red.hidden:
            companion = _orthant_masses(orthant, esn_limit_params(p), n, cfg, kappas)
    else:
        geometry = _SliceGeometry(red.params.sigma)
    fks = []
    # weak: every session holds the cache, and each child is held by the
    # session that built it, so the trees are freed without a cycle
    slices = weakref.WeakValueDictionary()
    for s in sign_patterns(n):
        v = s.vec  # the orthant O_s
        box = TruncationBox._trusted(np.where(v > 0, 0.0, -np.inf), np.where(v > 0, np.inf, 0.0))
        if method == "orthant-sum":
            session = _session(box, p, cfg, geometry)
            session.table[zero] = masses[s][0] / red.xi
            if red.hidden:
                session.normal.table[zero] = companion[s][0]
            fk = session.fk
        else:
            session = TnSession(reduce_to_normal(box, p).box, red.params, cfg, geometry)
            session.table[red.lift(zero)] = masses[s][0]
            fk = lambda kappa, session=session: session.fk(red.lift(kappa)) / red.xi
        session._share(slices)
        fks.append(lambda kappa, signs=s.s, fk=fk: math.prod(map(pow, signs, kappa)) * fk(kappa))
    return fks


def fesn_moment(p: EsnParams, kappa, cfg: QmcConfig = DEFAULT_QMC,
                method: str = "orthant-sum") -> float:
    """Raw folded moment E[|X|^kappa]: the sum over sign patterns s of the
    law's moment integral over the orthant O_s, signed by prod_i
    s_i^kappa_i.

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
    bivariate law (coordinate 0 = i, coordinate 1 = j).  Both edge slices
    at 0 and the limiting normal's regressions come from one slice geometry
    of the pair, and the mixed-orthant probabilities are box probabilities
    of the pair itself."""
    d = pair.derived
    m = pair.mu - d.mu_b
    geometry = _SliceGeometry(pair.sigma, d.Delta, d.Gamma)
    (dens_i, law_i), (dens_j, law_j) = (
        _slice_map(pair, j, geometry, lambda law, sub: law)(0.0) for j in (0, 1))
    cond_given_i, cond_given_j = law_i(), law_j()
    normal_i, normal_j = geometry.companion.slice(0), geometry.companion.slice(1)
    plus_minus = TruncationBox([0.0, -np.inf], [np.inf, 0.0])
    minus_plus = TruncationBox([-np.inf, 0.0], [0.0, np.inf])
    limit = esn_limit_params(pair)

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
        cdf2_i=tesn_prob(plus_minus, pair, cfg),
        cdf2_j=tesn_prob(minus_plus, pair, cfg),
        ncdf2_i=mvn_prob(plus_minus, limit, cfg)[0],
        ncdf2_j=mvn_prob(minus_plus, limit, cfg)[0],
        m_ji=m[1] - normal_i.b[0] * m[0],
        v_ji=normal_i.S[0, 0],
        m_ij=m[0] - normal_j.b[0] * m[1],
        v_ij=normal_j.S[0, 0],
        inner_abs=_abs_mean(cond_given_j, cfg),
    )


def _abs_mean(law: EsnParams, cfg: QmcConfig) -> float:
    """E|X| of a univariate law with no sign sum: E[X] - 2 E[X; X < 0],
    the closed-form mean and one moment integral over (-inf, 0]."""
    below = tesn_fk(TruncationBox([-np.inf], [0.0]), law, (1,), cfg)
    return float(esn_mean_cov(law).mean[0]) - 2.0 * below


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

    The means come from the univariate marginal folds (:func:`_abs_mean`).
    The diagonal raw second moments need no fold, since |X_i|^2 = X_i^2:
    they are those of the unfolded law (:func:`esn_mean_cov`).  Each
    off-diagonal entry comes from the collapsed bivariate formula applied
    to the corresponding marginal pair.
    """
    n = p.dim
    mean = np.zeros(n)
    raw2 = np.diag(np.diag(esn_mean_cov(p).raw2))
    for i in range(n):
        marg = esn_marginal(p, PartitionIndex.dropping(n, [k for k in range(n) if k != i]))
        mean[i] = _abs_mean(marg, cfg)
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
    recurrence session per orthant of the law, every orthant mass (and the
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
