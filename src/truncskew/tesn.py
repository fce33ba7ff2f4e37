"""Truncated extended skew-normal product moments.

Two interchangeable engines:

* :class:`TesnSession` / :func:`tesn_fk` -- the recurrence on the skewed
  integrals directly.  Raising one index mixes the current level, the
  companion normal integrals at the limiting parameters (mu - mu_b, Gamma),
  and per-coordinate boundary terms: the slice map of x_j (:func:`_slice_map`)
  factors each into the edge density phi(t) Phi(tau_tilde') / Phi(tau_tilde)
  and a (p-1)-dimensional problem on the slice law, in its selection form
  with no matrix root; a law without a hidden coordinate gets a
  :class:`TnSession` instead (:func:`_session`).  Every constant of a law is
  read from ``EsnParams.derived``, derived once per law.
* :func:`tesn_fk_via_normal` -- one truncated-normal moment of the normal
  of :func:`~truncskew.esn.reduce_to_normal`, divided by its xi.

Conditional moments are the ratio F_kappa / F_0; both engines are exposed
and cross-checked, the normal reduction being the default (fewer and
simpler integrals).  :func:`tesn_mean_cov` gives one route per method, each
running the engine it names in every regime; its two MGF routes map back
from the reduction's normal in one place (:func:`_from_normal`).  Every
normalizer passes one gate on the reduction's normal box,
:func:`~truncskew.tn._check_normalizer`.
"""

import math

import numpy as np

from .core import _SliceGeometry, symmetrize
from .errors import DimensionMismatchError
from .esn import EsnParams, NormalReduction, _selection_law, esn_limit_params, reduce_to_normal
from .moments import FirstTwoMoments, MultiIndex, as_multi_index
from .mvn import DEFAULT_QMC, QmcConfig, TruncationBox, log_std_cdf, mvn_prob
from .tn import (
    RecurrenceSession,
    TnSession,
    _check_normalizer,
    tn_first_two_corrected,
    tn_first_two_mgf,
)

__all__ = [
    "edge_conditional",
    "TesnSession",
    "tesn_prob",
    "tesn_prob_with_error",
    "tesn_fk",
    "tesn_fk_univariate",
    "tesn_fk_via_normal",
    "tesn_moment",
    "tesn_moments",
    "tesn_mean_cov",
]


def edge_conditional(p: EsnParams, j: int, t: float) -> tuple[float, EsnParams | None]:
    """The p-dim density on the slice x_j = t as the marginal density of x_j
    at t and the (p-1)-dim law of the other coordinates given x_j = t (None
    at p = 1), from the slice map of x_j (:func:`_slice_map`).  A slice at
    +-inf carries no mass: (0.0, None)."""
    if np.isinf(t):
        return 0.0, None
    geometry = _SliceGeometry(p.sigma, p.derived.Delta, p.derived.Gamma)
    density, law = _slice_map(p, j, geometry, lambda law, sub: law)(t)
    return density, None if law is None else law()


def _slice_map(p: EsnParams, j: int, geometry: _SliceGeometry, child):
    """The slice map of x_j: t -> (the density of x_j at t, a maker of
    ``child(law, node)`` of the law of the others given x_j = t and its node
    in ``geometry``, the law's slice geometry; None at p = 1).  The node
    holds what t does not move; the law adds the location mu_others + b (t -
    mu_j) and the shift tau_tilde' = (tau_tilde + Delta_j (t - mu_j) / S_jj)
    / s.  The density is phi(t; mu_j, S_jj) Phi(tau_tilde') / Phi(tau_tilde).
    """
    d = p.derived
    sub = geometry.slice(j)
    mu_j, var_j = float(p.mu[j]), float(p.sigma[j, j])
    others = [k for k in range(p.dim) if k != j]
    slope = float(d.Delta[j]) / var_j
    log_norm = -0.5 * math.log(2.0 * math.pi * var_j) - d.log_xi

    def at(t: float):
        dev = t - mu_j
        tau_tilde = (d.tau_tilde + slope * dev) / sub.s
        density = math.exp(log_norm - 0.5 * dev * dev / var_j + log_std_cdf(tau_tilde))
        if not others:
            return density, None
        return density, lambda: child(_selection_law(p.mu[others] + sub.b * dev, sub.S, sub.Delta,
                                                     sub.Gamma, tau_tilde), sub)

    return at


def tesn_prob_with_error(box: TruncationBox, p: EsnParams,
                         cfg: QmcConfig = DEFAULT_QMC) -> tuple[float, float]:
    """Rectangle probability of the extended skew-normal law and an absolute
    error estimate: :meth:`NormalReduction.prob` of the box's reduction."""
    return reduce_to_normal(box, p).prob(cfg)


def tesn_prob(box: TruncationBox, p: EsnParams, cfg: QmcConfig = DEFAULT_QMC) -> float:
    return tesn_prob_with_error(box, p, cfg)[0]


class TesnSession(RecurrenceSession):
    """Memoized evaluator of the truncated skewed product moments
    F_kappa = int_box x^kappa f_ESN(x) dx for one (box, params) pair of a law
    with a hidden coordinate (``EsnDerived.hidden``; see :func:`_session`).
    A law without one raises :class:`ValueError`.

    Holds the companion normal session at the limiting parameters
    (mu - mu_b, Gamma), whose values enter every raising step through the
    term ``delta_i * normal.fk(low)``, and lazily built (p-1)-dimensional
    edge sessions from :func:`_session` on their slice laws.
    """

    def __init__(self, box: TruncationBox, params: EsnParams,
                 cfg: QmcConfig = DEFAULT_QMC, geometry: _SliceGeometry | None = None):
        d = params.derived
        if not d.hidden:
            raise ValueError("no hidden coordinate: use TnSession(box, esn_limit_params(p))")
        geometry = geometry or _SliceGeometry(params.sigma, d.Delta, d.Gamma)
        super().__init__(box, params, cfg, geometry)
        self.normal = TnSession(box, esn_limit_params(params), cfg, geometry.companion)

    def _prob(self) -> float:
        return tesn_prob(self.box, self.params, self.cfg)

    def _share(self, cache, space, path: tuple, coords: tuple, signs: tuple) -> None:
        super()._share(cache, space, path, coords, signs)
        self.normal._share(cache, ("companion", path), (), coords, signs)

    def _slicer(self, j: int):
        # the slice law is built only on a slice-cache miss
        box, cfg = self.box.drop(j), self.cfg
        return _slice_map(self.params, j, self._geometry,
                          lambda law, sub: _session(box, law, cfg, sub))

    def _companion(self, i: int, low: MultiIndex) -> float:
        return self.params.derived.delta[i] * self.normal._fk(low)


def _session(box: TruncationBox, p: EsnParams, cfg: QmcConfig = DEFAULT_QMC,
             geometry: _SliceGeometry | None = None) -> RecurrenceSession:
    """The recurrence session of a law: a :class:`TesnSession` where it keeps
    its hidden coordinate, else a :class:`TnSession` on N(mu - mu_b, Gamma).
    ``geometry`` is the law's slice geometry (None at a root); a
    :class:`TnSession` takes its companion, that of Gamma.

    That normal is the law itself at lam = 0.  Below the shift switch point
    it is the limiting normal, whose integrals are not the skewed ones: the
    hidden coordinate's truncated mean sits a Mills-ratio offset
    ~1/|tau_tilde| from tau_tilde, which moves the law by about
    ``Delta / |tau_tilde|`` (3% of |Delta| at the switch point) and widens it
    along Delta; where Gamma is narrow along Delta, box probabilities and
    moments can be off by O(1).
    """
    if p.derived.hidden:
        return TesnSession(box, p, cfg, geometry)
    return TnSession(box, esn_limit_params(p), cfg, geometry and geometry.companion)


def tesn_fk(box: TruncationBox, p: EsnParams, kappa, cfg: QmcConfig = DEFAULT_QMC) -> float:
    """Unnormalized skewed product moment over the box, by the direct
    recurrence on a fresh session (:func:`_session`); the session classes
    and :func:`tesn_moments` share one memo table across indices."""
    return _session(box, p, cfg).fk(kappa)


def tesn_fk_univariate(a: float, b: float, p: EsnParams, k_max: int,
                       cfg: QmcConfig = DEFAULT_QMC) -> dict[MultiIndex, float]:
    """Table of univariate moments F_0 .. F_{k_max} over (a, b).

    F_0 comes from one deterministic kernel call (bivariate with a hidden
    coordinate); each step adds the two boundary densities and, with a hidden
    coordinate, one companion normal moment.  Infinite-limit terms drop.
    """
    if p.dim != 1:
        raise DimensionMismatchError("univariate recurrence requires dim 1")
    session = _session(TruncationBox([a], [b]), p, cfg)
    for k in range(k_max + 1):
        session.fk((k,))
    return dict(session.table)


def tesn_fk_via_normal(box: TruncationBox, p: EsnParams, kappa,
                       cfg: QmcConfig = DEFAULT_QMC) -> float:
    """The same integral through the normal reduction: one normal moment of
    :func:`reduce_to_normal`, on a fresh :class:`TnSession`, divided by its xi."""
    kappa = as_multi_index(kappa, p.dim)
    red = reduce_to_normal(box, p)
    return TnSession(red.box, red.params, cfg).fk(red.lift(kappa)) / red.xi


def tesn_moment(box: TruncationBox, p: EsnParams, kappa,
                cfg: QmcConfig = DEFAULT_QMC, method: str = "auto") -> float:
    """Conditional moment E[Y^kappa | box]: the ratio F_kappa / F_0 with
    numerator and denominator from the same engine and seed (their
    integration errors are correlated and largely cancel).

    ``method``: 'auto' (univariate recurrence for dim 1, else normal
    reduction), 'recurrence', or 'normal-reduction'.
    """
    kappa = as_multi_index(kappa, p.dim)
    return tesn_moments(box, p, [kappa], cfg, method)[kappa]


def tesn_moments(box: TruncationBox, p: EsnParams, kappas,
                 cfg: QmcConfig = DEFAULT_QMC,
                 method: str = "auto") -> dict[MultiIndex, float]:
    """Batch of conditional moments sharing one memoized table (the
    recurrence graphs of nearby indices overlap heavily)."""
    kappas = [as_multi_index(k, p.dim) for k in kappas]
    if method == "auto":
        method = "recurrence" if p.dim == 1 else "normal-reduction"
    if method not in ("recurrence", "normal-reduction"):
        raise ValueError(f"unknown method {method!r}")
    red = reduce_to_normal(box, p)
    L = _normalizer(red, cfg)
    if method == "recurrence":
        session, lift, denom = _session(box, p, cfg), (lambda k: k), min(1.0, L / red.xi)
    else:
        session, lift, denom = TnSession(red.box, red.params, cfg), red.lift, L
    session.table[(0,) * session.dim] = denom
    # xi cancels in each ratio
    return {k: session.fk(lift(k)) / denom for k in kappas}


def _normalizer(red: NormalReduction, cfg: QmcConfig) -> float:
    """The gated mass L of the reduction's normal box: F_0 there; on the law's
    box F_0 is min(1, L / xi), as ``session.prob()`` computes it."""
    L, L_err = mvn_prob(red.box, red.params, cfg)
    _check_normalizer(L, L_err)
    return L


# ----------------------------------------------------------------------------
# first two moments


def _mean_cov_direct(box: TruncationBox, p: EsnParams, cfg: QmcConfig,
                     red: NormalReduction) -> FirstTwoMoments:
    """First two moments assembled from the recurrence quantities around the
    session's own location and scale: the probability, the edge vector (the
    d-vector at order zero) and the d-vectors at the unit indices.  With a
    hidden coordinate the companion normal enters too, weighted by delta:
    its rectangle and its unnormalized first moments; without one the
    session is a :class:`TnSession` with no companion term.  ``red`` is the
    box's reduction, whose normal box the normalizer gate checks."""
    zero = (0,) * p.dim
    session = _session(box, p, cfg)
    LL = session.table[zero] = min(1.0, _normalizer(red, cfg) / red.xi)
    w_mean = w_raw2 = 0.0
    if p.derived.hidden:
        delta = p.derived.delta
        w_mean = session.normal.prob() * delta
        # the companion's unnormalized first moments F_{e_i} = mu_i F_0 + sigma_i' d_0
        normal = session.normal.params
        companion = TnSession(box, normal, cfg)
        w_raw2 = np.outer(delta, normal.mu * companion.prob() + normal.sigma @ companion.dvec(zero))
    mu, sigma = session.params.mu, session.params.sigma
    mean = mu + (w_mean + sigma @ session.dvec(zero)) / LL
    units = [tuple(int(k == m) for k in range(p.dim)) for m in range(p.dim)]
    D = np.column_stack([session.dvec(e_m) for e_m in units])
    raw2 = symmetrize(np.outer(mu, mean) + (w_raw2 + sigma @ D) / LL)
    mean = np.clip(mean, box.lower, box.upper)
    cov = symmetrize(raw2 - np.outer(mean, mean))
    return FirstTwoMoments(mean=mean, raw2=raw2, cov=cov, corrections=red.corrections)


def _from_normal(red: NormalReduction, full: FirstTwoMoments) -> FirstTwoMoments:
    """Moments of the ESN law from those of its reduction's normal: the
    first p coordinates, after the reduction's own corrections.  Pinning
    the hidden coordinate is the deep-shift limit, so it is reported as
    such."""
    n = red.box.dim - red.hidden
    hidden_pins = (f"out-of-bounds coord {n + 1}", f"jointly-degenerate, pinned coord {n + 1}")
    notes = tuple("limit-tau (augmented coordinate pinned)" if c in hidden_pins else c
                  for c in full.corrections)
    return FirstTwoMoments(mean=full.mean[:n], raw2=full.raw2[:n, :n], cov=full.cov[:n, :n],
                           corrections=red.corrections + notes)


def tesn_mean_cov(box: TruncationBox, p: EsnParams,
                  cfg: QmcConfig = DEFAULT_QMC, method: str = "auto") -> FirstTwoMoments:
    """Mean, raw second moment and covariance of the box-truncated law.

    Each method runs the engine it names in every regime; ``corrections``
    records the reduction's approximation (``limit-tau`` below the shift
    switch point), then what the engine's own extreme-case handling did.

    * ``'normal-reduction'`` (and ``'auto'``): the corrected MGF path on the
      normal of :func:`reduce_to_normal`, which handles zero-mass boxes and
      infinite limits; ``'mgf'``: the plain MGF formulas on that normal,
      raising :class:`DegenerateBoxError` where its mass is not resolved.
      Both keep the normal's first p coordinates (:func:`_from_normal`).
    * ``'recurrence'``: the direct skewed-integral assembly, on the normal
      recurrence where the law has no hidden coordinate (exactly at lam = 0,
      the limiting normal below the switch point); no corrections of its
      own, raising :class:`DegenerateBoxError` where the reduction's normal
      box mass is not resolved, by the same gate as ``'mgf'``.
    """
    if method == "auto":
        method = "normal-reduction"
    if method not in ("recurrence", "normal-reduction", "mgf"):
        raise ValueError(f"unknown method {method!r}")
    red = reduce_to_normal(box, p)
    if method == "recurrence":
        return _mean_cov_direct(box, p, cfg, red)
    engine = tn_first_two_corrected if method == "normal-reduction" else tn_first_two_mgf
    return _from_normal(red, engine(red.box, red.params, cfg))
