"""Truncated extended skew-normal product moments.

Two interchangeable engines:

* :class:`TesnSession` / :func:`tesn_fk` -- the recurrence on the skewed
  integrals directly.  Raising one index mixes the current level, the
  companion normal integrals at the limiting parameters (mu - mu_b, Gamma),
  and per-coordinate boundary terms that factor into a univariate edge
  density times a (p-1)-dimensional problem with conditional parameters:
  :func:`~truncskew.esn.esn_marginal` gives the edge law and
  :func:`~truncskew.esn.esn_conditional` the child law.
* :func:`tesn_fk_via_normal` -- one truncated-normal moment of
  :func:`~truncskew.esn.reduce_to_normal` divided by its xi: the augmented
  pair (mu*, Omega) with the last coordinate cut at tau_tilde, or the
  p-dimensional normal where the reduction drops the hidden coordinate
  (exactly at lam = 0, as the limiting normal below the shift switch point).

Conditional moments are the ratio F_kappa / F_0; both engines are exposed
and cross-checked, the normal reduction being the default (fewer and
simpler integrals).  :func:`tesn_mean_cov` gives one route per method, each
running the engine it names in every regime; its two MGF routes map back
from the reduction's normal in one place (:func:`_from_normal`).
"""

from dataclasses import dataclass

import numpy as np

from .core import PartitionIndex, symmetrize
from .errors import DegenerateBoxError, DimensionMismatchError
from .esn import (
    EsnDerived,
    EsnParams,
    NormalReduction,
    esn_conditional,
    esn_derive,
    esn_limit_params,
    esn_marginal,
    esn_pdf,
    reduce_to_normal,
)
from .moments import FirstTwoMoments, MultiIndex, as_multi_index
from .mvn import DEFAULT_QMC, QmcConfig, TruncationBox
from .tn import (
    RecurrenceSession,
    TnSession,
    _tn_first_moments,
    tn_first_two_corrected,
    tn_first_two_mgf,
)

__all__ = [
    "EdgeConditional",
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


@dataclass(frozen=True)
class EdgeConditional:
    """Factorization of the p-dim density on the slice x_j = t: the
    marginal density of x_j at t (:func:`esn_marginal`) times the (p-1)-dim
    extended skew-normal of the other coordinates given x_j = t
    (:func:`esn_conditional`)."""

    j: int
    edge_params: EsnParams         # univariate law of coordinate j

    def child_params(self, full: EsnParams, t: float,
                     derived: EsnDerived | None = None) -> EsnParams:
        """Parameters of the remaining coordinates given x_j = t."""
        return esn_conditional(full, PartitionIndex.dropping(full.dim, [self.j]), [t], derived)

    def edge_density(self, t: float) -> float:
        if np.isinf(t):
            return 0.0
        return esn_pdf([t], self.edge_params)


def edge_conditional(p: EsnParams, j: int,
                     derived: EsnDerived | None = None) -> EdgeConditional:
    others = [k for k in range(p.dim) if k != j]
    return EdgeConditional(j=j, edge_params=esn_marginal(
        p, PartitionIndex.dropping(p.dim, others), derived))


def tesn_prob_with_error(box: TruncationBox, p: EsnParams,
                         cfg: QmcConfig = DEFAULT_QMC,
                         derived: EsnDerived | None = None) -> tuple[float, float]:
    """Rectangle probability of the extended skew-normal law and an absolute
    error estimate: :meth:`NormalReduction.prob` of the box's reduction."""
    return reduce_to_normal(box, p, derived).prob(cfg)


def tesn_prob(box: TruncationBox, p: EsnParams, cfg: QmcConfig = DEFAULT_QMC,
              derived: EsnDerived | None = None) -> float:
    return tesn_prob_with_error(box, p, cfg, derived)[0]


class TesnSession(RecurrenceSession):
    """Memoized evaluator of the truncated skewed product moments
    F_kappa = int_box x^kappa f_ESN(x) dx for one (box, params) pair.

    Holds the companion normal session at the limiting parameters
    (mu - mu_b, Gamma), whose values enter every raising step through the
    term ``delta_i * normal.fk(low)``, and lazily built (p-1)-dimensional
    edge sessions.  Where the law has no hidden coordinate
    (``EsnDerived.hidden``) the session runs the companion's own recurrence
    instead.  At lam = 0 the companion is the law itself and every delta_i
    is 0, so this is exact.  Below the shift switch point it returns the
    limiting normal's integrals, which are not the skewed ones: the hidden
    coordinate's truncated mean sits a Mills-ratio offset ~1/|tau_tilde|
    from tau_tilde, which moves the law by about ``Delta / |tau_tilde|`` (3%
    of |Delta| at the switch point) and widens it along Delta; where Gamma
    is narrow along Delta, box probabilities and moments can be off by O(1).
    """

    def __init__(self, box: TruncationBox, params: EsnParams,
                 cfg: QmcConfig = DEFAULT_QMC):
        super().__init__(box, params, cfg)
        self.derived = esn_derive(params)
        self.normal = TnSession(box, esn_limit_params(params, self.derived), cfg)
        if not self.derived.hidden:
            self.loc, self.scale = self.normal.params.mu, self.normal.params.sigma

    def _prob(self) -> float:
        return tesn_prob(self.box, self.params, self.cfg, derived=self.derived)

    def _edge_at(self, j: int, t: float):
        if not self.derived.hidden:
            return self.normal._edge_at(j, t)
        ec = edge_conditional(self.params, j, self.derived)
        child = None
        if self.dim > 1:
            child = TesnSession(self.box.drop(j),
                                ec.child_params(self.params, t, self.derived), self.cfg)
        return ec.edge_density(t), child

    def _companion(self, i: int, low: MultiIndex) -> float:
        if not self.derived.hidden:
            return 0.0
        return self.derived.delta[i] * self.normal.fk(low)


def tesn_fk(box: TruncationBox, p: EsnParams, kappa,
            session: TesnSession | None = None,
            cfg: QmcConfig = DEFAULT_QMC) -> float:
    """Unnormalized skewed product moment over the box, by the direct
    recurrence.  Pass a session to share memoization across indices."""
    if session is None:
        session = TesnSession(box, p, cfg)
    return session.fk(as_multi_index(kappa, p.dim))


def tesn_fk_univariate(a: float, b: float, p: EsnParams, k_max: int,
                       cfg: QmcConfig = DEFAULT_QMC) -> dict[MultiIndex, float]:
    """Table of univariate moments F_0 .. F_{k_max} over (a, b).

    F_0 comes from the deterministic bivariate path; each step adds the two
    boundary densities and one companion normal moment.  Infinite-limit
    density terms are dropped.
    """
    if p.dim != 1:
        raise DimensionMismatchError("univariate recurrence requires dim 1")
    session = TesnSession(TruncationBox([a], [b]), p, cfg)
    for k in range(k_max + 1):
        session.fk((k,))
    return dict(session.table)


def tesn_fk_via_normal(box: TruncationBox, p: EsnParams, kappa,
                       session: TnSession | None = None,
                       cfg: QmcConfig = DEFAULT_QMC) -> float:
    """The same integral through the normal reduction: one normal moment of
    :func:`reduce_to_normal` divided by its xi.

    An existing session may be passed to share memoization; it must have
    been built on the box and params of ``reduce_to_normal(box, p)`` with
    the same cfg."""
    kappa = as_multi_index(kappa, p.dim)
    red = reduce_to_normal(box, p)
    if session is None:
        session = TnSession(red.box, red.params, cfg)
    return session.fk(red.lift(kappa)) / red.xi


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
    if method == "recurrence":
        session, lift = TesnSession(box, p, cfg), (lambda k: k)
    elif method == "normal-reduction":
        red = reduce_to_normal(box, p)
        session, lift = TnSession(red.box, red.params, cfg), red.lift
    else:
        raise ValueError(f"unknown method {method!r}")
    denom = session.prob()
    if denom <= 0.0:
        raise DegenerateBoxError("box probability is numerically zero")
    # xi cancels in each ratio
    return {k: session.fk(lift(k)) / denom for k in kappas}


# ----------------------------------------------------------------------------
# first two moments


def _mean_cov_direct(box: TruncationBox, p: EsnParams, cfg: QmcConfig,
                     corrections: tuple[str, ...]) -> FirstTwoMoments:
    """First two moments assembled from the recurrence quantities around the
    session's own loc and scale: the probability, the edge vector (the
    d-vector at order zero) and the d-vectors at the unit indices.  With a
    hidden coordinate the companion normal enters too, weighted by delta:
    its rectangle and its unnormalized first moments.  Without one (lam = 0,
    or the limiting normal below the shift switch point) the session runs
    the normal recurrence and there is no companion term."""
    session = TesnSession(box, p, cfg)
    LL = session.prob()
    if LL <= 0.0 or not np.isfinite(LL) or LL < 1e-280:
        raise DegenerateBoxError("box probability is numerically zero")
    w_mean = w_raw2 = 0.0
    if session.derived.hidden:
        delta = session.derived.delta
        w_mean = session.normal.prob() * delta
        w_raw2 = np.outer(delta, _tn_first_moments(box, session.normal.params, cfg))
    mean = session.loc + (w_mean + session.scale @ session.dvec((0,) * p.dim)) / LL
    units = [tuple(int(k == m) for k in range(p.dim)) for m in range(p.dim)]
    D = np.column_stack([session.dvec(e_m) for e_m in units])
    raw2 = symmetrize(np.outer(session.loc, mean) + (w_raw2 + session.scale @ D) / LL)
    mean = np.clip(mean, box.lower, box.upper)
    cov = symmetrize(raw2 - np.outer(mean, mean))
    return FirstTwoMoments(mean=mean, raw2=raw2, cov=cov, corrections=corrections)


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
      own, raises on degenerate boxes.
    """
    if method == "auto":
        method = "normal-reduction"
    if method not in ("recurrence", "normal-reduction", "mgf"):
        raise ValueError(f"unknown method {method!r}")
    red = reduce_to_normal(box, p)
    if method == "recurrence":
        return _mean_cov_direct(box, p, cfg, red.corrections)
    engine = tn_first_two_corrected if method == "normal-reduction" else tn_first_two_mgf
    return _from_normal(red, engine(red.box, red.params, cfg))
