"""Truncated extended skew-normal product moments.

Two interchangeable engines:

* :class:`TesnSession` / :func:`tesn_fk` -- the recurrence on the skewed
  integrals directly.  Raising one index mixes the current level, the
  companion normal integrals at the limiting parameters (mu - mu_b, Gamma),
  and per-coordinate boundary terms that factor into a univariate edge
  density times a (p-1)-dimensional problem with conditional parameters,
  both from :func:`edge_conditional`.
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

import numpy as np

from .core import PartitionIndex, symmetrize
from .errors import DimensionMismatchError
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
from .mvn import DEFAULT_QMC, QmcConfig, TruncationBox, mvn_prob
from .tn import (
    RecurrenceSession,
    TnSession,
    _check_normalizer,
    _tn_first_moments,
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


def edge_conditional(p: EsnParams, j: int, t: float,
                     derived: EsnDerived | None = None) -> tuple[float, EsnParams | None]:
    """The p-dim density on the slice x_j = t as the marginal density of x_j
    at t (:func:`esn_marginal`) and the (p-1)-dim law of the other
    coordinates given x_j = t (:func:`esn_conditional`; None at p = 1).  A
    slice at +-inf carries no mass: (0.0, None)."""
    if np.isinf(t):
        return 0.0, None
    others = [k for k in range(p.dim) if k != j]
    density = esn_pdf([t], esn_marginal(p, PartitionIndex.dropping(p.dim, others), derived))
    law = esn_conditional(p, PartitionIndex.dropping(p.dim, [j]), [t], derived) if others else None
    return density, law


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
        density, law = edge_conditional(self.params, j, t, self.derived)
        return density, None if law is None else TesnSession(self.box.drop(j), law, self.cfg)

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
        session = TesnSession(box, p, cfg)
        red, lift = reduce_to_normal(box, p, session.derived), (lambda k: k)
    elif method == "normal-reduction":
        red = reduce_to_normal(box, p)
        session, lift = TnSession(red.box, red.params, cfg), red.lift
    else:
        raise ValueError(f"unknown method {method!r}")
    denom = _seed_normalizer(session, red, cfg)
    # xi cancels in each ratio
    return {k: session.fk(lift(k)) / denom for k in kappas}


def _seed_normalizer(session: RecurrenceSession, red: NormalReduction,
                     cfg: QmcConfig) -> float:
    """The session's F_0, as ``session.prob()`` computes it, from one
    gated kernel call on the reduction's normal box."""
    L, L_err = mvn_prob(red.box, red.params, cfg)
    _check_normalizer(L, L_err)
    zero = (0,) * session.dim
    session.table[zero] = min(1.0, L / red.xi) if isinstance(session, TesnSession) else L
    return session.table[zero]


# ----------------------------------------------------------------------------
# first two moments


def _mean_cov_direct(box: TruncationBox, p: EsnParams, cfg: QmcConfig,
                     red: NormalReduction) -> FirstTwoMoments:
    """First two moments assembled from the recurrence quantities around the
    session's own loc and scale: the probability, the edge vector (the
    d-vector at order zero) and the d-vectors at the unit indices.  With a
    hidden coordinate the companion normal enters too, weighted by delta:
    its rectangle and its unnormalized first moments.  Without one (lam = 0,
    or the limiting normal below the shift switch point) the session runs
    the normal recurrence and there is no companion term.  ``red`` is the
    box's reduction, whose normal box the normalizer gate checks."""
    session = TesnSession(box, p, cfg)
    LL = _seed_normalizer(session, red, cfg)
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
