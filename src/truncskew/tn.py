"""Truncated multivariate normal moments.

Three engines over the same rectangle kernel:

* :class:`TnSession` / :func:`tn_fk` -- arbitrary-order product-moment
  recurrence on the skeleton :class:`RecurrenceSession`, which the skewed
  family shares.  Raising one index costs the current-level value, a
  d-vector of lower-order values, and two (p-1)-dimensional edge integrals
  per coordinate, all memoized per session; both edges of a coordinate come
  from its slice map, one regression of the others on it, which the sessions
  on both sides of that slice share with their subtrees.
* :func:`tn_first_two_mgf` -- first two moments by differentiating the
  moment generating function in correlation form, with the Hessian diagonal
  recycled from the off-diagonal entries and the edge vector q.  Edges and
  corners are the rectangles of the edge children and grandchildren of one
  :class:`TnSession` on the standardized law, the slices the recurrence
  uses.
* :func:`tn_first_two_corrected` -- total function: splits off coordinates
  with two infinite limits, degenerates coordinates whose interval carries
  numerically zero mass at the near bound, and only then calls the MGF path
  on what remains.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _regression, _SliceGeometry, symmetrize
from .errors import DegenerateBoxError, DimensionMismatchError
from .moments import FirstTwoMoments, MultiIndex, as_multi_index
from .mvn import (
    DEFAULT_QMC,
    NormalParams,
    QmcConfig,
    TruncationBox,
    mvn_log_prob,
    mvn_prob,
    norm_pdf,
    standardize,
)

__all__ = [
    "RecurrenceSession",
    "TnSession",
    "tn_fk",
    "TnMgfWork",
    "tn_mgf_work",
    "tn_first_two_mgf",
    "tn_first_two_corrected",
]

# A coordinate is "out of bounds" when its marginal interval probability
# (evaluated in log space) falls below this.
_OUT_OF_BOUNDS_EPS = 1e-12


class RecurrenceSession:
    """Memoized product-moment recurrence F_kappa = int_box x^kappa f(x) dx
    for one fixed (box, params) pair of a location-scale family.

    Raising index i of ``low`` gives

        F_{low + e_i} = mu_i F_low + companion_i(low) + sigma_i' d_low,

    with ``params.mu`` and ``params.sigma`` the location and scale, where
    ``d_low`` collects the lower-order values and the boundary terms at the
    finite bounds of every coordinate.  ``table`` maps multi-indices to
    computed values; edge sub-sessions (one per finite bound) are created
    lazily and shared by all recurrence steps.  A family supplies three
    hooks: the rectangle probability ``_prob()``; ``_slicer(j)``, the slice
    map of x_j, which factors the density on the slice ``x_j = t`` into a
    density value and a maker of the (p-1)-dimensional child session (None
    in dimension 1); and ``_companion(i, low)``, 0 unless overridden.

    What a slice map does not take from the point t -- the regression of the
    others on x_j and the child's scale -- comes from ``geometry``, the
    session tree's :class:`~truncskew.core._SliceGeometry`: a child gets its
    parent's node for its slice, so the sessions on both sides of a slice
    and their subtrees regress each covariance once.  A root without one
    starts its own.

    Inside a folded sum (:func:`~truncskew.folded._pattern_fks`) the 2^p
    orthant sessions hang off one root geometry and share one slice cache
    (``_share``), which keys a child by its geometry node and its box.  That
    pair determines the child there: every fixed coordinate sits at its one
    finite bound (0, or tau_tilde for the hidden coordinate), so two
    orthants that agree on the free coordinates get the same child and its
    memo table.  The node stays ordered: slices fixed in different orders
    are not shared, and a session outside a folded sum has no cache.
    """

    def __init__(self, box: TruncationBox, params, cfg: QmcConfig = DEFAULT_QMC,
                 geometry: _SliceGeometry | None = None):
        if box.dim != params.dim:
            raise DimensionMismatchError("box and parameter dimensions differ")
        self.box = box
        self.params = params
        self.cfg = cfg
        self.dim = params.dim
        self.table: dict[MultiIndex, float] = {}
        self._dvec: dict[MultiIndex, np.ndarray] = {}
        self._edges: dict[tuple[int, int], tuple[float, "RecurrenceSession | None"]] = {}
        self._slices = None  # the slice cache of a folded sum
        self._geometry = geometry or _SliceGeometry(params.sigma)

    def _companion(self, i: int, low: MultiIndex) -> float:
        return 0.0

    def prob(self) -> float:
        zero = (0,) * self.dim
        if zero not in self.table:
            self.table[zero] = self._prob()
        return self.table[zero]

    def _edge(self, j: int, side: int):
        """Density factor and child session for the boundary x_j = bound.
        Both bounds of x_j are set up on first use, from one slice map."""
        if (j, side) not in self._edges:
            at = None
            for s, bound in enumerate((self.box.lower[j], self.box.upper[j])):
                if np.isinf(bound):
                    self._edges[j, s] = (0.0, None)
                    continue
                at = at or self._slicer(j)
                dens, make = at(float(bound))
                self._edges[j, s] = dens, None if make is None else self._child(j, make)
        return self._edges[j, side]

    def _child(self, j: int, make) -> "RecurrenceSession":
        """The child on the slice of x_j: built by ``make``, or taken from
        the folded sum's slice cache, where it joins the cache itself."""
        if self._slices is None:
            return make()
        box = self.box.drop(j)
        key = self._geometry.slice(j), box.lower.tobytes(), box.upper.tobytes()
        child = self._slices.get(key)
        if child is None:
            child = self._slices[key] = make()
            child._share(self._slices)
        return child

    def _share(self, cache) -> None:
        """Join a folded sum's slice cache."""
        self._slices = cache

    def dvec(self, kappa: MultiIndex) -> np.ndarray:
        """The boundary/differentiation vector d_kappa of the recurrence."""
        if kappa in self._dvec:
            return self._dvec[kappa]
        a, b = self.box.lower, self.box.upper
        d = np.zeros(self.dim)
        for j in range(self.dim):
            kj = kappa[j]
            val = 0.0
            if kj > 0:
                low = list(kappa)
                low[j] -= 1
                val += kj * self._fk(tuple(low))
            sub = kappa[:j] + kappa[j + 1:]
            for side, bound, sign in ((0, a[j], 1.0), (1, b[j], -1.0)):
                dens, child = self._edge(j, side)
                if dens > 0.0:
                    # a zero-dimensional child integral is 1
                    inner = child._fk(sub) if child is not None else 1.0
                    val += sign * bound ** kj * dens * inner
            d[j] = val
        self._dvec[kappa] = d
        return d

    def fk(self, kappa) -> float:
        """F_kappa, the index checked against the session's dimension."""
        return self._fk(as_multi_index(kappa, self.dim))

    def _fk(self, kappa: MultiIndex) -> float:
        """F_kappa of a checked index, memoized; the recursion stays here."""
        if kappa in self.table:
            return self.table[kappa]
        if not any(kappa):
            return self.prob()
        i = next(k for k, v in enumerate(kappa) if v > 0)
        low = list(kappa)
        low[i] -= 1
        low = tuple(low)
        val = (self.params.mu[i] * self._fk(low) + self._companion(i, low)
               + float(self.params.sigma[i, :] @ self.dvec(low)))
        self.table[kappa] = val
        return val


class TnSession(RecurrenceSession):
    """Memoized evaluator of the unnormalized truncated-normal product
    moments F_kappa = int_box x^kappa phi_p(x; mu, sigma) dx for one fixed
    (box, params) pair; the recurrence has no companion term."""

    def _prob(self) -> float:
        return mvn_prob(self.box, self.params, self.cfg)[0]

    def _slicer(self, j: int):
        mu, sigma, box, cfg = self.params.mu, self.params.sigma, self.box.drop(j), self.cfg
        others = [k for k in range(self.dim) if k != j]
        sub = self._geometry.slice(j)

        def at(t: float):
            law = NormalParams._trusted(mu[others] + sub.b * (t - mu[j]), sub.S)
            make = (lambda: TnSession(box, law, cfg, sub)) if others else None
            return norm_pdf(t, mu[j], sigma[j, j]), make

        return at


def tn_fk(box: TruncationBox, p: NormalParams, kappa, cfg: QmcConfig = DEFAULT_QMC) -> float:
    """Unnormalized product moment F_kappa over the box, on a fresh session;
    F_0 is the rectangle probability.  ``TnSession(box, p, cfg).fk`` shares
    one memo table across indices."""
    return TnSession(box, p, cfg).fk(kappa)


# ----------------------------------------------------------------------------
# first two moments via the MGF (correlation form, recycled diagonal)


@dataclass(frozen=True)
class TnMgfWork:
    """Standardized ingredients of the MGF first-two-moment formulas."""

    R: np.ndarray          # correlation matrix
    a: np.ndarray          # standardized lower bounds
    b: np.ndarray          # standardized upper bounds
    S: np.ndarray          # per-coordinate scales (sqrt of diag sigma)
    L: float               # rectangle probability of the standardized box
    L_err: float
    q_a: np.ndarray
    q_b: np.ndarray
    q: np.ndarray          # q_a - q_b
    H: np.ndarray          # MGF Hessian boundary matrix


def tn_mgf_work(box: TruncationBox, p: NormalParams,
                cfg: QmcConfig = DEFAULT_QMC) -> TnMgfWork:
    """Standardize to correlation form and assemble L, q and H.

    Edges and corners come from one :class:`TnSession` on N(0, R) over the
    standardized box: an edge is the density at a finite bound times its
    child's rectangle probability, a corner the same one slice deeper.
    Off-diagonal H entries are the four signed corner terms; diagonal
    entries are recycled from q and the off-diagonal row, which avoids any
    second-derivative integrals.
    """
    sd, R, a, b = map(np.array, standardize(box, p))
    n = p.dim
    std = TnSession(TruncationBox._trusted(a, b), NormalParams._trusted(np.zeros(n), R), cfg)
    L, L_err = mvn_prob(std.box, std.params, cfg)
    std.table[(0,) * n] = L
    q_a = np.zeros(n)
    q_b = np.zeros(n)
    for i in range(n):
        for side, q in ((0, q_a), (1, q_b)):
            dens, child = std._edge(i, side)
            # a zero-dimensional child integral is 1
            q[i] = dens * (child.prob() if child is not None else 1.0)

    def corner(i, side_i, j, side_j) -> float:
        """phi2 at the corner times the (p-2)-dim rectangle of its slice;
        x_j is coordinate j - 1 of the slice x_i = bound."""
        dens, child = std._edge(i, side_i)
        if dens == 0.0:
            return 0.0
        dens_j, grandchild = child._edge(j - 1, side_j)
        dens *= dens_j
        if dens == 0.0:
            return 0.0
        return dens * (grandchild.prob() if grandchild is not None else 1.0)

    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            H[i, j] = H[j, i] = (corner(i, 0, j, 0) - corner(i, 1, j, 0)
                                 - corner(i, 0, j, 1) + corner(i, 1, j, 1))
    for i in range(n):
        others = [k for k in range(n) if k != i]
        hii = -float(R[i, others] @ H[others, i])
        if q_a[i] != 0.0:
            hii += a[i] * q_a[i]
        if q_b[i] != 0.0:
            hii -= b[i] * q_b[i]
        H[i, i] = hii
    return TnMgfWork(R=R, a=a, b=b, S=sd, L=L, L_err=L_err,
                     q_a=q_a, q_b=q_b, q=q_a - q_b, H=H)


def _check_normalizer(L: float, L_err: float) -> None:
    """The one gate on a normalizer: every moment route that divides by a
    rectangle probability L refuses it unless L is at least twenty times
    its error estimate (and above 1e-290)."""
    if not L >= max(1e-290, 20.0 * L_err):
        raise DegenerateBoxError(
            f"rectangle probability {L:.3e} is numerically zero "
            f"(error estimate {L_err:.1e}); use the corrected path"
        )


def tn_first_two_mgf(box: TruncationBox, p: NormalParams,
                     cfg: QmcConfig = DEFAULT_QMC) -> FirstTwoMoments:
    """Mean, raw second moment and covariance of the doubly truncated normal.

    Requires the rectangle probability to be resolvably positive; extreme
    boxes should go through :func:`tn_first_two_corrected`, which reduces
    them before delegating here.
    """
    w = tn_mgf_work(box, p, cfg)
    _check_normalizer(w.L, w.L_err)
    mean_x = w.R @ w.q / w.L
    raw2_x = w.R + (w.R @ w.H @ w.R) / w.L
    cov_x = symmetrize(raw2_x - np.outer(mean_x, mean_x))
    mean = p.mu + w.S * mean_x
    cov = symmetrize(cov_x * np.outer(w.S, w.S))
    mean = np.clip(mean, box.lower, box.upper)
    return FirstTwoMoments.from_mean_cov(mean, cov)


# ----------------------------------------------------------------------------
# extreme-case corrections


def _marginal_interval_log_prob(box: TruncationBox, p: NormalParams, i: int) -> float:
    return mvn_log_prob(box.select([i]), NormalParams._trusted(p.mu[[i]], p.sigma[[i]][:, [i]]))


def _degenerate_point(box: TruncationBox, p: NormalParams, i: int) -> float:
    """Near bound of an out-of-bounds coordinate: the finite bound whose
    marginal log-density is larger."""
    lo, hi = box.lower[i], box.upper[i]
    # densities compare by |standardized distance|; an infinite bound is
    # never the nearer one
    return float(lo) if abs(lo - p.mu[i]) < abs(hi - p.mu[i]) else float(hi)


def _assemble_split(dim, part_one, part_two, mean1, cov11, cov12, mean2, cov22):
    """Scatter a 2-block result back into original coordinate order."""
    mean = np.zeros(dim)
    cov = np.zeros((dim, dim))
    mean[part_one] = mean1
    mean[part_two] = mean2
    cov[np.ix_(part_one, part_one)] = cov11
    cov[np.ix_(part_one, part_two)] = cov12
    cov[np.ix_(part_two, part_one)] = cov12.T
    cov[np.ix_(part_two, part_two)] = cov22
    return mean, symmetrize(cov)


def tn_first_two_corrected(box: TruncationBox, p: NormalParams,
                           cfg: QmcConfig = DEFAULT_QMC) -> FirstTwoMoments:
    """Total version of the first-two-moments computation.

    Reductions, in order: coordinates with two infinite limits are split off
    and recombined through the conditional-normal identities; a coordinate
    whose marginal interval probability is below
    ``_OUT_OF_BOUNDS_EPS`` (1e-12) is degenerated at its near bound with an
    exactly-zero covariance row -- one coordinate at a time, worst first,
    re-screening the conditional remainder (a marginally hopeless coordinate
    can be perfectly probable given an already pinned one); a
    jointly-degenerate remainder (zero mass with every marginal healthy)
    pins its least probable coordinate and retries.  The returned mean
    always lies in the closed box; ``corrections`` labels coordinates by
    their original 1-based position.
    """
    return _corrected(box, p, cfg, tuple(range(1, p.dim + 1)))


def _pin_coordinate(box, p, cfg, labels, worst: int, note: str) -> FirstTwoMoments:
    """Degenerate coordinate ``worst`` at its near bound and recurse on the
    conditional remainder."""
    dim = p.dim
    point = _degenerate_point(box, p, worst)
    keep = [i for i in range(dim) if i != worst]
    notes = (note,)
    if keep:
        B, csig = _regression(p.sigma, keep, [worst])
        cmu = p.mu[keep] + B[:, 0] * (point - p.mu[worst])
        sub = _corrected(box.select(keep), NormalParams._trusted(cmu, csig), cfg,
                         tuple(labels[i] for i in keep))
        mean, cov = _assemble_split(
            dim, keep, [worst], sub.mean, sub.cov,
            np.zeros((len(keep), 1)), np.array([point]), np.zeros((1, 1)),
        )
        notes = notes + sub.corrections
    else:
        mean = np.array([point])
        cov = np.zeros((1, 1))
    return FirstTwoMoments.from_mean_cov(mean, cov, corrections=notes)


def _corrected(box: TruncationBox, p: NormalParams, cfg: QmcConfig,
               labels: tuple[int, ...]) -> FirstTwoMoments:
    dim = p.dim
    if dim == 0:
        return FirstTwoMoments.from_mean_cov(np.empty(0), np.empty((0, 0)))
    if box.is_unbounded():
        return FirstTwoMoments.from_mean_cov(p.mu, p.sigma)

    # 1. double-infinite coordinates: only the remainder is truncated
    free = [i for i in range(dim)
            if np.isinf(box.lower[i]) and np.isinf(box.upper[i])]
    if free:
        rest = [i for i in range(dim) if i not in free]
        sub = _corrected(
            box.select(rest), NormalParams._trusted(p.mu[rest], p.sigma[np.ix_(rest, rest)]),
            cfg, tuple(labels[i] for i in rest)
        )
        B, resid = _regression(p.sigma, free, rest)
        mean1 = p.mu[free] + B @ (sub.mean - p.mu[rest])
        cov11 = resid + B @ sub.cov @ B.T
        cov12 = B @ sub.cov
        mean, cov = _assemble_split(dim, free, rest, mean1, cov11, cov12,
                                    sub.mean, sub.cov)
        notes = (f"double-infinite coords {tuple(labels[i] for i in free)}",)
        return FirstTwoMoments.from_mean_cov(mean, cov,
                                             corrections=notes + sub.corrections)

    # 2. out-of-bounds coordinate: pin the worst one, condition, re-screen
    log_eps = math.log(_OUT_OF_BOUNDS_EPS)
    logs = [_marginal_interval_log_prob(box, p, i) for i in range(dim)]
    worst = int(np.argmin(logs))
    if logs[worst] < log_eps:
        return _pin_coordinate(box, p, cfg, labels, worst,
                               f"out-of-bounds coord {labels[worst]}")

    # 3. regular path; a jointly-degenerate box falls back to pinning its
    #    least probable coordinate
    try:
        return tn_first_two_mgf(box, p, cfg)
    except DegenerateBoxError:
        return _pin_coordinate(box, p, cfg, labels, worst,
                               f"jointly-degenerate, pinned coord {labels[worst]}")
