"""Multivariate normal density and rectangle probabilities.

The rectangle probability L_p(a, b; mu, Sigma) is the scalar kernel every
moment recurrence in this library bottoms out in.  Dimensions 1 to 4 are
deterministic and ignore :class:`QmcConfig`: inclusion-exclusion over the
corners, all of a rectangle's corners evaluated in one call of one
recursion over the dimension.  Dimension 1 is a cdf, dimension 2 adaptive
quadrature over the correlation parameter, and dimensions 3 and 4
Plackett's identity: 1-d integrals of bivariate densities times the cdf of
the other one or two coordinates, every (corner, path term) pair one row of
one array integrand.  The integrals run on QUADPACK's Gauss-Kronrod 10/21
rule (``qk21`` nodes and error heuristic, no extrapolation): adaptive
bisection for a scalar, and for rows a shared schedule of 1 to 16 uniform
panels.  Higher dimensions use a separation-of-variables transform with
greedy variable reordering, integrated by a randomized rank-1 lattice rule
from fast component-by-component construction with a fixed tie rule, so
identical :class:`QmcConfig` (including seed) gives bit-identical results.

The module imports numpy only.  The normal cdf and its logarithm run on
``math.erf`` / ``math.erfc`` (:func:`std_cdf`, also as a ufunc, and
:func:`log_std_cdf`); the lattice kernel imports ``scipy.special``'s
``ndtr`` and ``ndtri`` on its first call, since it spends its time in them.
"""

import heapq
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import fft, ifft

from .core import _psd_eigh, _unchecked, as_sym_matrix, as_vector
from .errors import (
    DimensionMismatchError,
    NotPSDError,
    QuadratureNonConvergenceError,
    SingularMatrixError,
)

__all__ = [
    "NormalParams",
    "TruncationBox",
    "QmcConfig",
    "DEFAULT_QMC",
    "std_cdf",
    "std_pdf",
    "norm_pdf",
    "log_std_cdf",
    "bvn_cdf",
    "bvn_pdf",
    "mvn_pdf",
    "mvn_logpdf",
    "mvn_prob",
    "mvn_log_prob",
    "standardize",
    "IntegralCounter",
    "count_integrals",
]

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
_LOG_HALF_PI = math.log(0.5 * math.pi)

# Correlations within this distance of +-1 are taken as exactly +-1.
_RHO_ONE = 1e-15

# Phi(-x) is below the smallest subnormal double from x = 38.5 on.
_PHI_SATURATES = 40.0

# sqrt(1/2) = _SQRT1_2 + _SQRT1_2_LO to twice double precision, and
# _SQRT1_2 = _SQRT1_2_HI + _SQRT1_2_MID, halves of 26 bits (Dekker's split)
_SQRT1_2_LO = -4.833646656726457e-17
_SQRT1_2_HI = 0.7071067839860916
_SQRT1_2_MID = -2.7995440410322203e-09


# ----------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class NormalParams:
    """Location vector and PSD scale matrix of a multivariate normal.

    A scale matrix with an eigenvalue below ``-1e-10`` times its largest
    raises :class:`NotPSDError`; singular ones are accepted."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = as_vector(self.mu)
        sigma = as_sym_matrix(self.sigma, dim=mu.shape[0])
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise DimensionMismatchError("location and scale must be finite")
        if sigma.size:
            _psd_eigh(sigma)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    _trusted = classmethod(_unchecked)  # float arrays, sigma exactly symmetric

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class TruncationBox:
    """Extended-real rectangle ``[lower, upper]`` with per-coordinate +-inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower)
        hi = as_vector(self.upper, dim=lo.shape[0])
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise DimensionMismatchError("box bounds must not be NaN")
        if not np.all(lo < hi):
            raise DimensionMismatchError("box requires lower < upper in every coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    _trusted = classmethod(_unchecked)  # float arrays, lower < upper

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def is_unbounded(self) -> bool:
        return (self.lower.tolist().count(-math.inf) == self.dim
                and self.upper.tolist().count(math.inf) == self.dim)

    def drop(self, i: int) -> "TruncationBox":
        return self.select([k for k in range(self.dim) if k != i])

    def select(self, idx) -> "TruncationBox":
        idx = list(idx)
        return TruncationBox._trusted(self.lower[idx], self.upper[idx])

    @classmethod
    def unbounded(cls, dim: int) -> "TruncationBox":
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))

    @classmethod
    def orthant(cls, dim: int) -> "TruncationBox":
        return cls(np.zeros(dim), np.full(dim, np.inf))


@dataclass(frozen=True)
class QmcConfig:
    """Randomized-lattice integration parameters.

    ``sample_count`` points per replicate (rounded down to a prime), at least
    8 replicates so a spread-based error estimate exists, and a seed that
    fully determines the random shifts, in [0, 2^128) so that it is also a
    Philox 4x64 key for the Monte Carlo oracle.
    """

    sample_count: int = 8192
    replicates: int = 12
    seed: int = 20240101
    target_abs_error: float = 1e-6

    def __post_init__(self):
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")
        if self.replicates < 8:
            raise ValueError("at least 8 replicates are needed for an error estimate")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must be in [0, 2^128)")


DEFAULT_QMC = QmcConfig()


# ----------------------------------------------------------------------------
# instrumentation: every rectangle-probability evaluation of dim >= 1 is
# recorded on all active counters.  Used by the CLI benchmark.


class IntegralCounter:
    def __init__(self):
        self.total = 0
        self.by_dim: dict[int, int] = {}

    def record(self, dim: int) -> None:
        self.total += 1
        self.by_dim[dim] = self.by_dim.get(dim, 0) + 1


_active_counters: list[IntegralCounter] = []


@contextmanager
def count_integrals():
    """Context manager counting rectangle-probability kernel evaluations."""
    counter = IntegralCounter()
    _active_counters.append(counter)
    try:
        yield counter
    finally:
        _active_counters.remove(counter)


def _record(dim: int) -> None:
    for counter in _active_counters:
        counter.record(dim)


# ----------------------------------------------------------------------------
# scalar normal helpers


def std_pdf(x: float) -> float:
    """Standard normal density; 0 at +-inf."""
    if np.isinf(x):
        return 0.0
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def norm_pdf(x: float, mean: float, var: float) -> float:
    """Univariate normal density with the given mean and variance; 0 at +-inf."""
    sd = math.sqrt(var)
    return std_pdf((x - mean) / sd) / sd


def std_cdf(x: float) -> float:
    """Standard normal cdf Phi, with Phi(-inf)=0 and Phi(+inf)=1.

    Cephes' ``ndtr``: ``erf`` near 0, and ``erfc`` of ``|x| / sqrt(2)``
    elsewhere, reflected for ``x > 0``, so the left tail keeps its relative
    precision down to underflow."""
    t = x * _SQRT1_2
    if -_SQRT1_2 < t < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(t)
    if t > 0.0:
        return 1.0 - 0.5 * math.erfc(t)
    if -_PHI_SATURATES < x < -5.0:
        # rounding t costs x^2 eps / 2 of relative accuracy: correct erfc(-t)
        # by exp(-2 t r), r = x sqrt(1/2) - t exactly (Dekker's product)
        c = 134217729.0 * x
        xh = c - (c - x)
        xl = x - xh
        r = (((xh * _SQRT1_2_HI - t) + xh * _SQRT1_2_MID + xl * _SQRT1_2_HI)
             + xl * _SQRT1_2_MID + x * _SQRT1_2_LO)
        return 0.5 * math.erfc(-t) * math.exp(-2.0 * t * r)
    return 0.5 * math.erfc(-t)  # also NaN


# std_cdf as a numpy ufunc, bit for bit the scalar (it returns object arrays)
_PHI = np.frompyfunc(std_cdf, 1, 1)


def log_std_cdf(x: float) -> float:
    """log Phi(x), finite far into the left tail (~ -x^2/2 - log|x|...).

    ``log1p(-Phi(-x))`` above x = -1, ``log`` of the ``erfc`` form down to
    x = -20, and below that the asymptotic series of the Mills ratio,
    ``log phi(x) - log|x| + log(1 - 1/x^2 + 3/x^4 - ...)``, summed until a
    term no longer moves it (cephes' ``log_ndtr``)."""
    if not x <= -1.0:  # also NaN
        return math.log1p(-0.5 * math.erfc(x * _SQRT1_2))
    if x > -20.0:
        return math.log(0.5 * math.erfc(-x * _SQRT1_2))
    inv_x2 = 1.0 / (x * x)
    total, term, i = 1.0, 1.0, 0
    while True:
        i += 1
        term *= -(2 * i - 1) * inv_x2
        if total + term == total:
            break
        total += term
    return -0.5 * x * x - math.log(-x) - 0.5 * _LOG_2PI + math.log(total)


def _interval_log_prob(lo: float, hi: float) -> float:
    """log(Phi(hi) - Phi(lo)) computed fully in log space."""
    if hi <= lo:
        return -np.inf
    # work on the side where the cdf is small: P(lo<X<hi) = P(-hi<X<-lo)
    if lo + hi > 0.0:
        lo, hi = -hi, -lo
    la, lb = log_std_cdf(lo), log_std_cdf(hi)
    if la == -np.inf:
        return lb
    return lb + math.log1p(-math.exp(la - lb))


# ----------------------------------------------------------------------------
# densities


def mvn_logpdf(x, p: NormalParams) -> float:
    x = as_vector(x, dim=p.dim)
    try:
        L = np.linalg.cholesky(p.sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("scale matrix is not positive definite") from exc
    dev = np.linalg.solve(L, x - p.mu)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * (p.dim * _LOG_2PI + logdet + float(dev @ dev))


def mvn_pdf(x, p: NormalParams) -> float:
    """Normal density, computed in log space and exponentiated at the end."""
    return math.exp(mvn_logpdf(x, p))


def bvn_pdf(x: float, y: float, rho: float) -> float:
    """Standard bivariate normal density with correlation ``rho``."""
    if np.isinf(x) or np.isinf(y):
        return 0.0
    om = 1.0 - rho * rho
    if om <= 0.0:
        raise SingularMatrixError("|rho| must be < 1 for a bivariate density")
    q = (x * x - 2.0 * rho * x * y + y * y) / om
    return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(om))


# QUADPACK's qk21 (Piessens et al. 1983): the nodes of the 21-point Kronrod
# rule on [0, 1] in decreasing order, its weights, and the weights of the
# 10-point Gauss rule on the odd-indexed nodes.
_GK_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
          0.0)
_GK_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077208272599770, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_GK_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
          0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
          0.295524224714752870173892994651338)
# the same rule on [-1, 1]: all 21 nodes, the Kronrod weights, and the
# Kronrod and Gauss weights as the rows of one matrix (the Gauss rule puts
# zero weight on the Kronrod-only nodes)
_GK_WG11 = sum(((0.0, w) for w in _GK_WG), ()) + (0.0,)
_GK_X = np.concatenate((-np.array(_GK_XK), _GK_XK[-2::-1]))
_GK_W = np.array([_GK_WK + _GK_WK[-2::-1], _GK_WG11 + _GK_WG11[-2::-1]])
_GK_WK21 = _GK_W[0].copy()
_GK_EPS50 = 50.0 * np.finfo(float).eps
_QUAD_REL_TOL = 1e-12
_QUAD_PANELS = 200


def _gk21(f, a: float, b: float) -> tuple[float, float]:
    """The 21-point Kronrod value of the integral of ``f`` over [a, b], and
    QUADPACK's estimate of its error: ``resasc min(1, (200 |K - G| /
    resasc)^1.5)``, floored at ``50 eps resabs``.  ``f`` maps an array of
    nodes to an array of values."""
    h = 0.5 * (b - a)
    fx = f(h * _GK_X + 0.5 * (a + b))
    resk, resg = _GK_W.dot(fx).tolist()
    resabs = abs(h) * float(_GK_WK21.dot(np.abs(fx)))
    resasc = abs(h) * float(_GK_WK21.dot(np.abs(fx - 0.5 * resk)))
    err = abs(h * (resk - resg))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return h * resk, max(err, _GK_EPS50 * resabs)


def _log_angle_quad(f, a: float, b: float) -> tuple[float, float]:
    """Integral of ``f(psi)`` over ``psi`` in [exp(a), exp(b)] and its error,
    to a relative 1e-12 with no absolute floor: QUADPACK's adaptive
    Gauss-Kronrod 10/21 (:func:`_gk21`) without extrapolation, bisecting the
    panel of largest estimate until the summed estimate is at most 1e-12 of
    the value or 200 panels are in use.  ``psi`` is the angle between a
    correlation ``+-cos(psi)`` and +-1; the integrands change on the scale of
    ``psi`` itself, so the rule runs in ``log(psi)`` and resolves a narrow
    feature next to a near-singular end.  ``f`` maps arrays of 21 values.
    """

    def integrand(u):
        psi = np.exp(u)
        return psi * f(psi)

    val, err = _gk21(integrand, a, b)
    panels = [(-err, a, b, val)]
    while err > _QUAD_REL_TOL * abs(val) and len(panels) < _QUAD_PANELS:
        _, a, b, _ = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            v, e = _gk21(integrand, lo, hi)
            heapq.heappush(panels, (-e, lo, hi, v))
        val = math.fsum(panel[3] for panel in panels)
        err = math.fsum(-panel[0] for panel in panels)
    return val, err


# Panel counts of the row-wise rule, and their nodes in half-widths from a start
_PANEL_NODES = {n: ((2.0 * np.arange(n) + 1.0)[:, None] + _GK_X).ravel()
                for n in (1, 2, 4, 8, 16)}
_TINY = np.finfo(float).smallest_subnormal


def _angle_rows(f, m: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_log_angle_quad` for ``m`` rows at once: the integrals of
    nonnegative ``f_r(psi)`` over ``psi`` in [exp(a_r), exp(b_r)], and their
    errors.  ``a`` and ``b`` are ``(m, 1)`` columns or floats all rows share;
    ``f(psi, rows)`` maps the nodes and the rows (indices, ``None`` for all)
    to the rows' values, shape ``(rows, nodes)``.  Every row takes
    :func:`_gk21` on one panel; rows whose estimate is above 1e-12 of their
    value rerun, as one array, on 2, 4, 8 and 16 uniform panels, and what is
    left runs in :func:`_log_angle_quad`.  Where ``resasc`` is 0 the
    estimate is its floor.
    """
    val = rows = None
    for n, nodes in _PANEL_NODES.items():
        w = (0.5 / n) * (b - a)
        psi = np.exp(a + w * nodes)
        fx = (psi * f(psi, rows)).reshape(-1, n, 21)
        # _gk21 on every panel, in units of w; fx >= 0, so resabs is resk
        kg = fx @ _GK_W.T
        resk = kg[..., 0]
        resasc = np.abs(fx - 0.5 * resk[..., None]) @ _GK_WK21
        e = np.minimum(200.0 * np.abs(resk - kg[..., 1]), resasc) / np.maximum(resasc, _TINY)
        kg[..., 1] = np.maximum(resasc * e ** 1.5, _GK_EPS50 * resk)
        v, e = (w * np.add.reduce(kg, axis=1)).T
        done = e <= _QUAD_REL_TOL * v
        if val is None:
            if done.all():
                return v, e
            val, err, idx = np.empty(m), np.empty(m), np.arange(m)
        val[idx], err[idx] = v, e
        more = ~done
        idx = rows = idx[more]
        if not idx.size:
            return val, err
        a, b = (x[more] if np.ndim(x) else x for x in (a, b))
    for pos, j in enumerate(idx.tolist()):
        lo, hi = (float(x[pos, 0]) if np.ndim(x) else x for x in (a, b))
        val[j], err[j] = _log_angle_quad(lambda psi: f(psi, [j])[0], lo, hi)
    return val, err


def bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal, correlation ``rho``.

    Adaptive quadrature over the correlation parameter of the tetrachoric
    identity d Phi2 / d rho = phi2, to a relative 1e-12 of the integral
    (no absolute floor, so rectangles far below 1e-16 keep their digits),
    by :func:`_log_angle_quad`; an estimate above 1e-10 raises
    :class:`QuadratureNonConvergenceError`.  The correlation runs as
    ``+-cos(psi)``: ``d t`` cancels phi2's ``1 / sqrt(1 - t^2)``, so the
    integrand stays bounded as |rho| -> 1, and ``psi``, the angular distance
    from |t| = 1, keeps its relative precision there.  A negative
    correlation subtracts the integral from ``Phi(h) Phi(k)``, which cancels
    where the value is far below that product; a result below 1e-3 of it is
    recomputed from -1 by :func:`_bvn_array`.  Rectangles report 1e-11 of the
    two terms summed (:func:`_bvn_with_error`): ``Phi(h) Phi(k)`` and the
    integral, or after the fallback ``Phi(h) - Phi(-k)`` and its integral.
    """
    return _bvn_terms(h, k, rho)[0]


def _bvn_terms(h: float, k: float, rho: float) -> tuple[float, float]:
    """:func:`bvn_cdf` and the term its integral is added to: ``Phi(h)
    Phi(k)``, or ``max(0, Phi(h) - Phi(-k))`` after the fallback."""
    if math.isnan(h) or math.isnan(k):
        raise DimensionMismatchError("NaN argument to bvn_cdf")
    if h == -np.inf or k == -np.inf:
        return 0.0, 0.0
    ph, pk = std_cdf(h), std_cdf(k)
    base = ph * pk
    if h == np.inf or k == np.inf or rho >= 1.0 - _RHO_ONE:
        return min(ph, pk), base
    if rho <= -1.0 + _RHO_ONE:
        return max(0.0, ph + pk - 1.0), base

    # (h^2 - 2 h k t + k^2) / (2 (1 - t^2)) at t = sign cos(psi), split into
    # two terms that do not cancel as |t| -> 1
    sign = math.copysign(1.0, rho)
    d2 = (h - sign * k) ** 2
    hk = sign * h * k

    def integrand(psi):
        s = np.sin(psi)
        return np.exp(-0.5 * d2 / (s * s) - hk / (1.0 + np.cos(psi)))

    val, err = _log_angle_quad(integrand, math.log(math.acos(abs(rho))), _LOG_HALF_PI)
    if err > 1e-10:
        raise QuadratureNonConvergenceError(
            f"bivariate cdf quadrature error {err:.2e} at rho={rho}"
        )
    res = base + sign * val / (2.0 * math.pi)
    if rho < 0.0 and res < 1e-3 * base:
        # the difference has cancelled: integrate from -1, as _bvn_array does
        res = float(_bvn_array(*(np.array([v]) for v in (h, k, rho, ph, pk)))[0])
        base = max(0.0, pk - std_cdf(-h) if h > 0.0 else ph - std_cdf(-k))
    return min(1.0, max(0.0, res)), base


# ----------------------------------------------------------------------------
# normal cdfs of dimension 0 to 4 (Plackett 1954; Genz 2004) and rectangles

# Relative error allowed for each term of a cdf in its error estimate: ten
# times the relative tolerance the quadratures are run to.
_TVN_REL_ERR = 1e-11


def _singular_gap(rho: float) -> float:
    """Bound sqrt(1 - |rho|) / pi on the gap between Phi2(h, k; rho) and its
    limit at |rho| = 1, where :func:`bvn_cdf` takes that limit; else 0."""
    a = 1.0 - abs(rho)
    return math.sqrt(max(a, 0.0)) / math.pi if a <= _RHO_ONE else 0.0


def _bvn_with_error(h: float, k: float, rho: float) -> tuple[float, float]:
    """:func:`bvn_cdf` and an error estimate, relative to both of its terms."""
    val, base = _bvn_terms(h, k, rho)
    return val, _TVN_REL_ERR * (val + base) + _singular_gap(rho)


def _bvn_array(h: np.ndarray, k: np.ndarray, rho: np.ndarray,
               ph: np.ndarray, pk: np.ndarray) -> np.ndarray:
    """:func:`bvn_cdf` of 1-d arrays of finite limits ``h``, ``k`` and
    correlations ``rho``, given ``ph = Phi(h)`` and ``pk = Phi(k)``, to a
    relative 1e-12 of the value.

    Positive correlations add :func:`bvn_cdf`'s integral from 0 to ``rho``
    to ``ph pk``.  A negative correlation would subtract it and cancel
    wherever the value is far below ``ph pk``, so those add the integral
    from -1 to ``rho`` to ``max(0, Phi(h) - Phi(-k))`` instead: the same
    integrand, over the angles from 0 to ``acos|rho|``.  That integrand
    falls as ``exp(-0.5 (h + k)^2 / psi^2)`` towards 0; the angles where it
    is below exp(-50) of its value at ``acos|rho|`` (or the first 1e-17 of
    the range) are left out.  Each element is one row of
    :func:`_angle_rows`; correlations within 1e-15 of +-1 are +-1.
    """
    out = ph * pk
    arho = np.abs(rho)
    one = arho >= 1.0 - _RHO_ONE
    if one.any():
        out[one] = np.where(rho[one] > 0.0, np.minimum(ph, pk)[one],
                            np.maximum(0.0, ph + pk - 1.0)[one])
    run = np.flatnonzero(~one & (rho != 0.0))
    if not run.size:
        return out
    hr, kr, neg = h[run], k[run], rho[run] < 0.0
    sign = np.where(neg, -1.0, 1.0)
    d2, hk = (hr - sign * kr) ** 2, sign * hr * kr
    psi0 = np.arccos(arho[run])
    s0 = np.sin(psi0)
    cut = np.sqrt(d2 / (d2 / (s0 * s0) + 4.0 * np.abs(hk) + 100.0))
    lo = np.where(neg, np.maximum(cut, 1e-17 * psi0), psi0)
    hi = np.where(neg, psi0, 0.5 * math.pi)
    d2, hk = d2[:, None], hk[:, None]

    def integrand(psi, rows):
        s, (d, k) = np.sin(psi), (d2, hk) if rows is None else (d2[rows], hk[rows])
        return np.exp(-0.5 * d / (s * s) - k / (1.0 + np.cos(psi)))

    val = _angle_rows(integrand, run.size, np.log(lo)[:, None], np.log(hi)[:, None])[0]
    base = out[run]
    up = hr[neg] > 0.0  # Phi(h) - Phi(-k) = Phi(k) - Phi(-h), which cancels less where h > 0
    px = _PHI(np.where(up, -hr[neg], -kr[neg])).astype(float)
    base[neg] = np.maximum(0.0, np.where(up, pk[run][neg], ph[run][neg]) - px)
    out[run] = base + val / (2.0 * math.pi)
    return np.clip(out, 0.0, 1.0)


def _path_terms(R: list, i: int, order: tuple):
    """The path terms of :func:`_cdf` for the pivot ``i`` as a function of
    the rows (corners) of upper limits ``H``, or ``None`` if ``x_i`` is
    independent of the rest.  The term of ``k`` is 2 pi times the integral
    over t in [0, 1] of ``r_ik phi2(h_i, h_k; t r_ik)`` times the cdf of the
    other one or two coordinates given ``x_i = h_i, x_k = h_k`` at ``t``.
    Per row, it returns the sum of the terms, the sum of their magnitudes,
    quadrature's estimates and the bounds on inner correlations taken as
    +-1.

    ``t r_ik`` runs as ``sign cos(psi)``, as in :func:`bvn_cdf`, and every
    (corner, term) pair is one row of one integrand (:func:`_angle_rows`).
    With ``c = cos(psi)`` and ``g = r_iz / |r_ik|``, the conditional
    deviation of ``h_z`` times ``1 - c^2`` is ``h_z (1 - c^2) - h_i (g - sign
    r_kz) c - h_k r_kz + h_k sign g c^2``, its variance times ``1 - c^2``
    ``(1 - r_kz^2) - q c^2 / r_ik^2``.  The inner cdf is Phi, or one
    :func:`_bvn_array` over the nodes of all rows, off by at most ``sqrt(1 -
    |rho|) / pi`` at the largest ``|rho|`` it takes as +-1, times the
    density's integral ``|Phi2(h_i, h_k; r_ik) - Phi(h_i) Phi(h_k)|``.
    """
    ks = [k for k in order if R[i][k] != 0.0]
    if not ks:
        return None
    n, two = len(R), len(order) == 3
    # a row's coefficients are the columns of H @ lin + const: the start of
    # its angles, (h_i - sign h_k, h_i, -sign h_k), then per other coordinate
    # z (h_z, h_i (g - sign r_kz), h_k r_kz, h_k sign g, 1 - r_kz^2, q /
    # r_ik^2), and at dimension 4 the covariance terms (c0, gc)
    lin, const = np.zeros((n, len(ks), 16 + 2 * two)), np.zeros((len(ks), 16 + 2 * two))
    signs = np.array([math.copysign(1.0, R[i][k]) for k in ks])
    for t, (k, sign) in enumerate(zip(ks, signs.tolist())):
        rik = R[i][k]
        lin[[i, i, k, k], t, [1, 2, 1, 3]] = 1.0, 1.0, -sign, -sign
        const[t, 0] = math.log(math.acos(abs(rik)))
        zs = [z for z in order if z != k]
        for j, z in zip((4, 10), zs):
            riz, rkz = R[i][z], R[k][z]
            g = riz / abs(rik)
            # q = r_ik^2 + r_iz^2 - 2 r_ik r_iz r_kz, free of cancellation near |r_kz| = 1
            q = ((rik - riz) ** 2 + 2.0 * rik * riz * (1.0 - rkz) if rkz >= 0.0
                 else (rik + riz) ** 2 - 2.0 * rik * riz * (1.0 + rkz))
            lin[[z, i, k, k], t, range(j, j + 4)] = 1.0, g - sign * rkz, rkz, sign * g
            const[t, j + 4:j + 6] = (1.0 - rkz) * (1.0 + rkz), q / (rik * rik)
        if two:
            # the conditional covariance of the pair times 1 - c^2: c0 - gc c^2
            (l, m), ril, rim = zs, R[i][zs[0]], R[i][zs[1]]
            rkl, rkm, rlm = R[k][l], R[k][m], R[l][m]
            const[t, 16:] = (rlm - rkl * rkm,
                             rlm + (ril * rim - rik * (ril * rkm + rim * rkl)) / (rik * rik))
    lin, const = lin.reshape(n, -1), const.ravel()

    def terms(H):
        m = len(H)
        G = (H @ lin + const).reshape(m * len(ks), -1)
        # the density's exponent is G1 / sin^2 + G3 / (1 + cos)
        G[:, 1] = -0.5 * G[:, 1] ** 2
        G[:, 3] *= G[:, 2]
        top = 0.0  # the largest inner |rho|

        def integrand(psi, rows):
            nonlocal top
            g = G if rows is None else G[rows]
            c, s = np.cos(psi), np.sin(psi)
            om, cc = s * s, c * c
            dens = np.exp(g[:, 1:2] / om + g[:, 3:4] / (1.0 + c))
            cdfs = []
            for j in (4, 10)[:1 + two]:
                hz, gx, hkr, gy, s0, gq = (g[:, q:q + 1] for q in range(j, j + 6))
                num, v = hz * om - gx * c - hkr + gy * cc, s0 - gq * cc
                var = om * v
                # Phi(num / sqrt(var)): a step at 0 where the variance vanishes
                cdf = _PHI(num / np.sqrt(np.maximum(var, _TINY))).astype(float)
                cdfs.append((num, v, var, cdf))
            if not two:
                return dens * cdf
            (nl, vl, wl, pl), (nm, vm, wm, pm) = cdfs
            inner, both = pl * pm, (wl > 0.0) & (wm > 0.0)
            if both.any():
                rho = (g[:, 16:17] - g[:, 17:18] * cc)[both] / np.sqrt(vl[both] * vm[both])
                inner[both] = _bvn_array(nl[both] / np.sqrt(wl[both]),
                                         nm[both] / np.sqrt(wm[both]), rho, pl[both], pm[both])
                top = max(top, float(np.abs(rho).max()))
            return dens * inner

        val, err = _angle_rows(integrand, len(G), G[:, :1], _LOG_HALF_PI)
        val, gaps = val.reshape(m, len(ks)), np.zeros(m)
        for c, t in itertools.product(range(m), range(len(ks))) if _singular_gap(top) else ():
            x, y = float(H[c, i]), float(H[c, ks[t]])
            gaps[c] += _singular_gap(top) * abs(_bvn_terms(x, y, R[i][ks[t]])[0]
                                                - std_cdf(x) * std_cdf(y))
        return val @ signs, val.sum(axis=1), err.reshape(m, len(ks)).sum(axis=1), gaps

    return terms


def _cdf(R: list):
    """The cdf of a standard normal ``X`` of dimension 0 to 4 with
    correlation ``R``: a function mapping ``m`` rows of upper limits (a list
    of tuples of floats, finite or +inf) to the ``m`` values ``P(X <= h)``
    and their absolute error estimates, two arrays (two tuples of floats at
    dimension 2).  What depends on ``R`` alone is set up once, here, and the
    rows of a call are evaluated together.

    Dimension 1 is Phi and dimension 2 :func:`_bvn_with_error`.  Above that,
    a limit of +inf drops its coordinate, and a pair correlated within 1e-15
    of +-1 (``x_b = +-x_a``) drops ``x_b``, adding the bound ``sqrt(1 -
    |rho|) / pi`` on that step and ``sum_j |asin r_aj - asin +-r_bj| / pi``
    on keeping ``x_a`` rather than ``x_b``.  Otherwise the cdf is Plackett's
    identity along the path that scales the correlations of a pivot ``i`` by
    ``t`` in [0, 1]:

        Phi_n(h; R) = Phi(h_i) Phi_{n-1}(h_rest; R_rest)
                      + sum_{k != i} int_0^1 r_ik phi2(h_i, h_k; t r_ik)
                                     Phi_{n-2}(h'(t); R'(t)) dt,

    ``(h'(t), R'(t))`` being the standardized limits and correlations of the
    others given ``x_i = h_i, x_k = h_k`` at ``t`` (:func:`_path_terms`, to
    a relative 1e-12 with no absolute floor).  Every matrix on the path is a
    convex mix of ``R`` and ``blockdiag(1, R_rest)``, so any pivot works;
    ``i`` has the smallest row sum of ``|R|``.  ``Phi_{n-1}`` runs once per
    distinct row (16 corners of a dim-4 box share 8).  The estimate adds
    ``Phi(h_i)`` times that of ``Phi_{n-1}``, 1e-11 relative to each path
    term, quadrature's estimates and the bounds of :func:`_path_terms`.
    """
    n = len(R)
    if n <= 1:
        return lambda H: (_PHI([h[0] for h in H]).astype(float) if n else np.ones(len(H)),
                          np.zeros(len(H)))
    if n == 2:
        return lambda H: tuple(zip(*[_bvn_with_error(h, k, R[0][1]) for h, k in H]))
    subs = {}

    def sub(keep, H):
        """The cdf of the coordinates ``keep`` at the distinct rows of ``H``."""
        if keep not in subs:
            subs[keep] = _cdf([[R[a][b] for b in keep] for a in keep])
        first = {}
        inv = [first.setdefault(tuple(row), len(first)) for row in H.tolist()]
        val, err = map(np.asarray, subs[keep](list(first)))
        return (val, err) if len(first) == len(inv) else (val[inv], err[inv])

    i = min(range(n), key=lambda j: math.fsum(map(abs, R[j])))
    order = tuple((i + m) % n for m in range(1, n))
    pair = next(((a, b) for a, b in itertools.combinations(order + (i,), 2)
                 if abs(R[a][b]) >= 1.0 - _RHO_ONE), None)
    if pair:
        a, b = pair
        r = R[a][b]
        keep = (a,) + tuple(j for j in order + (i,) if j not in pair)
        # keeping x_b instead moves each r_aj to +-r_bj (unequal where r rounds to
        # +-1): each cdf below, by at most sum_j |asin r_aj - asin +-r_bj| / (2 pi)
        rows = np.clip([[R[a][j], math.copysign(1.0, r) * R[b][j]] for j in keep[1:]], -1, 1)
        gap = _singular_gap(r) + float(np.abs(np.diff(np.arcsin(rows))).sum()) / math.pi
    else:
        paths = _path_terms(R, i, order)

    def finite_cdf(H):
        if pair:
            # x_b = +-x_a: a cdf of x_a and the others, or a difference of two
            # (0 where h_a <= -h_b)
            rest = H[:, keep[1:]]
            if r > 0.0:
                val, err = sub(keep, np.column_stack((np.minimum(H[:, a], H[:, b]), rest)))
                return val, err + gap
            (v1, e1), (v2, e2) = (sub(keep, np.column_stack((x, rest)))
                                  for x in (H[:, a], -H[:, b]))
            full = H[:, a] > -H[:, b]
            return (np.where(full, np.maximum(0.0, v1 - v2), 0.0),
                    np.where(full, e1 + e2, 0.0) + gap)
        p1 = _PHI(H[:, i]).astype(float)
        v0, e0 = sub(order, H[:, order])
        val, size, err, gaps = paths(H) if paths else (0.0,) * 4
        return (np.minimum(1.0, np.maximum(0.0, p1 * v0 + val / (2.0 * math.pi))),
                p1 * e0 + (_TVN_REL_ERR * size + err) / (2.0 * math.pi) + gaps)

    def cdf(H):
        H = np.array(H)
        finite = H < math.inf
        if finite.all():
            return finite_cdf(H)
        groups, val, err = {}, np.empty(len(H)), np.empty(len(H))
        for j, row in enumerate(finite.tolist()):
            groups.setdefault(tuple(c for c in range(n) if row[c]), []).append(j)
        for keep, rows in groups.items():
            val[rows], err[rows] = (finite_cdf(H[rows]) if len(keep) == n
                                    else sub(keep, H[np.ix_(rows, keep)]))
        return val, err

    return cdf


def _corner_prob(cdf, lo: list, hi: list) -> tuple[float, float]:
    """Rectangle probability by inclusion-exclusion over the corners whose
    lower limits are finite, ``cdf`` mapping the corners, a list of tuples,
    to their cdf values and error estimates; the estimates add up.
    Limits beyond 40 are infinite: Phi is 0 or 1 there in double precision,
    and the cdfs square their limits, which overflows from about 1e154 on.
    """
    limits = []
    for l, h in zip(lo, hi):
        if h <= -_PHI_SATURATES:
            return 0.0, 0.0
        h = math.inf if h >= _PHI_SATURATES else h
        limits.append((h, l) if l > -_PHI_SATURATES else (h,))
    vals, errs = cdf(list(itertools.product(*limits)))
    prob = err = 0.0
    signs = itertools.product(*((1.0, -1.0)[:len(x)] for x in limits))
    for sign, val, e in zip(signs, vals, errs):
        prob += math.prod(sign) * float(val)
        err += float(e)
    return min(1.0, max(0.0, prob)), err


# ----------------------------------------------------------------------------
# rank-1 lattice construction (fast component-by-component, product kernel)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return sorted(set(out))


def _largest_prime_at_most(n: int) -> int:
    while _prime_factors(n) != [n]:
        n -= 1
    return n


def _primitive_root(p: int) -> int:
    pm = p - 1
    factors = _prime_factors(pm)
    g = 2
    while True:
        if all(pow(g, pm // f, p) != 1 for f in factors):
            return g
        g += 1


# Candidates whose CBC sum lies within this relative band of the minimum count
# as tied.  FFT rounding moves the sums by ~1e-16 relative, far inside it.
_CBC_TIE_BAND = 1e-12


@lru_cache(maxsize=64)
def _lattice_generator(dim: int, n_points: int) -> tuple[np.ndarray, int]:
    """Generating vector of a rank-1 lattice rule with ``n`` prime points.

    Fast component-by-component (CBC) construction (Nuyens & Cools 2006):
    with ``z_1 = 1``, each further component ``z_s`` in ``[1, (n-1)/2]``
    minimizes the worst-case error of the shift-invariant product kernel

        e^2(z) = -1 + (1/n) sum_k prod_j (1 + gamma_j psi({k z_j / n})),

    with ``psi(x) = x^2 - x + 1/6`` and weights ``gamma_j = 0.9^(j-1)``.  The
    sums over all candidates come from one circular convolution over the
    cyclic group generated by a primitive root, computed by FFT.

    The FFT only ranks the candidates.  Every candidate whose sum lies within
    a relative band of 1e-12 of the minimum counts as tied, and the smallest
    ``z_s`` among them wins.  Exact ties always occur (at ``s = 2``, ``a``
    and ``a^-1 mod n`` score the same), and FFT rounding breaks them
    differently across numpy/scipy builds; with the band, the vector is a
    pure function of ``(dim, n)``.
    """
    n = _largest_prime_at_most(n_points)
    m = (n - 1) // 2
    g = _primitive_root(n)
    # perm[j] = +-g^j mod n folded into [1, m]; psi is symmetric, psi(x) =
    # psi(1 - x), and g^m = -1, so the group of order n - 1 folds to order m
    perm = np.ones(m, dtype=np.int64)
    for j in range(m - 1):
        perm[j + 1] = (g * perm[j]) % n
    perm = np.minimum(perm, n - perm)
    x = perm / n
    psi = x * x - x + 1.0 / 6.0
    fpsi = fft(psi)
    weights = 0.9 ** np.arange(dim)
    # q[j] = running product over the chosen components at k = g^-j, so that
    # k * g^w = g^(w-j) and the candidate sums are a circular convolution
    j = np.arange(m)
    q = 1.0 + weights[0] * psi[-j % m]
    z = np.ones(dim, dtype=np.int64)
    for s in range(1, dim):
        sums = q.sum() + weights[s] * ifft(fpsi * fft(q)).real
        best = sums.min()
        tied = np.flatnonzero(sums <= best + _CBC_TIE_BAND * best)
        w = int(tied[np.argmin(perm[tied])])
        z[s] = perm[w]
        q = q * (1.0 + weights[s] * psi[(w - j) % m])
    return z / n, n


# ----------------------------------------------------------------------------
# separation-of-variables transform with greedy variable reordering


def _reordered_cholesky(R: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Pivoted Cholesky choosing, at each step, the coordinate whose
    conditional interval probability is smallest (standard variance
    reduction for the separation-of-variables integrand)."""
    n = R.shape[0]
    C = R.copy()
    lo = lo.copy()
    hi = hi.copy()
    L = np.zeros((n, n))
    y = np.zeros(n)
    eps = 1e-12
    for k in range(n):
        best_i, best_de, best_lo, best_hi, best_c = k, np.inf, 0.0, 0.0, 0.0
        for i in range(k, n):
            res = C[i, i] - L[i, :k] @ L[i, :k]
            ci = math.sqrt(max(res, 0.0))
            s = L[i, :k] @ y[:k]
            if ci > eps:
                loi, hii = (lo[i] - s) / ci, (hi[i] - s) / ci
            else:
                loi, hii = (-np.inf if lo[i] - s <= 0 else np.inf,
                            np.inf if hi[i] - s >= 0 else -np.inf)
            de = std_cdf(hii) - std_cdf(loi)
            if de < best_de:
                best_i, best_de, best_lo, best_hi, best_c = i, de, loi, hii, ci
        i = best_i
        if i != k:
            C[[i, k], :] = C[[k, i], :]
            C[:, [i, k]] = C[:, [k, i]]
            L[[i, k], :k] = L[[k, i], :k]
            lo[[i, k]] = lo[[k, i]]
            hi[[i, k]] = hi[[k, i]]
        ck = best_c
        L[k, k] = ck
        if ck > eps:
            for i in range(k + 1, n):
                L[i, k] = (C[i, k] - L[i, :k] @ L[k, :k]) / ck
            if best_de > eps:
                y[k] = (std_pdf(best_lo) - std_pdf(best_hi)) / best_de
            else:
                if best_lo > 8.0:
                    y[k] = best_lo
                elif best_hi < -8.0:
                    y[k] = best_hi
                else:
                    a = max(best_lo, -8.0)
                    b = min(best_hi, 8.0)
                    y[k] = 0.5 * (a + b)
        # ck ~ 0: coordinate is (conditionally) deterministic; leave column 0.
    return L, lo, hi


def _qmc_prob(R: np.ndarray, lo: np.ndarray, hi: np.ndarray, cfg: QmcConfig):
    """Randomized lattice integration of the reordered SOV integrand."""
    from scipy.special import ndtr, ndtri

    L, lo, hi = _reordered_cholesky(R, lo, hi)
    n = R.shape[0]
    # R has a unit diagonal (standardize), so the first pivot L[0, 0] is 1
    c0, d0 = std_cdf(lo[0]), std_cdf(hi[0])
    q, n_pts = _lattice_generator(n - 1, cfg.sample_count)
    qidx = np.outer(q, np.arange(1, n_pts + 1))  # lattice points before the shift
    rng = np.random.default_rng(cfg.seed)
    estimates = np.empty(cfg.replicates)
    y = np.zeros((n - 1, n_pts))
    z, t, c, d, dc, pv = np.empty((6, n_pts))
    for r in range(cfg.replicates):
        shift = rng.random(n - 1)
        c.fill(c0)
        dc.fill(d0 - c0)
        pv[:] = dc
        for i in range(1, n):
            # u = clip(c + |2 frac(q_i k + shift_i) - 1| dc), formed in t
            np.add(qidx[i - 1], shift[i - 1], out=z)
            z -= np.floor(z, out=t)
            np.abs(np.subtract(np.multiply(z, 2.0, out=t), 1.0, out=t), out=t)
            np.clip(np.add(c, np.multiply(t, dc, out=t), out=t), 1e-320, 1.0 - 1e-16, out=t)
            ndtri(t, out=y[i - 1])
            if not (positive := dc > 0.0).all():
                y[i - 1][~positive] = 0.0
            s = np.matmul(L[i, :i], y[:i], out=z)
            ct = L[i, i]
            c.fill(0.0)
            if ct > 0.0:
                # ndtr(-inf) = 0 and ndtr(inf) = 1 exactly: skip it on +-inf limits
                d.fill(1.0)
                if lo[i] > -np.inf:
                    ndtr(np.divide(np.subtract(lo[i], s, out=t), ct, out=t), out=c)
                if hi[i] < np.inf:
                    ndtr(np.divide(np.subtract(hi[i], s, out=t), ct, out=t), out=d)
            else:
                # conditionally deterministic: (c, d) = (0, 1) where the
                # point lies in the interval, (0, 0) where it does not
                np.copyto(d, (lo[i] - s <= 0.0) & (hi[i] - s >= 0.0))
            np.subtract(d, c, out=dc)
            pv *= dc
        estimates[r] = pv.mean()
    prob = float(estimates.mean())
    spread = float(estimates.std(ddof=1)) / math.sqrt(cfg.replicates)
    return min(1.0, max(0.0, prob)), 3.0 * spread


# ----------------------------------------------------------------------------
# public rectangle probability


def standardize(box: TruncationBox, p: NormalParams, reflect: bool = False):
    """Per-coordinate scales ``sd``, correlation matrix ``R`` (a list of
    rows) and the box limits ``lo``, ``hi`` in standard units, all Python
    floats: the one place a covariance is turned into correlation form.
    With ``reflect``, each coordinate whose standardized interval lies above
    0 is reflected: its limits are negated and swapped and its correlations
    with the other coordinates negated."""
    sigma = p.sigma.tolist()
    sd, lo, hi, flip = [], [], [], []
    for i, (row, m, a, b) in enumerate(zip(sigma, p.mu.tolist(), box.lower.tolist(),
                                           box.upper.tolist())):
        if not row[i] > 0.0:  # also NaN
            raise NotPSDError("scale matrix has a non-positive diagonal entry")
        s = math.sqrt(row[i])
        # +-inf stays +-inf; no NaNs possible since s > 0
        a, b = (a - m) / s, (b - m) / s
        f = reflect and a > 0.0
        sd.append(s)
        lo.append(-b if f else a)
        hi.append(-a if f else b)
        flip.append(f)
    R = [[1.0] * len(sd) for _ in sd]
    for i, row in enumerate(sigma):
        for j in range(i):
            r = row[j] / (sd[i] * sd[j])
            R[i][j] = R[j][i] = -r if flip[i] != flip[j] else r
    return sd, R, lo, hi


def mvn_prob(box: TruncationBox, p: NormalParams, cfg: QmcConfig = DEFAULT_QMC):
    """Rectangle probability ``P(lower <= X <= upper)`` and an absolute
    error estimate.

    dim 1: difference of cdf values (error 0); dims 2 to 4: the cdf of
    :func:`_cdf` at all corners with finite lower limits in one call, by
    inclusion-exclusion, each to a relative 1e-12, the estimates added over
    the corners; dim >= 5: randomized lattice QMC, error estimate 3x the
    standard error over replicates.  ``cfg`` is used only at dim >= 5.  The
    result is clamped to [0, 1] and is a pure function of ``(box, p,
    cfg)``.  At dims 2 to 4 a standardized limit beyond 40 is infinite.

    Coordinates whose standardized interval lies above 0 are reflected
    first, so every interval probability is formed on the side where the
    cdf is small: ``Phi(hi) - Phi(lo)`` is ``1 - 1 = 0`` once ``lo`` passes
    ~8.3.
    """
    n = p.dim
    if box.dim != n:
        raise DimensionMismatchError("box and parameter dimensions differ")
    _record(n)
    if box.is_unbounded():
        return 1.0, 0.0
    _, R, lo, hi = standardize(box, p, reflect=True)
    if n == 1:
        return min(1.0, max(0.0, std_cdf(hi[0]) - std_cdf(lo[0]))), 0.0
    if n <= 4:
        return _corner_prob(_cdf(R), lo, hi)
    return _qmc_prob(np.array(R), np.array(lo), np.array(hi), cfg)


def mvn_log_prob(box: TruncationBox, p: NormalParams, cfg: QmcConfig = DEFAULT_QMC) -> float:
    """log of a univariate interval probability, exact in log space (finite
    far beyond double underflow).

    Only dimension 1 is supported: the extreme-case corrections route every
    mass-zero situation through univariate log-probabilities.  ``cfg`` is
    unused (dim 1 is deterministic) and kept for the signature of
    :func:`mvn_prob`: the benchmark tracer (``perfbench/tracer.py``) reads
    the default of a ``cfg`` parameter from every ``mvn`` function it
    wraps, and ``tests/test_tracer_names.py`` checks that it is there.
    """
    if box.dim != p.dim:
        raise DimensionMismatchError("box and parameter dimensions differ")
    if p.dim != 1:
        raise DimensionMismatchError(
            f"mvn_log_prob is univariate; got dimension {p.dim}")
    _record(1)
    _, _, (lo,), (hi,) = standardize(box, p)
    return _interval_log_prob(lo, hi)
