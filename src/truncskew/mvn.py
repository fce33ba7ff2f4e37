"""Multivariate normal density and rectangle probabilities.

The rectangle probability L_p(a, b; mu, Sigma) is the scalar kernel every
moment recurrence in this library bottoms out in.  Dimensions 1 to 4 are
deterministic and ignore :class:`QmcConfig`: inclusion-exclusion over the
corners of one recursion over the dimension.  Dimension 1 is a cdf, dimension
2 adaptive quadrature over the correlation parameter, and dimensions 3 and 4
Plackett's identity: 1-d integrals of bivariate densities times the cdf of
the other one or two coordinates (a univariate cdf, or a bivariate cdf
evaluated as one array over the nodes).  The integrals run on this module's
adaptive Gauss-Kronrod 10/21 rule (QUADPACK's ``qk21`` nodes and error
heuristic, largest-error bisection, no extrapolation), evaluating the
integrand at all 21 nodes of a panel as one array.  Higher dimensions use a
separation-of-variables transform with greedy variable reordering,
integrated by a randomized rank-1 lattice rule.  The lattice comes from fast
component-by-component construction with a fixed tie rule, so its generating
vector is a pure function of (dimension, number of points), whatever the FFT
library's rounding.  Identical :class:`QmcConfig` (including seed) gives
bit-identical results.

The module imports numpy only.  The normal cdf and its logarithm run on
``math.erf`` / ``math.erfc`` (:func:`std_cdf`, :func:`log_std_cdf`); the
lattice kernel imports ``scipy.special``'s array ufuncs ``ndtr`` and
``ndtri`` on its first call, since it spends its time in them.
"""

import heapq
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import fft, ifft

from .core import _psd_eigh, _unchecked, as_sym_matrix, as_vector, symmetrize
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

# Correlations within this distance of +-1 are taken as exactly +-1.
_RHO_ONE = 1e-15

# Phi(-x) is below the smallest subnormal double from x = 38.5 on.
_PHI_SATURATES = 40.0


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
        return bool(np.all(np.isinf(self.lower)) and np.all(np.isinf(self.upper)))

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
    return 0.5 * math.erfc(-t)  # also NaN


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


def _angle_quad(f, rho: float) -> tuple[float, float]:
    """Integral of ``f(psi)`` over ``psi`` in [acos|rho|, pi/2] and its error,
    to a relative 1e-12 with no absolute floor.

    ``psi`` is the angle between a correlation ``+-cos(psi)`` and +-1.  The
    integrands of this module change on the scale of ``psi`` itself, so the
    quadrature runs in ``log(psi)`` (:func:`_log_angle_quad`): a narrow
    feature next to a near-singular end, which a rule on ``psi`` would step
    over and report as converged, is resolved.  ``f`` takes and returns
    arrays of 21 values.
    """
    return _log_angle_quad(f, math.acos(abs(rho)), 0.5 * math.pi)


def _log_angle_quad(f, lo: float, hi: float) -> tuple[float, float]:
    """Integral of ``f(psi)`` over ``psi`` in [lo, hi], run in ``log(psi)``,
    and its error, to a relative 1e-12 with no absolute floor.

    The rule is QUADPACK's adaptive Gauss-Kronrod 10/21 (:func:`_gk21`)
    without extrapolation: the panel with the largest error estimate is
    bisected until the summed estimate is at most 1e-12 of the summed value,
    or 200 panels are in use.  The integrands are smooth in ``log(psi)``, so
    one panel almost always suffices.
    """

    def integrand(u):
        psi = np.exp(u)
        return psi * f(psi)

    a, b = math.log(lo), math.log(hi)
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


def bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal, correlation ``rho``.

    Adaptive quadrature over the correlation parameter of the tetrachoric
    identity d Phi2 / d rho = phi2, to a relative 1e-12 of the integral
    (no absolute floor, so rectangles far below 1e-16 keep their digits),
    by :func:`_angle_quad`; an estimate above 1e-10 raises
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

    val, err = _angle_quad(integrand, rho)
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


def _std_cdf_array(x: np.ndarray) -> np.ndarray:
    """:func:`std_cdf` of each element of a 1-d array."""
    return np.array([std_cdf(v) for v in x.tolist()])


# Uniform panel counts that the array bivariate cdf runs, in turn, on the
# elements not yet converged.
_BVN_ARRAY_PANELS = (1, 2, 4, 8, 16)


def _angle_array(d2: np.ndarray, hk: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Elementwise integral over ``psi`` in [exp(a), exp(b)], in ``log(psi)``,
    of :func:`bvn_cdf`'s integrand ``exp(-0.5 d2 / sin^2 psi - hk / (1 +
    cos psi))``, and the indices of the elements not converged.

    All elements take :func:`_gk21` on one panel; those whose summed
    estimate is above 1e-12 of their value are rerun, as one array, on 2, 4,
    8 and then 16 uniform panels.
    """
    val = np.zeros(a.shape)
    todo = np.arange(a.size)
    d2, hk = d2[:, None, None], hk[:, None, None]
    for n in _BVN_ARRAY_PANELS:
        # n panels of half-width w, 21 nodes each: shape (m, n, 21)
        w = (0.5 / n) * (b - a)[:, None]
        mid = a[:, None] + (2.0 * np.arange(n) + 1.0) * w
        psi = np.exp(mid[:, :, None] + w[:, :, None] * _GK_X)
        s = np.sin(psi)
        fx = psi * np.exp(-0.5 * d2 / (s * s) - hk / (1.0 + np.cos(psi)))
        # _gk21 on every panel; fx >= 0, so resabs is w times the Kronrod sum
        resk, resg = fx @ _GK_W[0], fx @ _GK_W[1]
        resasc = w * (np.abs(fx - 0.5 * resk[:, :, None]) @ _GK_WK21)
        err = w * np.abs(resk - resg)
        big = (resasc != 0.0) & (err != 0.0)
        err[big] = resasc[big] * np.minimum(1.0, (200.0 * err[big] / resasc[big]) ** 1.5)
        err = np.maximum(err, _GK_EPS50 * w * resk).sum(axis=1)
        v = (w * resk).sum(axis=1)
        done = err <= _QUAD_REL_TOL * v
        val[todo[done]] = v[done]
        more = ~done
        todo, d2, hk, a, b = todo[more], d2[more], hk[more], a[more], b[more]
        if not todo.size:
            break
    return val, todo


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
    the range) are left out.  Both run in :func:`_angle_array`, and the
    elements it leaves in :func:`_log_angle_quad`.  Correlations within
    1e-15 of +-1 are taken as +-1.
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
    val, left = _angle_array(d2, hk, np.log(lo), np.log(hi))
    for j in left.tolist():
        def f(psi, d2=d2[j], hk=hk[j]):
            return np.exp(-0.5 * d2 / np.sin(psi) ** 2 - hk / (1.0 + np.cos(psi)))
        val[j] = _log_angle_quad(f, float(lo[j]), float(hi[j]))[0]
    base = out[run]
    up = hr[neg] > 0.0  # Phi(h) - Phi(-k) = Phi(k) - Phi(-h), which cancels less where h > 0
    px = _std_cdf_array(np.where(up, -hr[neg], -kr[neg]))
    base[neg] = np.maximum(0.0, np.where(up, pk[run][neg], ph[run][neg]) - px)
    out[run] = base + val / (2.0 * math.pi)
    return np.clip(out, 0.0, 1.0)


def _path_term(R: list, i: int, k: int, rest: list[int]):
    """The path term of :func:`_cdf` for the pivot ``i`` and the coordinate
    ``k``, as a function of the upper limits ``h``.  It returns 2 pi times
    the integral over t in [0, 1] of ``r_ik phi2(h_i, h_k; t r_ik)`` times
    the cdf of the coordinates ``rest`` (one or two) given ``x_i = h_i,
    x_k = h_k`` at ``t``, quadrature's estimate of that, and the bound on
    taking an inner correlation as +-1.

    The correlation ``t r_ik`` runs as ``sign cos(psi)``, as in
    :func:`bvn_cdf`.  With ``c = cos(psi)`` and ``g = r_iz / |r_ik|``, the
    conditional deviation of ``h_z`` times ``1 - c^2`` is ``h_z (1 - c^2) -
    h_i (g - sign r_kz) c - h_k r_kz + h_k sign g c^2``, and its variance
    times ``1 - c^2`` is ``(1 - r_kz^2) - q c^2 / r_ik^2``.  The inner cdf is
    Phi, with a step at 0 where the variance vanishes, or :func:`_bvn_array`
    over the nodes.  Where that takes a correlation as +-1 it is off by at
    most the largest such ``sqrt(1 - |rho|) / pi``, and the density
    integrates to ``|Phi2(h_i, h_k; r_ik) - Phi(h_i) Phi(h_k)|``.
    """
    rik = R[i][k]
    sign = math.copysign(1.0, rik)
    r2 = rik * rik
    coefs = []
    for z in rest:
        riz, rkz = R[i][z], R[k][z]
        g = riz / abs(rik)
        # q = r_ik^2 + r_iz^2 - 2 r_ik r_iz r_kz, free of cancellation near |r_kz| = 1
        if rkz >= 0.0:
            q = (rik - riz) ** 2 + 2.0 * rik * riz * (1.0 - rkz)
        else:
            q = (rik + riz) ** 2 - 2.0 * rik * riz * (1.0 + rkz)
        coefs.append((z, g - sign * rkz, rkz, sign * g, (1.0 - rkz) * (1.0 + rkz), q / r2))
    if len(rest) == 2:
        # the conditional covariance of the pair times 1 - c^2: c0 - gc c^2
        l, m = rest
        ril, rim, rkl, rkm, rlm = R[i][l], R[i][m], R[k][l], R[k][m], R[l][m]
        c0 = rlm - rkl * rkm
        gc = rlm + (ril * rim - rik * (ril * rkm + rim * rkl)) / r2

    def term(h):
        hi, hk = h[i], h[k]
        d2 = (hi - sign * hk) ** 2
        hik = sign * hi * hk
        limits = [(h[z], hi * gx, hk * rkz, hk * gy, s0, gq) for z, gx, rkz, gy, s0, gq in coefs]
        gap = 0.0

        def integrand(psi):
            nonlocal gap
            c, s = np.cos(psi), np.sin(psi)
            om, cc = s * s, c * c
            dens = np.exp(-0.5 * d2 / om - hik / (1.0 + c))
            inner, rows = 1.0, []
            for hz, gx, hkr, gy, s0, gq in limits:
                num, v = hz * om - gx * c - hkr + gy * cc, s0 - gq * cc
                var = om * v
                # Phi(num / sqrt(var)), and the step at 0 where the variance vanishes
                cdf = np.array([std_cdf(n / math.sqrt(w)) if w > 0.0 else float(n >= 0.0)
                                for n, w in zip(num.tolist(), var.tolist())])
                inner = inner * cdf
                rows.append((num, v, var, cdf))
            if len(rows) == 2:
                (nl, vl, wl, pl), (nm, vm, wm, pm) = rows
                both = (wl > 0.0) & (wm > 0.0)
                if both.any():
                    rho = (c0 - gc * cc[both]) / np.sqrt(vl[both] * vm[both])
                    inner[both] = _bvn_array(nl[both] / np.sqrt(wl[both]),
                                             nm[both] / np.sqrt(wm[both]),
                                             rho, pl[both], pm[both])
                    gap = max(gap, _singular_gap(float(np.abs(rho).max())))
            return dens * inner

        val, err = _angle_quad(integrand, rik)
        if gap:
            gap *= abs(_bvn_terms(hi, hk, rik)[0] - std_cdf(hi) * std_cdf(hk))
        return sign * val, err, gap

    return term


def _cdf(R: list):
    """The cdf of a standard normal ``X`` of dimension 0 to 4 with
    correlation ``R``: a function mapping upper limits ``h``, each finite or
    +inf, to ``P(X <= h)`` and an absolute error estimate.  What depends on
    ``R`` alone is worked out once, here, for all the corners of a
    rectangle.

    Dimension 1 is Phi and dimension 2 :func:`_bvn_with_error`.  Above that,
    a limit of +inf drops its coordinate, and a pair correlated within 1e-15
    of +-1 (``x_b = +-x_a``) drops ``x_b``, adding the bound
    ``sqrt(1 - |rho|) / pi`` on that step and ``sum_j |asin r_aj - asin
    +-r_bj| / pi`` on keeping ``x_a`` rather than ``x_b``.  Otherwise
    the cdf is Plackett's identity along the path that scales the
    correlations of a pivot coordinate ``i`` by ``t`` in [0, 1]:

        Phi_n(h; R) = Phi(h_i) Phi_{n-1}(h_rest; R_rest)
                      + sum_{k != i} int_0^1 r_ik phi2(h_i, h_k; t r_ik)
                                     Phi_{n-2}(h'(t); R'(t)) dt,

    ``(h'(t), R'(t))`` being the standardized limits and the correlations of
    the other coordinates given ``x_i = h_i, x_k = h_k`` at ``t``
    (:func:`_path_term`).  Every matrix on the path is a convex mix of ``R``
    and ``blockdiag(1, R_rest)``, so it is positive semidefinite for any
    pivot; ``i`` is the coordinate least correlated with the rest (smallest
    row sum of ``|R|``).  Each path term is integrated over the angle of its
    correlation, as in :func:`bvn_cdf`, to a relative 1e-12 with no absolute
    floor, so tiny orthants keep their relative accuracy.  The estimate adds
    ``Phi(h_i)`` times the estimate of ``Phi_{n-1}``, 1e-11 relative to each
    path term, quadrature's own estimates and the path terms' bounds on
    inner correlations taken as +-1.
    """
    n = len(R)
    if n == 0:
        return lambda h: (1.0, 0.0)
    if n == 1:
        return lambda h: (std_cdf(h[0]), 0.0)
    if n == 2:
        rho = R[0][1]
        return lambda h: _bvn_with_error(h[0], h[1], rho)
    subs = {}

    def sub(keep, h):
        """The cdf of the coordinates ``keep`` at ``h``."""
        if keep not in subs:
            subs[keep] = _cdf([[R[a][b] for b in keep] for a in keep])
        return subs[keep](h)

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
        paths = [_path_term(R, i, k, [z for z in order if z != k])
                 for k in order if R[i][k] != 0.0]

    def cdf(h):
        h = [float(x) for x in h]
        finite = tuple(j for j in range(n) if h[j] < math.inf)
        if len(finite) < n:
            return sub(finite, [h[j] for j in finite])
        if pair:
            # x_b = +-x_a: a cdf of x_a and the others
            rest = [h[j] for j in keep[1:]]
            if r > 0.0:
                val, err = sub(keep, [min(h[a], h[b])] + rest)
                return val, err + gap
            if h[a] <= -h[b]:
                return 0.0, gap
            v1, e1 = sub(keep, [h[a]] + rest)
            v2, e2 = sub(keep, [-h[b]] + rest)
            return max(0.0, v1 - v2), e1 + e2 + gap
        p1 = std_cdf(h[i])
        v0, e0 = sub(order, [h[j] for j in order])
        val = size = err = gaps = 0.0
        for term in paths:
            v, e, g = term(h)
            val += v
            size += abs(v)
            err += e
            gaps += g
        return (min(1.0, max(0.0, p1 * v0 + val / (2.0 * math.pi))),
                p1 * e0 + _TVN_REL_ERR * size / (2.0 * math.pi) + err / (2.0 * math.pi)
                + gaps)

    return cdf



def _corner_prob(cdf, lo: np.ndarray, hi: np.ndarray) -> tuple[float, float]:
    """Rectangle probability by inclusion-exclusion over the corners whose
    lower limits are finite, ``cdf`` mapping a corner to a cdf value and its
    error estimate; the error estimates add up.

    Limits beyond 40 are taken as infinite: Phi is 0 or 1 there in double
    precision, and the cdfs square their limits, which overflows from about
    1e154 on."""
    corners = []
    for l, h in zip(lo, hi):
        if h <= -_PHI_SATURATES:
            return 0.0, 0.0
        if h >= _PHI_SATURATES:
            h = np.inf
        corners.append(((h, 1.0), (l, -1.0)) if l > -_PHI_SATURATES else ((h, 1.0),))
    prob = err = 0.0
    for corner in itertools.product(*corners):
        val, e = cdf([h for h, _ in corner])
        prob += math.prod(sign for _, sign in corner) * val
        err += e
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
    if dim <= 0:
        return np.empty(0), n
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
    if L[0, 0] > 0:
        c0, d0 = std_cdf(lo[0] / L[0, 0]), std_cdf(hi[0] / L[0, 0])
    else:
        # a deterministic coordinate: the whole unit interval or nothing
        c0, d0 = 0.0, float(lo[0] <= 0.0 <= hi[0])
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


def standardize(box: TruncationBox, p: NormalParams):
    """Per-coordinate scales ``sd``, correlation matrix ``R`` and the box
    limits in standard units: the one place a covariance is turned into
    correlation form."""
    var = np.diag(p.sigma)
    if not np.all(var > 0.0):  # also NaN
        raise NotPSDError("scale matrix has a non-positive diagonal entry")
    sd = np.sqrt(var)
    with np.errstate(invalid="ignore"):
        lo = (box.lower - p.mu) / sd
        hi = (box.upper - p.mu) / sd
    # +-inf stays +-inf; no NaNs possible since sd > 0
    R = symmetrize(p.sigma / np.outer(sd, sd))
    np.fill_diagonal(R, 1.0)
    return sd, R, lo, hi


def _standard_interval(box: TruncationBox, p: NormalParams) -> tuple[float, float]:
    """:func:`standardize` of a univariate box, on floats: the same doubles
    for the limits, with no correlation matrix to form."""
    var = float(p.sigma[0, 0])
    if not var > 0.0:  # also NaN
        raise NotPSDError("scale matrix has a non-positive diagonal entry")
    sd, mu = math.sqrt(var), float(p.mu[0])
    return (float(box.lower[0]) - mu) / sd, (float(box.upper[0]) - mu) / sd


def mvn_prob(box: TruncationBox, p: NormalParams, cfg: QmcConfig = DEFAULT_QMC):
    """Rectangle probability ``P(lower <= X <= upper)`` and an absolute
    error estimate.

    dim 1: difference of cdf values (error 0); dims 2 to 4: the
    deterministic cdf of :func:`_cdf` (:func:`bvn_cdf` at dim 2, Plackett's
    identity at dims 3 and 4) by inclusion-exclusion over the corners with
    finite lower limits, each to a relative 1e-12, reported error the sum
    over corners of 1e-11 relative to each term (plus quadrature's own
    estimates at dims 3 and 4); dim >= 5: randomized
    lattice QMC, error estimate 3x the standard error over replicates.
    ``cfg`` is used only at dim >= 5.  The result is clamped to [0, 1] and
    is a pure function of ``(box, p, cfg)``.  At dims 2 to 4 a standardized
    limit beyond 40 is taken as infinite: Phi is 0 or 1 there in double
    precision.

    Coordinates whose standardized interval lies above 0 are reflected
    first, so every interval probability is formed on the side where the
    cdf is small: ``Phi(hi) - Phi(lo)`` is ``1 - 1 = 0`` once ``lo`` passes
    ~8.3.
    """
    if box.dim != p.dim:
        raise DimensionMismatchError("box and parameter dimensions differ")
    _record(p.dim)
    if p.dim == 1:
        if box.lower[0] == -np.inf and box.upper[0] == np.inf:
            return 1.0, 0.0
        lo, hi = _standard_interval(box, p)
        if lo > 0.0:
            lo, hi = -hi, -lo
        prob = std_cdf(hi) - std_cdf(lo)
        return min(1.0, max(0.0, prob)), 0.0
    if box.is_unbounded():
        return 1.0, 0.0
    _, R, lo, hi = standardize(box, p)
    flip = lo > 0.0
    if np.any(flip):
        lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
        v = np.where(flip, -1.0, 1.0)
        R = R * np.outer(v, v)
    if p.dim <= 4:
        return _corner_prob(_cdf(R.tolist()), lo, hi)
    return _qmc_prob(R, lo, hi, cfg)


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
    return _interval_log_prob(*_standard_interval(box, p))
