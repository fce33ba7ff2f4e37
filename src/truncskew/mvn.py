"""Multivariate normal density and rectangle probabilities.

The rectangle probability L_p(a, b; mu, Sigma) is the scalar kernel every
moment recurrence in this library bottoms out in.  Dimensions 1 to 3 are
deterministic and ignore :class:`QmcConfig`: a cdf difference, adaptive
quadrature over the correlation parameter, and Plackett's identity for the
trivariate cdf (a 1-d integral of bivariate densities times a univariate cdf)
with inclusion-exclusion over the corners.  Higher dimensions use a
separation-of-variables transform with greedy variable reordering,
integrated by a randomized rank-1 lattice rule.  The lattice comes from fast
component-by-component construction with a fixed tie rule, so its generating
vector is a pure function of (dimension, number of points), whatever the FFT
library's rounding.  Identical :class:`QmcConfig` (including seed) gives
bit-identical results.
"""

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import fft, ifft
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr, ndtri

from .core import as_sym_matrix, as_vector, symmetrize
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

# Correlations within this distance of +-1 are taken as exactly +-1.
_RHO_ONE = 1e-15


# ----------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class NormalParams:
    """Location vector and PSD scale matrix of a multivariate normal."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = as_vector(self.mu)
        sigma = as_sym_matrix(self.sigma, dim=mu.shape[0])
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

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

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def is_unbounded(self) -> bool:
        return bool(np.all(np.isinf(self.lower)) and np.all(np.isinf(self.upper)))

    def drop(self, i: int) -> "TruncationBox":
        return TruncationBox(np.delete(self.lower, i), np.delete(self.upper, i))

    def select(self, idx) -> "TruncationBox":
        idx = list(idx)
        return TruncationBox(self.lower[idx], self.upper[idx])

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
    fully determines the random shifts.
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
    """Standard normal cdf Phi, with Phi(-inf)=0 and Phi(+inf)=1."""
    return float(ndtr(x))


def log_std_cdf(x: float) -> float:
    """log Phi(x), finite far into the left tail (~ -x^2/2 - log|x|...)."""
    return float(log_ndtr(x))


def _interval_log_prob(lo: float, hi: float) -> float:
    """log(Phi(hi) - Phi(lo)) computed fully in log space."""
    if hi <= lo:
        return -np.inf
    # work on the side where the cdf is small: P(lo<X<hi) = P(-hi<X<-lo)
    if lo + hi > 0.0:
        lo, hi = -hi, -lo
    la, lb = log_ndtr(lo), log_ndtr(hi)
    if la == -np.inf:
        return float(lb)
    return float(lb + math.log1p(-math.exp(la - lb)))


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


def _angle_quad(f, rho: float) -> tuple[float, float]:
    """Integral of ``f(psi)`` over ``psi`` in [acos|rho|, pi/2] and its error,
    to a relative 1e-12 with no absolute floor.

    ``psi`` is the angle between a correlation ``+-cos(psi)`` and +-1.  The
    integrands of this module change on the scale of ``psi`` itself, so the
    quadrature runs in ``log(psi)``: a narrow feature next to a
    near-singular end, which a rule on ``psi`` would step over and report as
    converged, is resolved.  ``full_output`` keeps quad's IntegrationWarning
    off stderr; its error estimate is returned instead.
    """

    def integrand(u):
        psi = math.exp(u)
        return psi * f(psi)

    val, err, *_ = quad(integrand, math.log(math.acos(abs(rho))),
                        math.log(0.5 * math.pi), epsabs=0.0, epsrel=1e-12,
                        limit=200, full_output=1)
    return val, err


def bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal, correlation ``rho``.

    Adaptive quadrature over the correlation parameter of the tetrachoric
    identity d Phi2 / d rho = phi2, to a relative 1e-12 of the integral
    (no absolute floor, so rectangles far below 1e-16 keep their digits).
    The correlation runs as ``+-cos(psi)``: ``d t`` cancels phi2's
    ``1 / sqrt(1 - t^2)``, so the integrand stays bounded as |rho| -> 1, and
    ``psi``, the angular distance from |t| = 1, keeps its relative precision
    there.
    """
    if np.isnan(h) or np.isnan(k):
        raise DimensionMismatchError("NaN argument to bvn_cdf")
    if h == -np.inf or k == -np.inf:
        return 0.0
    if h == np.inf:
        return std_cdf(k)
    if k == np.inf:
        return std_cdf(h)
    if rho >= 1.0 - _RHO_ONE:
        return std_cdf(min(h, k))
    if rho <= -1.0 + _RHO_ONE:
        return max(0.0, std_cdf(h) + std_cdf(k) - 1.0)

    # (h^2 - 2 h k t + k^2) / (2 (1 - t^2)) at t = sign cos(psi), split into
    # two terms that do not cancel as |t| -> 1
    sign = math.copysign(1.0, rho)
    d2 = (h - sign * k) ** 2
    hk = sign * h * k

    def integrand(psi):
        s = math.sin(psi)
        return math.exp(-0.5 * d2 / (s * s) - hk / (1.0 + math.cos(psi)))

    val, err = _angle_quad(integrand, rho)
    val *= sign
    if err > 1e-10:
        raise QuadratureNonConvergenceError(
            f"bivariate cdf quadrature error {err:.2e} at rho={rho}"
        )
    res = std_cdf(h) * std_cdf(k) + val / (2.0 * math.pi)
    return min(1.0, max(0.0, res))


# ----------------------------------------------------------------------------
# trivariate cdf (Plackett 1954; Genz 2004) and rectangles

# Relative error allowed for each term of a trivariate cdf in its error
# estimate: ten times the relative tolerance the quadratures are run to.
_TVN_REL_ERR = 1e-11


def _singular_gap(rho: float) -> float:
    """Bound sqrt(1 - |rho|) / pi on the gap between Phi2(h, k; rho) and its
    limit at |rho| = 1, where :func:`bvn_cdf` takes that limit; else 0."""
    a = 1.0 - abs(rho)
    return math.sqrt(a) / math.pi if a <= _RHO_ONE else 0.0


def _bvn_with_error(h: float, k: float, rho: float) -> tuple[float, float]:
    """:func:`bvn_cdf` and an error estimate, relative to both of its terms."""
    val = bvn_cdf(h, k, rho)
    return val, _TVN_REL_ERR * (val + std_cdf(h) * std_cdf(k)) + _singular_gap(rho)


def _cond_cdf(num: float, var: float) -> float:
    """Phi(num / sqrt(var)); the step at 0 when the variance vanishes."""
    if var > 0.0:
        return std_cdf(num / math.sqrt(var))
    return 1.0 if num >= 0.0 else 0.0


def _tvn_cdf(h, R: np.ndarray) -> tuple[float, float]:
    """``P(X <= h)`` for a standard trivariate normal with correlation ``R``,
    and an absolute error estimate.

    Plackett's identity along the path that scales the correlations of
    coordinate 1 by ``t`` in [0, 1], with (2, 3) the most correlated pair so
    that every matrix on the path is positive semidefinite:

        Phi3(h; R) = Phi(h1) Phi2(h2, h3; r23)
                     + int_0^1 r12 phi2(h1, h2; t r12) Phi(u3(t))
                             + r13 phi2(h1, h3; t r13) Phi(u2(t)) dt,

    ``u_k(t)`` being the standardized ``h_k`` given the other two at ``t``.
    Each term is integrated over the angle of its correlation, as in
    :func:`bvn_cdf`, to a relative 1e-12 with no absolute floor, so tiny
    orthants keep their relative accuracy.  The estimate is 1e-11 relative
    to the size of each term plus quadrature's own estimate; where a
    correlation is taken as +-1 it adds the bound sqrt(1 - |rho|) / pi on
    the gap to that limit.
    """
    if any(x == -np.inf for x in h):
        return 0.0, 0.0
    keep = [i for i in range(3) if h[i] < np.inf]
    if len(keep) < 3:
        if not keep:
            return 1.0, 0.0
        if len(keep) == 1:
            return std_cdf(h[keep[0]]), 0.0
        i, j = keep
        return _bvn_with_error(h[i], h[j], float(R[i, j]))
    # coordinate 1 is the one outside the most correlated pair; R[m - 2, m - 1]
    # correlates the two coordinates other than m
    i = max(range(3), key=lambda m: abs(R[m - 2, m - 1]))
    j, k = (i + 1) % 3, (i + 2) % 3
    h1, h2, h3 = float(h[i]), float(h[j]), float(h[k])
    r12, r13, r23 = float(R[i, j]), float(R[i, k]), float(R[j, k])
    if abs(r23) >= 1.0 - _RHO_ONE:
        # x3 = +-x2: a bivariate cdf of (x1, x2)
        gap = _singular_gap(r23)
        if r23 > 0.0:
            val, err = _bvn_with_error(h1, min(h2, h3), r12)
            return val, err + gap
        if h2 <= -h3:
            return 0.0, gap
        v1, e1 = _bvn_with_error(h1, h2, r12)
        v2, e2 = _bvn_with_error(h1, -h3, r12)
        return max(0.0, v1 - v2), e1 + e2 + gap
    p1 = std_cdf(h1)
    v23, e23 = _bvn_with_error(h2, h3, r23)
    base, base_err = p1 * v23, p1 * e23
    if r12 == 0.0 and r13 == 0.0:
        return base, base_err
    s23 = (1.0 - r23) * (1.0 + r23)
    # r12^2 + r13^2 - 2 r12 r13 r23, free of cancellation near |r23| = 1
    if r23 >= 0.0:
        q = (r12 - r13) ** 2 + 2.0 * r12 * r13 * (1.0 - r23)
    else:
        q = (r12 + r13) ** 2 - 2.0 * r12 * r13 * (1.0 + r23)

    def path_term(hx, hy, hz, rxy, rxz):
        """2 pi times the integral over t of rxy phi2(hx, hy; t rxy) Phi(uz(t)),
        run as t rxy = sign cos(psi) as in :func:`bvn_cdf`, and its error."""
        if rxy == 0.0:
            return 0.0, 0.0
        sign = math.copysign(1.0, rxy)
        d2 = (hx - sign * hy) ** 2
        hxy = sign * hx * hy

        def integrand(psi):
            c, s = math.cos(psi), math.sin(psi)
            a, om = sign * c, s * s
            t = c / abs(rxy)
            b = t * rxz
            dens = math.exp(-0.5 * d2 / om - hxy / (1.0 + c))
            num = hz * om - (b - a * r23) * hx - (r23 - a * b) * hy
            return dens * _cond_cdf(num, om * (s23 - t * t * q))

        val, err = _angle_quad(integrand, rxy)
        return sign * val, err

    v2, e2 = path_term(h1, h2, h3, r12, r13)
    v3, e3 = path_term(h1, h3, h2, r13, r12)
    val = (v2 + v3) / (2.0 * math.pi)
    err = (e2 + e3) / (2.0 * math.pi)
    return (min(1.0, max(0.0, base + val)),
            base_err + _TVN_REL_ERR * (abs(v2) + abs(v3)) / (2.0 * math.pi) + err)


def _tvn_prob(R: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[float, float]:
    """Trivariate rectangle probability by inclusion-exclusion over the
    corners whose lower limits are finite; the error estimates add up."""
    corners = [((h, 1.0), (l, -1.0)) if l > -np.inf else ((h, 1.0),)
               for l, h in zip(lo, hi)]
    prob = err = 0.0
    for corner in itertools.product(*corners):
        val, e = _tvn_cdf([h for h, _ in corner], R)
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
    L, lo, hi = _reordered_cholesky(R, lo, hi)
    n = R.shape[0]
    if L[0, 0] > 0:
        c0, d0 = std_cdf(lo[0] / L[0, 0]), std_cdf(hi[0] / L[0, 0])
    else:
        # a deterministic coordinate: the whole unit interval or nothing
        c0, d0 = 0.0, float(lo[0] <= 0.0 <= hi[0])
    q, n_pts = _lattice_generator(n - 1, cfg.sample_count)
    idx = np.arange(1, n_pts + 1)
    rng = np.random.default_rng(cfg.seed)
    estimates = np.empty(cfg.replicates)
    y = np.zeros((n - 1, n_pts))
    for r in range(cfg.replicates):
        shift = rng.random(n - 1)
        c = np.full(n_pts, c0)
        dc = np.full(n_pts, d0 - c0)
        pv = dc.copy()
        for i in range(1, n):
            z = q[i - 1] * idx + shift[i - 1]
            z -= np.floor(z)
            x = np.abs(2.0 * z - 1.0)
            u = np.clip(c + x * dc, 1e-320, 1.0 - 1e-16)
            y[i - 1, :] = np.where(dc > 0.0, ndtri(u), 0.0)
            s = L[i, :i] @ y[:i, :]
            ct = L[i, i]
            if ct > 0.0:
                # ndtr(-inf) = 0 and ndtr(inf) = 1 exactly: skip it on +-inf limits
                c = ndtr((lo[i] - s) / ct) if lo[i] > -np.inf else 0.0
                d = ndtr((hi[i] - s) / ct) if hi[i] < np.inf else 1.0
            else:
                # conditionally deterministic: (c, d) = (0, 1) where the
                # point lies in the interval, (0, 0) where it does not
                c = 0.0
                d = ((lo[i] - s <= 0.0) & (hi[i] - s >= 0.0)).astype(float)
            dc = d - c
            pv = pv * dc
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
    sd = np.sqrt(np.diag(p.sigma))
    if np.any(sd <= 0.0):
        raise NotPSDError("scale matrix has a non-positive diagonal entry")
    with np.errstate(invalid="ignore"):
        lo = (box.lower - p.mu) / sd
        hi = (box.upper - p.mu) / sd
    # +-inf stays +-inf; no NaNs possible since sd > 0
    R = symmetrize(p.sigma / np.outer(sd, sd))
    np.fill_diagonal(R, 1.0)
    return sd, R, lo, hi


def mvn_prob(box: TruncationBox, p: NormalParams, cfg: QmcConfig = DEFAULT_QMC):
    """Rectangle probability ``P(lower <= X <= upper)`` and an absolute
    error estimate.

    dim 1: difference of cdf values (error 0); dim 2: deterministic bivariate
    cdf, each value to a relative 1e-12 (reported error 1e-14); dim 3:
    deterministic trivariate cdf (:func:`_tvn_cdf`) by inclusion-exclusion
    over the corners with finite lower limits, each to a relative 1e-12,
    reported error the sum over corners of 1e-11 relative to each term plus
    quadrature's own estimate; dim >= 4: randomized lattice QMC, error
    estimate 3x the standard error over replicates.  ``cfg`` is used only
    at dim >= 4.  The result is clamped to [0, 1] and is a pure function of
    ``(box, p, cfg)``.

    Coordinates whose standardized interval lies above 0 are reflected
    first, so every interval probability is formed on the side where the
    cdf is small: ``Phi(hi) - Phi(lo)`` is ``1 - 1 = 0`` once ``lo`` passes
    ~8.3.
    """
    if box.dim != p.dim:
        raise DimensionMismatchError("box and parameter dimensions differ")
    _record(p.dim)
    if box.is_unbounded():
        return 1.0, 0.0
    _, R, lo, hi = standardize(box, p)
    flip = lo > 0.0
    if np.any(flip):
        lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
        v = np.where(flip, -1.0, 1.0)
        R = R * np.outer(v, v)
    if p.dim == 1:
        prob = std_cdf(float(hi[0])) - std_cdf(float(lo[0]))
        return min(1.0, max(0.0, prob)), 0.0
    if p.dim == 2:
        rho = float(R[0, 1])
        prob = (
            bvn_cdf(hi[0], hi[1], rho)
            - bvn_cdf(lo[0], hi[1], rho)
            - bvn_cdf(hi[0], lo[1], rho)
            + bvn_cdf(lo[0], lo[1], rho)
        )
        return min(1.0, max(0.0, prob)), 1e-14
    if p.dim == 3:
        return _tvn_prob(R, lo, hi)
    return _qmc_prob(R, lo, hi, cfg)


def mvn_log_prob(box: TruncationBox, p: NormalParams, cfg: QmcConfig = DEFAULT_QMC) -> float:
    """log of a univariate interval probability, exact in log space (finite
    far beyond double underflow).

    Only dimension 1 is supported: the extreme-case corrections route every
    mass-zero situation through univariate log-probabilities.  ``cfg`` is
    unused (dim 1 is deterministic) and kept for the signature of
    :func:`mvn_prob`.
    """
    if box.dim != p.dim:
        raise DimensionMismatchError("box and parameter dimensions differ")
    if p.dim != 1:
        raise DimensionMismatchError(
            f"mvn_log_prob is univariate; got dimension {p.dim}")
    _record(1)
    _, _, lo, hi = standardize(box, p)
    return _interval_log_prob(float(lo[0]), float(hi[0]))
