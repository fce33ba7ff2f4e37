"""Reference values for the benchmark tasks.

Routes, in order of preference:

* ``quad`` (p <= 2): `quad_oracle_1d` / `quad_oracle_2d` applied to an ESN
  density written here from its definition with scipy, so nothing of the
  library's reduction or rectangle kernel is involved;
* ``scipy-mvn`` (rectangle probabilities at p >= 3): the hidden-truncation
  identity P(a <= Y <= b) = P(a <= X <= b, X_0 <= tau_tilde) / Phi(tau_tilde),
  with the (p+1)-dimensional probability from
  ``scipy.stats.multivariate_normal.cdf(..., lower_limit=...)`` at a tight
  ``abseps``; the uncertainty adds its gap to the Gauss-Legendre value;
* ``gauss-legendre`` (folded tasks, and moments at p = 3): a tensor-product
  Gauss-Legendre rule on the same density, each infinite bound cut 12 sd
  beyond the location; its uncertainty is the change from a rule with 2/3 of
  the nodes per axis;
* ``tallis`` (mean and covariance at p >= 4): the Tallis formulas for the
  (p+1)-dimensional hidden normal, every rectangle probability from scipy at
  ``abseps`` 1e-8; the uncertainty is the first-order error bound alone.
  ``make_pool.py`` records the gap to the ``engines-16x`` value beside it
  but never lets it widen the tolerance, because those engines are the
  library under test;
* ``engines-16x`` (other moments at p >= 4): both moment engines of the library at
  16x the default points per replicate and QMC seed + 1, and one engine again
  at seed + 2.  The engines agree to rounding (they share the rectangle
  kernel), so the uncertainty is dominated by the gap between the two
  randomizations.

Each reference is ``{"value": [...], "u": [...], "route": str}`` with ``u``
the reference's own uncertainty per scalar.
"""

import math

import numpy as np
from scipy.special import log_ndtr, ndtr
from scipy.stats import multivariate_normal

from execute import run_task

QUAD_TOL_1D = 1e-11
QUAD_TOL_2D = 1e-10
GL_NODES = {1: 240, 2: 120, 3: 48}
GL_CUT_SD = 12.0
SCIPY_ABSEPS = 1e-8
TALLIS_ABSEPS = 1e-8
TALLIS_MAXPTS = 20_000_000
REF_SAMPLE_FACTOR = 16


# ----------------------------------------------------------------------------
# the ESN law, from its definition


class Esn:
    """f(y) = phi_p(y; mu, Sigma) Phi(tau + lam' Sigma^{-1/2} (y - mu)) / xi."""

    def __init__(self, params):
        self.mu = np.asarray(params["mu"], float)
        self.sigma = np.asarray(params["sigma"], float)
        self.lam = np.asarray(params["lambda"], float)
        self.tau = float(params["tau"])
        self.p = self.mu.shape[0]
        w, v = np.linalg.eigh(self.sigma)
        self.varphi = (v / np.sqrt(w)) @ v.T @ self.lam      # Sigma^{-1/2} lam
        self.prec = np.linalg.inv(self.sigma)
        self.lam_norm2 = 1.0 + float(self.lam @ self.lam)
        self.tau_tilde = self.tau / math.sqrt(self.lam_norm2)
        self.log_xi = float(log_ndtr(self.tau_tilde))
        self.log_norm = -0.5 * (self.p * math.log(2.0 * math.pi)
                                + float(np.sum(np.log(w)))) - self.log_xi
        self.sd = np.sqrt(np.diag(self.sigma))

    def logpdf(self, y) -> float:
        d = np.asarray(y, float) - self.mu
        return (self.log_norm - 0.5 * float(d @ self.prec @ d)
                + float(log_ndtr(self.tau + float(self.varphi @ d))))

    def logpdf_rows(self, y: np.ndarray) -> np.ndarray:
        d = y - self.mu
        quad = np.einsum("ij,jk,ik->i", d, self.prec, d)
        return self.log_norm - 0.5 * quad + log_ndtr(self.tau + d @ self.varphi)

    def hidden_normal(self):
        """Mean and covariance of (X, X_0) in the hidden-truncation
        representation Y = X | X_0 <= tau_tilde."""
        w, v = np.linalg.eigh(self.sigma)
        delta = (v * np.sqrt(w)) @ v.T @ self.lam / math.sqrt(self.lam_norm2)
        cov = np.empty((self.p + 1, self.p + 1))
        cov[:self.p, :self.p] = self.sigma
        cov[:self.p, self.p] = cov[self.p, :self.p] = -delta
        cov[self.p, self.p] = 1.0
        return np.append(self.mu, 0.0), cov


# ----------------------------------------------------------------------------
# quadrature route, boxes at p <= 2


def _grid(law: Esn, lower, upper):
    """A coarse 9^p grid over the box, clipped to 8 sd around mu."""
    lo = np.maximum(lower, law.mu - 8.0 * law.sd)
    hi = np.minimum(upper, law.mu + 8.0 * law.sd)
    lo, hi = np.where(lo < hi, lo, lower), np.where(lo < hi, hi, upper)
    lo = np.where(np.isfinite(lo), lo, law.mu - 8.0 * law.sd)
    hi = np.where(np.isfinite(hi), hi, law.mu + 8.0 * law.sd)
    axes = [np.linspace(l, h, 9) for l, h in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, law.p)


def _scale(law: Esn, lower, upper) -> float:
    """Largest log density on the coarse grid; the integrands of ratios are
    divided by exp of it so that boxes of tiny mass stay representable."""
    return float(law.logpdf_rows(_grid(law, lower, upper)).max())


def _integrate(oracle, law: Esn, g, lower, upper, shift: float):
    """int_box g(y) exp(logpdf(y) - shift) dy with its error bound.  ``g``
    is divided by its largest magnitude on the coarse grid first, so the
    quadrature tolerance is relative to the integrand's size."""
    gs = max(1.0, max(abs(g(y)) for y in _grid(law, lower, upper)))
    if law.p == 1:
        tol = QUAD_TOL_1D
        val = oracle.quad_oracle_1d(
            lambda x: g((x,)) / gs * math.exp(law.logpdf((x,)) - shift),
            lower[0], upper[0], tol=tol)
    else:
        tol = QUAD_TOL_2D
        val = oracle.quad_oracle_2d(
            lambda x, y: g((x, y)) / gs * math.exp(law.logpdf((x, y)) - shift),
            lower[0], upper[0], lower[1], upper[1], tol=tol)
    return val * gs, tol * gs * max(1.0, abs(val))


def _power(kappa):
    return lambda y: math.prod(v ** k for v, k in zip(y, kappa))


def _unit(p, *idx):
    k = [0] * p
    for i in idx:
        k[i] += 1
    return tuple(k)


def _ratio(num, den):
    (n, un), (d, ud) = num, den
    return n / d, (un + abs(n / d) * ud) / d


def _quadrants(p):
    """Orthants of R^p as (lower, upper) pairs."""
    out = []
    for signs in np.ndindex(*(2,) * p):
        lo = np.array([0.0 if s == 0 else -np.inf for s in signs])
        hi = np.array([np.inf if s == 0 else 0.0 for s in signs])
        out.append((lo, hi))
    return out


def _quad_reference(oracle, task):
    law = Esn(task["params"])
    p = law.p
    kind = task["kind"]
    if kind in ("prob", "cdf"):
        if kind == "prob":
            lower, upper = (np.asarray(b, float) for b in task["box"])
        else:
            lower, upper = np.full(p, -np.inf), np.asarray(task["y"], float)
        val, u = _integrate(oracle, law, lambda y: 1.0, lower, upper, 0.0)
        return [val], [u]
    if kind in ("moment", "meancov"):
        lower, upper = (np.asarray(b, float) for b in task["box"])
        shift = _scale(law, lower, upper)
        den = _integrate(oracle, law, lambda y: 1.0, lower, upper, shift)

        def moment(kappa):
            return _ratio(_integrate(oracle, law, _power(kappa), lower, upper, shift), den)

        if kind == "moment":
            v, u = moment(task["kappa"])
            return [v], [u]
        return _mean_cov(p, moment)
    if kind == "pdf":
        return [math.exp(law.logpdf(task["y"]))], [1e-15]
    raise ValueError(f"no quadrature reference for {kind!r}")


def _mean_cov(p, moment):
    """Mean and upper-triangle covariance from a moment function returning
    (value, uncertainty) for a multi-index."""
    means = [moment(_unit(p, i)) for i in range(p)]
    vals = [m for m, _ in means]
    us = [u for _, u in means]
    for i in range(p):
        for j in range(i, p):
            raw, u_raw = moment(_unit(p, i, j))
            vals.append(raw - means[i][0] * means[j][0])
            us.append(u_raw + abs(means[i][0]) * means[j][1]
                      + abs(means[j][0]) * means[i][1])
    return vals, us


# ----------------------------------------------------------------------------
# tensor Gauss-Legendre route


def _gl_rule(law: Esn, lower, upper, n: int):
    """Nodes (rows) and weights of the n^p-point rule on the box, with each
    infinite bound cut GL_CUT_SD sd beyond the location."""
    cut = GL_CUT_SD * law.sd
    lo = np.where(np.isfinite(lower), lower, np.minimum(upper, law.mu) - cut)
    hi = np.where(np.isfinite(upper), upper, np.maximum(lower, law.mu) + cut)
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    nodes = [l + h * (x + 1.0) for l, h in zip(lo, half)]
    weights = [h * w for h in half]
    y = np.stack(np.meshgrid(*nodes, indexing="ij"), -1).reshape(-1, law.p)
    wt = weights[0]
    for w_i in weights[1:]:
        wt = np.multiply.outer(wt, w_i)
    return y, wt.reshape(-1)


def _gl_moments(law: Esn, boxes, kappas, n: int, folded: bool) -> np.ndarray:
    """Integrals of y^kappa f(y) (|y^kappa| if folded) summed over boxes;
    row 0 is the mass, the other rows follow ``kappas``."""
    out = np.zeros(len(kappas) + 1)
    for lower, upper in boxes:
        y, wt = _gl_rule(law, lower, upper, n)
        dens = wt * np.exp(law.logpdf_rows(y))
        out[0] += dens.sum()
        for r, kappa in enumerate(kappas, start=1):
            g = np.prod(y ** np.asarray(kappa), axis=1)
            out[r] += (dens * (np.abs(g) if folded else g)).sum()
    return out


def _gl_values(task, n: int) -> np.ndarray:
    law = Esn(task["params"])
    p, kind = law.p, task["kind"]
    folded = kind in ("fmoment", "fmeancov")
    if folded:
        boxes = _quadrants(p)
    elif kind == "cdf":
        boxes = [(np.full(p, -np.inf), np.asarray(task["y"], float))]
    else:
        boxes = [tuple(np.asarray(b, float) for b in task["box"])]
    if kind in ("prob", "cdf"):
        return _gl_moments(law, boxes, [], n, False)
    if kind in ("moment", "fmoment"):
        kappas = [tuple(task["kappa"])]
    else:
        kappas = ([_unit(p, i) for i in range(p)]
                  + [_unit(p, i, j) for i in range(p) for j in range(i, p)])
    ints = _gl_moments(law, boxes, kappas, n, folded)
    vals = ints[1:] if folded else ints[1:] / ints[0]
    if kind in ("moment", "fmoment"):
        return vals
    mean = vals[:p]
    raw = iter(vals[p:])
    cov = [next(raw) - mean[i] * mean[j] for i in range(p) for j in range(i, p)]
    return np.concatenate([mean, cov])


def _gl_reference(task):
    n = GL_NODES[task["p"]]
    fine = _gl_values(task, n)
    coarse = _gl_values(task, (2 * n) // 3)
    u = np.abs(fine - coarse) + 1e-13 * np.maximum(1.0, np.abs(fine))
    return fine.tolist(), u.tolist()


# ----------------------------------------------------------------------------
# scipy multivariate-normal route, rectangle probabilities at p >= 3


def _scipy_reference(task):
    law = Esn(task["params"])
    p = law.p
    if task["kind"] == "prob":
        lower, upper = (np.asarray(b, float) for b in task["box"])
    else:
        lower, upper = np.full(p, -np.inf), np.asarray(task["y"], float)
    mean, cov = law.hidden_normal()
    joint = multivariate_normal.cdf(
        np.append(upper, law.tau_tilde), mean, cov,
        lower_limit=np.append(lower, -np.inf),
        abseps=SCIPY_ABSEPS, releps=0.0, maxpts=4_000_000,
        rng=np.random.default_rng(0))
    xi = math.exp(law.log_xi)
    value = float(joint) / xi
    gl, _ = _gl_reference(task)
    return [value], [SCIPY_ABSEPS / xi + abs(value - gl[0])]


# ----------------------------------------------------------------------------
# Tallis route, mean and covariance at p >= 4


def _rect_prob(mean, cov, lower, upper) -> float:
    """P(lower <= X <= upper), X ~ N(mean, cov), by scipy; 1 in dimension 0."""
    if len(mean) == 0:
        return 1.0
    if len(mean) == 1:
        sd = math.sqrt(cov[0, 0])
        return float(ndtr((upper[0] - mean[0]) / sd) - ndtr((lower[0] - mean[0]) / sd))
    return float(multivariate_normal.cdf(
        upper, mean, cov, lower_limit=lower, abseps=TALLIS_ABSEPS, releps=0.0,
        maxpts=TALLIS_MAXPTS, rng=np.random.default_rng(0)))


def _given(cov, a, b, idx, x):
    """Density of X_idx at x times the probability that the other
    coordinates lie in the box given X_idx = x, and the error bound of that
    product when the probability is off by TALLIS_ABSEPS."""
    if not np.all(np.isfinite(x)):
        return 0.0, 0.0
    idx = list(idx)
    rest = [k for k in range(len(a)) if k not in idx]
    s11 = cov[np.ix_(idx, idx)]
    s21 = cov[np.ix_(rest, idx)]
    coef = np.linalg.solve(s11, s21.T).T
    dens = float(np.exp(-0.5 * x @ np.linalg.solve(s11, x))
                 / math.sqrt(np.linalg.det(2.0 * math.pi * s11)))
    prob = _rect_prob(coef @ x, cov[np.ix_(rest, rest)] - coef @ s21.T, a[rest], b[rest])
    return dens * prob, dens * (TALLIS_ABSEPS if rest else 0.0)


def truncated_normal_moments(mean, cov, lower, upper):
    """Mean and covariance of N(mean, cov) truncated to [lower, upper] by the
    Tallis (1961) formulas as written by Manjunath and Wilhelm (2012), each
    rectangle probability from scipy, with a first-order error bound for
    rectangle probabilities off by TALLIS_ABSEPS."""
    n = len(mean)
    a, b = lower - mean, upper - mean
    alpha = _rect_prob(np.zeros(n), cov, a, b)
    fa, fb, ua, ub = (np.zeros(n) for _ in range(4))
    for k in range(n):
        fa[k], ua[k] = _given(cov, a, b, [k], np.array([a[k]]))
        fb[k], ub[k] = _given(cov, a, b, [k], np.array([b[k]]))
    h, uh = np.zeros((n, n)), np.zeros((n, n))
    for k in range(n):
        for q in range(k + 1, n):
            for xk, xq, sign in ((a[k], a[q], 1), (a[k], b[q], -1),
                                 (b[k], a[q], -1), (b[k], b[q], 1)):
                v, u = _given(cov, a, b, [k, q], np.array([xk, xq]))
                h[k, q] += sign * v
                uh[k, q] += u
    h, uh = h + h.T, uh + uh.T
    aa = np.where(np.isfinite(a), a, 0.0)
    bb = np.where(np.isfinite(b), b, 0.0)
    d, ud = aa * fa - bb * fb, np.abs(aa) * ua + np.abs(bb) * ub
    diag = np.diag(cov)
    m, um = cov @ (fa - fb), np.abs(cov) @ (ua + ub)
    second, us = np.zeros((n, n)), np.zeros((n, n))
    for k in range(n):
        ck = cov[:, k]
        second += np.outer(ck, ck) * d[k] / diag[k]
        us += np.abs(np.outer(ck, ck)) * ud[k] / diag[k]
        w = cov - np.outer(ck, cov[k, :]) / diag[k]       # w[j, q]
        w[:, k] = 0.0
        second += np.outer(ck, w @ h[k])
        us += np.abs(np.outer(ck, np.abs(w) @ uh[k]))
    mean_t = m / alpha
    second = cov + 0.5 * (second + second.T) / alpha
    # relative error of alpha enters every ratio
    u_mean = (um + np.abs(m) * TALLIS_ABSEPS / alpha) / alpha
    u_second = (us + np.abs(second - cov) * TALLIS_ABSEPS) / alpha
    cov_t = second - np.outer(mean_t, mean_t)
    u_cov = u_second + np.abs(np.outer(mean_t, u_mean)) + np.abs(np.outer(u_mean, mean_t))
    return mean + mean_t, cov_t, u_mean, u_cov


def _tallis_reference(task):
    law = Esn(task["params"])
    p = law.p
    mean, cov = law.hidden_normal()
    lower = np.append(np.asarray(task["box"][0], float), -np.inf)
    upper = np.append(np.asarray(task["box"][1], float), law.tau_tilde)
    m, c, um, uc = truncated_normal_moments(mean, cov, lower, upper)
    iu = np.triu_indices(p)
    return (np.concatenate([m[:p], c[:p, :p][iu]]).tolist(),
            np.concatenate([um[:p], uc[:p, :p][iu]]).tolist())


# ----------------------------------------------------------------------------
# two-engine route, moments at p >= 3

_OTHER_METHOD = {
    "moment": ("normal-reduction", "recurrence"),
    "meancov": ("normal-reduction", "recurrence"),
    "fmoment": ("orthant-sum", "normal-reduction"),
    "fmeancov": ("explicit", "orthant-sum"),
}


def engines_reference(ts, task):
    """Both engines at 16x the default points and QMC seed + 1, and the
    default engine again at seed + 2.  The engines share the rectangle kernel
    and agree to rounding, so the uncertainty comes mainly from the second
    randomization: the seed gap plus half the engine gap."""
    base = ts.DEFAULT_QMC

    def cfg(seed_offset):
        return ts.QmcConfig(sample_count=REF_SAMPLE_FACTOR * base.sample_count,
                            replicates=base.replicates, seed=base.seed + seed_offset,
                            target_abs_error=base.target_abs_error)

    m1, m2 = _OTHER_METHOD[task["kind"]]
    a = np.asarray(run_task(ts, task, cfg=cfg(1), method=m1))
    b = np.asarray(run_task(ts, task, cfg=cfg(1), method=m2))
    c = np.asarray(run_task(ts, task, cfg=cfg(2), method=m1))
    return combine_engines(a, b, c)


def combine_engines(a, b, c):
    """(value, u, detail) from the seed + 1 engine pair (a, b) and the
    seed + 2 run c."""
    pair = 0.5 * (a + b)
    value = 0.5 * (pair + c)
    u = 0.5 * np.abs(a - b) + np.abs(pair - c)
    detail = {"engine_gap": float(np.max(np.abs(a - b))),
              "seed_gap": float(np.max(np.abs(pair - c)))}
    return value.tolist(), u.tolist(), detail


def route_for(task) -> str:
    kind, p = task["kind"], task["p"]
    if kind == "pdf" or (p <= 2 and kind in ("prob", "cdf", "moment", "meancov")):
        return "quad"
    if kind in ("prob", "cdf"):
        return "scipy-mvn"
    if p <= 3:
        return "gauss-legendre"
    if kind == "meancov":
        return "tallis"
    return "engines-16x"


def reference(ts, task) -> dict:
    """Reference for one task; ``ts`` is the imported truncskew package."""
    route = route_for(task)
    detail = None
    if route == "quad":
        value, u = _quad_reference(ts.oracle, task)
    elif route == "scipy-mvn":
        value, u = _scipy_reference(task)
    elif route == "gauss-legendre":
        value, u = _gl_reference(task)
    elif route == "tallis":
        value, u = _tallis_reference(task)
    else:
        value, u, detail = engines_reference(ts, task)
    out = {"value": [float(v) for v in value], "u": [float(v) for v in u],
           "route": route}
    if detail is not None:
        out["detail"] = detail
    return out
