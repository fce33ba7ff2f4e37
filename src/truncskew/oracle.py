"""Seeded Monte Carlo and quadrature reference implementations.

Used by the test suite and the CLI's ``--verify`` mode only; nothing in the
analytic paths depends on this module.  The generator is Philox 4x64 keyed
by the user seed, so any implementation of that algorithm reproduces the
streams exactly.

The quadrature oracles keep scipy's QUADPACK on purpose: the library's own
kernels at dims 2 to 4 run an in-house Gauss-Kronrod rule, and a reference
built on a separate implementation stays independent of it.
``scipy.integrate`` is imported inside each oracle, so importing the
package does not load it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureNonConvergenceError, RejectionTooHighError
from .esn import EsnParams, sample_with_rng
from .moments import as_multi_index
from .mvn import TruncationBox

__all__ = [
    "McEstimate",
    "mc_tesn_moment",
    "mc_fesn_moment",
    "quad_oracle_1d",
    "quad_oracle_2d",
]

_PILOT = 10_000
_MIN_ACCEPT = 1e-4
_CHUNK = 1_000_000


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_effective: int
    seed: int


def _power_products(x: np.ndarray, kappa) -> np.ndarray:
    out = np.ones(x.shape[0])
    for j, k in enumerate(kappa):
        if k:
            out = out * x[:, j] ** k
    return out


def mc_tesn_moment(box: TruncationBox, p: EsnParams, kappa, n: int,
                   seed: int) -> McEstimate:
    """Rejection estimate of E[Y^kappa | box] (or of the box probability
    itself when kappa = 0, from the acceptance rate).

    A pilot of the first min(n, 10^4) draws guards against hopeless
    rejection regimes, which is exactly where the corrected analytic paths
    must be used instead.
    """
    return _mc_tesn_moments(box, p, [kappa], n, seed)[0]


def _mc_tesn_moments(box: TruncationBox, p: EsnParams, kappas, n: int,
                     seed: int) -> list[McEstimate]:
    """:func:`mc_tesn_moment` of each index in ``kappas``, from one sample."""
    kappas = [as_multi_index(kappa, p.dim) for kappa in kappas]
    rng = np.random.Generator(np.random.Philox(key=seed))
    n_total = min(n, _PILOT)
    pilot = sample_with_rng(p, n_total, rng)
    in_pilot = np.all((pilot >= box.lower) & (pilot <= box.upper), axis=1)
    if in_pilot.mean() < _MIN_ACCEPT:
        raise RejectionTooHighError(
            f"pilot acceptance {in_pilot.mean():.2e} below {_MIN_ACCEPT:g}; "
            "use the corrected analytic path"
        )
    accepted = [pilot[in_pilot]]
    n_acc = int(in_pilot.sum())
    while n_total < n:
        chunk = min(_CHUNK, n - n_total)
        draws = sample_with_rng(p, chunk, rng)
        keep = np.all((draws >= box.lower) & (draws <= box.upper), axis=1)
        accepted.append(draws[keep])
        n_acc += int(keep.sum())
        n_total += chunk
    x = np.concatenate(accepted, axis=0) if any(map(any, kappas)) else None

    def estimate(kappa) -> McEstimate:
        if not any(kappa):
            rate = n_acc / n_total
            se = math.sqrt(max(rate * (1.0 - rate), 1e-300) / n_total)
            return McEstimate(value=rate, std_error=se, n_effective=n_total, seed=seed)
        vals = _power_products(x, kappa)
        return McEstimate(value=float(vals.mean()), n_effective=len(vals), seed=seed,
                          std_error=float(vals.std(ddof=1) / math.sqrt(len(vals))))

    return [estimate(kappa) for kappa in kappas]


def mc_fesn_moment(p: EsnParams, kappa, n: int, seed: int) -> McEstimate:
    """Plain Monte Carlo estimate of the folded moment E[|X|^kappa]."""
    kappa = as_multi_index(kappa, p.dim)
    rng = np.random.Generator(np.random.Philox(key=seed))
    total = 0.0
    total_sq = 0.0
    n_done = 0
    while n_done < n:
        chunk = min(_CHUNK, n - n_done)
        vals = _power_products(np.abs(sample_with_rng(p, chunk, rng)), kappa)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        n_done += chunk
    mean = total / n_done
    var = max(total_sq / n_done - mean * mean, 0.0)
    return McEstimate(
        value=mean,
        std_error=math.sqrt(var / n_done),
        n_effective=n_done,
        seed=seed,
    )


def quad_oracle_1d(f, a: float, b: float, tol: float = 1e-9) -> float:
    """Adaptive quadrature to ``tol`` absolute error."""
    from scipy.integrate import quad

    val, err = quad(f, a, b, epsabs=tol, epsrel=tol, limit=500)
    if err > 10.0 * max(tol, 1e-15):
        raise QuadratureNonConvergenceError(f"1-d quadrature error {err:.2e}")
    return val


def quad_oracle_2d(f, ax: float, bx: float, ay: float, by: float,
                   tol: float = 1e-6) -> float:
    """Adaptive 2-d quadrature of ``f(x, y)`` to ``tol`` absolute error."""
    from scipy.integrate import dblquad

    val, err = dblquad(lambda y, x: f(x, y), ax, bx, ay, by,
                       epsabs=tol, epsrel=tol)
    if err > 10.0 * tol:
        raise QuadratureNonConvergenceError(f"2-d quadrature error {err:.2e}")
    return val
