"""Multi-index utilities and the first-two-moments container."""

from dataclasses import dataclass

import numpy as np

from .config import settings
from .core import as_sym_matrix, as_vector, symmetrize
from .errors import DimensionMismatchError, DimensionTooLargeError

__all__ = ["MultiIndex", "as_multi_index", "FirstTwoMoments"]

# A product-moment multi-index kappa is a tuple of nonnegative ints, usable
# directly as a memoization key.
MultiIndex = tuple[int, ...]


def as_multi_index(kappa, dim: int) -> MultiIndex:
    """Validate and normalize a multi-index for a ``dim``-dimensional law."""
    k = tuple(int(v) for v in np.atleast_1d(np.asarray(kappa)))
    if len(k) != dim:
        raise DimensionMismatchError(f"multi-index length {len(k)} != dim {dim}")
    if any(v < 0 for v in k):
        raise DimensionMismatchError("multi-index entries must be nonnegative")
    if any(v > settings.max_moment_order for v in k):
        raise DimensionTooLargeError(
            f"per-coordinate moment order capped at {settings.max_moment_order}"
        )
    return k


@dataclass(frozen=True)
class FirstTwoMoments:
    """Mean vector, raw second-moment matrix E[XX'], and covariance.

    ``raw2 == cov + mean mean'`` holds by construction.  ``corrections``
    records which extreme-case reductions were applied (empty when none).
    """

    mean: np.ndarray
    raw2: np.ndarray
    cov: np.ndarray
    corrections: tuple[str, ...] = ()

    def __post_init__(self):
        mean = as_vector(self.mean)
        raw2 = as_sym_matrix(self.raw2, dim=mean.shape[0])
        cov = as_sym_matrix(self.cov, dim=mean.shape[0])
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "raw2", raw2)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "corrections", tuple(self.corrections))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_mean_cov(cls, mean, cov, corrections=()) -> "FirstTwoMoments":
        mean = as_vector(mean)
        cov = symmetrize(np.asarray(cov, dtype=float))
        return cls(mean=mean, raw2=cov + np.outer(mean, mean), cov=cov,
                   corrections=tuple(corrections))
