"""Dense symmetric-matrix algebra and index calculus shared by all modules.

Symmetric matrices are plain ``numpy`` arrays validated by the helpers here;
all functions are pure and never mutate their inputs.  Coordinate indices are
0-based throughout the library.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotPSDError,
    SingularBlockError,
)

__all__ = [
    "PartitionIndex",
    "as_vector",
    "as_sym_matrix",
    "symmetrize",
    "sym_sqrt",
    "sym_roots",
    "conditional_normal",
]


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Coerce to a float 1-d array, optionally checking its length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected length {dim}, got {arr.shape[0]}")
    return arr


_SYMMETRY_TOL = 1e-8

_PSD_REL_TOL = 1e-10  # relative size of a negative eigenvalue clamped to 0, not rejected
_MAX_BLOCK_CONDITION = 1e14  # condition-number cap for conditioned-on covariance blocks


def as_sym_matrix(S, dim: int | None = None) -> np.ndarray:
    """Coerce to a float symmetric 2-d array (scalars become 1x1).

    Raises if the input is not square or departs from symmetry by more
    than ``_SYMMETRY_TOL`` relative to its largest entry (at least 1); small
    asymmetries are averaged away so downstream code sees exact symmetry.
    """
    arr = np.asarray(S, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.shape[0]}")
    if arr.size == 0:
        return arr
    scale = max(1.0, float(np.max(np.abs(arr))))
    if np.max(np.abs(arr - arr.T)) > _SYMMETRY_TOL * scale:
        raise DimensionMismatchError("matrix is not symmetric")
    return symmetrize(arr)


def _unchecked(cls, *values):
    """The frozen dataclass ``cls`` with its fields set to ``values`` in
    order, skipping ``__post_init__``: the trusted constructor of objects
    derived from already-checked ones (no coercion, check or copy)."""
    self = object.__new__(cls)
    self.__dict__.update(zip(cls.__dataclass_fields__, values))
    return self


def symmetrize(S: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy, averaging with the transpose."""
    return 0.5 * (S + S.T)


@dataclass(frozen=True)
class PartitionIndex:
    """Complementary index lists splitting ``{0, ..., dim-1}``.

    ``kept`` are the coordinates that survive, ``removed`` the ones deleted
    or conditioned on.  Both are strictly increasing and disjoint.
    """

    kept: tuple[int, ...]
    removed: tuple[int, ...]

    def __post_init__(self):
        kept = tuple(int(i) for i in self.kept)
        removed = tuple(int(i) for i in self.removed)
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "removed", removed)
        both = kept + removed
        if sorted(both) != list(range(len(both))):
            raise IndexOutOfRangeError(
                f"kept {kept} and removed {removed} do not partition a range"
            )
        if list(kept) != sorted(kept) or list(removed) != sorted(removed):
            raise IndexOutOfRangeError("partition lists must be strictly increasing")

    @property
    def dim(self) -> int:
        return len(self.kept) + len(self.removed)

    @classmethod
    def dropping(cls, dim: int, removed) -> "PartitionIndex":
        removed = tuple(sorted(int(i) for i in removed))
        for i in removed:
            if not 0 <= i < dim:
                raise IndexOutOfRangeError(f"index {i} out of range for dim {dim}")
        kept = tuple(i for i in range(dim) if i not in removed)
        return cls(kept=kept, removed=removed)


def _psd_eigh(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a checked symmetric
    matrix; raises :class:`NotPSDError` if it is indefinite beyond the PSD
    tolerance."""
    w, V = np.linalg.eigh(S)
    wmax = max(float(w[-1]), 0.0)
    if float(w[0]) < -_PSD_REL_TOL * max(wmax, 1e-300):
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} (max {wmax:.3e})")
    return w, V


def sym_sqrt(S) -> np.ndarray:
    """Unique symmetric PSD square root, by eigendecomposition.

    Eigenvalues within the PSD tolerance of zero are clamped to zero so that
    nearly singular scale matrices remain usable; a genuinely indefinite
    input raises :class:`NotPSDError`.
    """
    return _sym_sqrt(as_sym_matrix(S))


def _sym_sqrt(S: np.ndarray) -> np.ndarray:
    """:func:`sym_sqrt` of a checked symmetric matrix."""
    w, V = _psd_eigh(S)
    return symmetrize((V * np.sqrt(np.clip(w, 0.0, None))) @ V.T)


def sym_roots(S) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_sqrt` and the symmetric inverse square root of a positive
    definite matrix, both from one eigendecomposition."""
    return _sym_roots(as_sym_matrix(S))


def _sym_roots(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_roots` of a checked symmetric matrix."""
    w, V = _psd_eigh(S)
    if float(w[0]) <= 0.0:
        raise NotPSDError("matrix is not positive definite")
    root = np.sqrt(w)
    return symmetrize((V * root) @ V.T), symmetrize((V / root) @ V.T)


def conditional_normal(mu, S, given: PartitionIndex, value) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the kept coordinates given the removed ones.

    For ``x ~ N(mu, S)`` partitioned by ``given``, returns the parameters of
    ``x[kept] | x[removed] = value``:

        mean = mu_1 + S_12 S_22^{-1} (value - mu_2)
        cov  = S_11 - S_12 S_22^{-1} S_21   (symmetrized)
    """
    mu = as_vector(mu)
    S = as_sym_matrix(S, dim=mu.shape[0])
    if given.dim != mu.shape[0]:
        raise DimensionMismatchError("partition does not match vector dimension")
    value = as_vector(value, dim=len(given.removed))
    k, r = list(given.kept), list(given.removed)
    if not r:
        return mu.copy(), S.copy()
    if not k:
        return np.empty(0), np.empty((0, 0))
    B, cov = _regression(S, k, r)
    return mu[k] + B @ (value - mu[r]), cov


def _regression(S: np.ndarray, k: list[int], r: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The library's one Gaussian regression, of the coordinates ``k`` on the
    non-empty ``r`` under a checked covariance: B = S_kr S_rr^{-1} and the
    residual covariance S_kk - B S_rk (symmetrized).  Raises
    :class:`SingularBlockError` where S_rr is numerically singular."""
    rows = S[r]
    S_rr = rows[:, r]
    # a finite non-zero 1x1 block has condition number exactly 1: skip the SVD
    well_conditioned = len(r) == 1 and S_rr[0, 0] != 0.0 and math.isfinite(S_rr[0, 0])
    if not well_conditioned and np.linalg.cond(S_rr) > _MAX_BLOCK_CONDITION:
        raise SingularBlockError("conditioned-on block is numerically singular")
    if not k:
        return np.empty((0, len(r))), np.empty((0, 0))
    S_rk = rows[:, k]
    # solve, not S_rk / S_rr: for 1x1 S_rr OpenBLAS multiplies by its reciprocal on 2+ columns
    B = np.linalg.solve(S_rr, S_rk).T
    return B, symmetrize(S[k][:, k] - B @ S_rk)


class _SliceGeometry:
    """The slices of a covariance ``S`` within one public call.  The node of
    the slice x_j holds the regression of the others on x_j, ``b = S[others,
    j] / S[j, j]``, and the residual covariance as its ``S``, which neither
    the side nor the point of the slice moves: both sides of a slice and
    their subtrees share it.  With the ``Delta`` and ``Gamma`` of a selection
    form, a node also holds the slice's ``s = sqrt(1 - Delta_j^2 / S_jj)``,
    ``Delta' = (Delta_others - b Delta_j) / s`` and ``Gamma'``, and
    ``companion`` is the geometry of Gamma.  The nodes given one
    ``regressions`` memo regress a covariance once per coordinate (the
    reflected laws of a folded sum repeat covariances)."""

    def __init__(self, S, Delta=None, Gamma=None, b=None, s: float = 1.0, regressions=None):
        self.S, self.Delta, self.Gamma, self.b, self.s = S, Delta, Gamma, b, s
        self._regressions = {} if regressions is None else regressions
        self._slices: dict[int, "_SliceGeometry"] = {}

    def slice(self, j: int) -> "_SliceGeometry":
        if j not in self._slices:
            others = [k for k in range(len(self.S)) if k != j]
            key = self.S.tobytes(), j
            if key not in self._regressions:
                self._regressions[key] = _regression(self.S, others, [j])
            B, S = self._regressions[key]
            Delta, Gamma, s = None, None, 1.0
            if self.Delta is not None:
                s = math.sqrt(1.0 - self.Delta[j] ** 2 / self.S[j, j])
                Delta = (self.Delta[others] - B[:, 0] * self.Delta[j]) / s
                Gamma = symmetrize(S - np.outer(Delta, Delta))
            self._slices[j] = _SliceGeometry(S, Delta, Gamma, B[:, 0], s, self._regressions)
        return self._slices[j]

    @cached_property
    def companion(self) -> "_SliceGeometry":
        return _SliceGeometry(self.Gamma, regressions=self._regressions)
