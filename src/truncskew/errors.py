"""Exception types raised by the numeric layers.

Everything derives from :class:`TruncskewError` so callers can catch the
library as a whole; the concrete classes mirror the failure modes of the
matrix algebra (symmetry / definiteness), the integration kernels, and the
moment engines.
"""


class TruncskewError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(TruncskewError, ValueError):
    """Inputs have incompatible shapes or dimensions."""


class IndexOutOfRangeError(TruncskewError, IndexError):
    """A coordinate index is outside ``range(dim)``."""


class NotPSDError(TruncskewError, ValueError):
    """A matrix required to be positive semi-definite is not (within tolerance)."""


class SingularMatrixError(TruncskewError, ValueError):
    """A matrix required to be invertible is numerically singular."""


class SingularBlockError(SingularMatrixError):
    """The conditioned-on block of a covariance matrix is numerically singular."""


class DegenerateBoxError(TruncskewError, ArithmeticError):
    """A truncation region carries numerically zero probability and the
    requested operation has no corrected fallback."""


class RejectionTooHighError(TruncskewError, ArithmeticError):
    """Monte Carlo rejection sampling cannot reach the target region."""


class QuadratureNonConvergenceError(TruncskewError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class DimensionTooLargeError(TruncskewError, ValueError):
    """The requested computation grows exponentially in dimension and the
    dimension exceeds the supported cap."""


class NegativeArgumentError(TruncskewError, ValueError):
    """A folded-distribution evaluation point has a negative coordinate."""
