"""Library-wide numeric tolerances, caps and the shift switch point.

A single mutable instance, :data:`settings`, is consulted by the numeric
modules, and every field is read somewhere as ``settings.<field>``.  The
switch point is read only by :func:`~truncskew.esn.esn_derive`, which
decides there whether a law keeps its hidden coordinate.  A law runs
``esn_derive`` once, on first use of ``EsnParams.derived``, so the fields it
reads (``tau_tilde_limit``, and ``psd_rel_tol`` through the matrix roots)
apply to laws first derived after a change.  Tests that need to probe edge
behaviour may temporarily override fields; production callers normally
never touch it.
"""

from dataclasses import dataclass


@dataclass
class Settings:
    # Relative tolerance below which negative eigenvalues are clamped to zero
    # and above which a matrix is rejected as not PSD.
    psd_rel_tol: float = 1e-10

    # Condition-number cap for conditioned-on covariance blocks.
    max_block_condition: float = 1e14

    # A coordinate is "out of bounds" when its marginal interval probability
    # (evaluated in log space) falls below this.
    out_of_bounds_eps: float = 1e-12

    # Below this value of the standardized shift, extended skew-normal
    # computations drop the hidden coordinate for the limiting normal.
    tau_tilde_limit: float = -35.0

    # Per-coordinate cap on moment order in the recurrences.
    max_moment_order: int = 8

    # Cap on dimension for 2**p sign-pattern sums.
    orthant_sum_max_dim: int = 12


settings = Settings()
