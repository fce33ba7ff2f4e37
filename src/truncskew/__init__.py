"""truncskew: moments of truncated and folded (extended skew-)normal laws.

Rectangle probabilities, arbitrary-order product moments, and first/second
moments for the multivariate normal and extended skew-normal families under
box truncation and componentwise folding, with extreme-case corrections and
a seeded Monte Carlo oracle.
"""

from .core import (
    PartitionIndex,
    conditional_normal,
    sym_sqrt,
)
from .errors import (
    DegenerateBoxError,
    DimensionMismatchError,
    DimensionTooLargeError,
    IndexOutOfRangeError,
    NegativeArgumentError,
    NotPSDError,
    QuadratureNonConvergenceError,
    RejectionTooHighError,
    SingularBlockError,
    SingularMatrixError,
    TruncskewError,
)
from .esn import (
    EsnDerived,
    EsnParams,
    NormalReduction,
    augment,
    esn_cdf,
    esn_conditional,
    esn_derive,
    esn_limit_params,
    esn_logpdf,
    esn_marginal,
    esn_mean_cov,
    esn_pdf,
    esn_sample,
    reduce_to_normal,
)
from .folded import (
    FoldedCrossWork,
    SignPattern,
    fesn_cdf,
    fesn_ik,
    fesn_mean_cov,
    fesn_mean_cov_orthant,
    fesn_moment,
    fesn_pdf,
    flip_params,
    folded_cross_work,
    sign_patterns,
)
from .moments import FirstTwoMoments, MultiIndex
from .mvn import (
    DEFAULT_QMC,
    IntegralCounter,
    NormalParams,
    QmcConfig,
    TruncationBox,
    bvn_cdf,
    count_integrals,
    log_std_cdf,
    mvn_log_prob,
    mvn_pdf,
    mvn_prob,
    std_cdf,
    std_pdf,
)
from .oracle import McEstimate, mc_fesn_moment, mc_tesn_moment, quad_oracle_1d, quad_oracle_2d
from .tesn import (
    TesnSession,
    edge_conditional,
    tesn_fk,
    tesn_fk_univariate,
    tesn_fk_via_normal,
    tesn_mean_cov,
    tesn_moment,
    tesn_moments,
    tesn_prob,
    tesn_prob_with_error,
)
from .tn import (
    TnMgfWork,
    TnSession,
    tn_first_two_corrected,
    tn_first_two_mgf,
    tn_fk,
    tn_mgf_work,
)

__version__ = "0.1.0"
