"""riskcdf: risk-sensitive loss analysis from a single empirical CDF.

Estimate loss CDFs, evaluate whole families of Holder risk functionals on
them (distortion, spectral, OCE, moment composites), certify the estimates
with uniform-convergence bounds driven by class complexity (finite class,
permutation complexity, growth numbers), and train models by sorted-loss
distortion risk minimization.
"""

from .bounds import (
    CERTIFICATE_METHODS,
    BoundCertificate,
    certificate,
    certificate_finite_class,
    monte_carlo_en,
    risk_error_bound,
)
from .cdf import (
    EmpiricalCDF,
    build_cdf,
    moment,
    sup_norm_distance,
    wasserstein1,
)
from .data import load_loss_table, toy_blobs
from .errors import ToolkitError
from .models import LossModel, finite_difference_check, init_model
from .optim import (
    TrainTrace,
    distortion_gradient,
    estimate_beta,
    noisy_gd_step,
    stationarity_report,
    train,
)
from .permcomplexity import (
    LossMatrix,
    exact_min_permutations,
    greedy_min_permutations,
    monte_carlo_permutation_complexity,
    weak_order,
)
from .risks import (
    DistortionSpec,
    OceSpec,
    RiskValue,
    cvar,
    cvar_distortion,
    cvar_spectrum,
    distortion_risk,
    identity_distortion,
    inverted_oce_risk,
    mean_variance,
    oce_lipschitz_constant,
    oce_risk,
    spectral_risk,
)

__version__ = "0.1.0"
