"""Label-private randomized response for cluster-stratified experiments."""

from .accounting import (
    CalibrationError,
    PrivacyReport,
    calibrate_lambda,
    cluster_dp_eps_delta,
    cluster_dp_pure_eps,
)
from .estimation import tau_no_dp, tau_q
from .mechanisms import (
    cluster_dp,
    noisy_histogram,
    noisy_ht,
    read_release,
    write_release,
)
from .model import (
    Design,
    MechanismKind,
    MechanismParams,
    OutcomeSpace,
    PopulationDataset,
    PrivatizedRelease,
    ProjectedPrior,
    ValidationError,
    draw_design,
)
from .rng import RngStreams
from .simdata import (
    GmmConfig,
    GraphPopConfig,
    gen_gmm,
    gen_graph_population,
    ingest_csv,
    quantize,
    subsample,
)
from .variance import (
    VarianceReport,
    a_of_x,
    baseline_gaps,
    cluster_dp_variance_bound,
    homogeneity,
    ht_variance,
    uniform_prior_variance,
)

__version__ = "0.1.0"
