"""Distribution-adaptive prediction intervals for binary nominal inputs."""

from .bootstrap import (
    BootstrapModel,
    bootstrap_fit,
    bootstrap_predict_interval,
    bootstrap_predict_sigma,
)
from .distributions import (
    DistFamily,
    GammaParams,
    GaussianParams,
    fit_gamma,
    fit_gaussian,
    gamma_cdf,
    gamma_interval,
    gamma_inverse_cdf,
    gaussian_interval,
    t_quantile,
)
from .errors import (
    DapienError,
    DegenerateGroup,
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    EmptyGroup,
    EmptyInput,
    InvalidPrediction,
    InvalidRecord,
    InvalidTarget,
    LengthMismatch,
    NonConvergence,
    RaggedFeatures,
    TooFewGroups,
    TooFewSamples,
    ZeroRange,
)
from .grouping import (
    DistDataset,
    GroupedDataset,
    Records,
    Sample,
    as_records,
    build_dist_dataset,
    group_by_unique_input,
    mean_group_size,
)
from .metrics import EvaluationReport, cwc, evaluate, mpiw, nmpiw, picp
from .pipeline import (
    DapienModel,
    PredictionInterval,
    dapien_fit,
    dapien_predict_interval,
    dapien_predict_point,
    predict_params,
)
from .regressor import (
    Activation,
    HiddenLayerModel,
    LinearModel,
    TrainConfig,
    model_from_dict,
    predict,
    predict_batch,
    stratified_folds,
    train,
    train_positive,
)
from .synthdata import (
    GeneratorSpec,
    NoiseKind,
    SplitSpec,
    generate,
    group_split,
    read_csv,
    write_csv,
)

__version__ = "0.1.0"
