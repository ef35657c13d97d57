"""Stochastic steepest descent under matrix norms, with max-margin
references and an experiment harness for implicit-bias studies."""

from .linalg import (
    ENTRYWISE,
    SCHATTEN,
    NormSpec,
    dual_norm,
    frobenius_cosine,
    jacobi_svd,
    matrix_norm,
    newton_schulz_polar,
)
from .model import (
    ALL,
    CROSS_ENTROPY,
    EXPONENTIAL,
    Dataset,
    LossOverflowError,
    MarginReport,
    grad,
    load_dataset,
    load_matrix,
    loss,
    margin_report,
    proxy_g,
    save_dataset,
    save_matrix,
)
from .steepest import steepest_map
from .optimizer import (
    MarginThresholds,
    OptimizerConfig,
    Schedule,
    ScheduleConstants,
    TrainState,
    TrainingError,
    effective_margin_thresholds,
    init_state,
    reshuffle,
    run,
    schedule_constants,
    step,
)
from .reference import (
    MaxMarginNonConvergence,
    MaxMarginSolution,
    bias_matrix,
    canonical_update_matrix,
    max_margin,
)
from .data import GaussianSpec, SeparabilityError, SkewedSpec, gen_gaussian, gen_skewed
from .harness import (
    CSV_HEADER,
    ConfigError,
    SlopeFit,
    fit_rate,
    persample_cmd,
    read_csv,
    sweep_cmd,
    train_cmd,
)

__version__ = "0.1.0"
