"""Joint training of black-box models with interpretable linear surrogates.

The package trains a dense network and a linear approximation of it in
tandem, steering the network with a per-step min-norm combination of its
predictive and fidelity gradients, and ships the baselines, metrics, and
experiment harness needed to measure the fidelity/performance trade-off.
"""

from .data import (
    CLASSIFICATION,
    ColumnSpec,
    Dataset,
    REGRESSION,
    Standardizer,
    binarize_label,
    dataset_from_csv,
    dataset_from_table,
    load_csv,
    load_idx,
    make_synthetic,
    one_hot,
    split,
    standardize,
    subset,
)
from .errors import (
    DataError,
    IdxFormatError,
    NumericError,
    ShapeError,
    TandemError,
)
from .harness import (
    ExperimentSpec,
    GnfSettings,
    ResultRow,
    ScatterPoint,
    emit_report,
    emit_scatter,
    load_experiment_spec,
    pareto_scan,
    resolve_dataset,
    run_experiment,
)
from .losses import (
    loss_distill,
    loss_point_fidelity,
    loss_pred,
    upstream_derivative,
)
from .metrics import (
    NeighborhoodSpec,
    f1_score,
    global_fidelity,
    gnf,
    make_neighborhood,
    mse_metric,
)
from .moo import (
    AlphaSolution,
    combine_direction,
    dominates,
    is_pareto_stationary,
    solve_alpha,
)
from .nn import (
    AdamState,
    Layer,
    MlpModel,
    adam_init,
    adam_step,
    flatten_params,
    forward_batch,
    init_mlp,
    load_mlp,
    mlp_backward,
    param_count,
    unflatten_params,
)
from .seeding import rng_for
from .surrogate import (
    FeatureImportance,
    LinearSurrogate,
    explain,
    load_surrogate,
    predict_batch,
    surrogate_grad,
)
from .trainers import (
    TrainConfig,
    TrainReport,
    fit_local_surrogate,
    run_method,
    run_methods,
    train_linear,
)

__version__ = "0.1.0"
