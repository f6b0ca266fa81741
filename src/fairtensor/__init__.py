"""Fairness-aware tensor and matrix factorization recommenders.

Six model variants over implicit user -> curator feedback under topics:
ordinary completion (OTC/OMC), parity-regularised completion (RTC/RMC), and
fairness-aware factorization with isolated sensitive dimensions (FT/FM),
plus the data pipeline (negative sampling, splitting, synthetic biased
datasets), the quality/fairness metrics, and a reproducible experiment
harness.
"""

from .data import (
    IdMaps,
    SensitiveMap,
    SplitDataset,
    SynthConfig,
    calibrate_bias_strength,
    export_synthetic,
    load_interactions,
    load_sensitive,
    negative_sample,
    split,
    synth_generate,
)
from .errors import (
    ConfigError,
    EmptyDatasetError,
    FairtensorError,
    ParseError,
    SplitError,
    UndefinedMetricError,
)
from .harness import (
    ExperimentConfig,
    OracleCheck,
    evaluate_model,
    prepare_run,
    run_experiment,
    run_oracles,
)
from .metrics import (
    GroupedScores,
    MetricsReport,
    RunMetrics,
    f1_at_k,
    ks,
    mad,
    precision_at_k,
    recall_at_k,
)
from .models import (
    FAIR_KINDS,
    MATRIX_KINDS,
    MODEL_KINDS,
    TENSOR_KINDS,
    TrainConfig,
    TrainedModel,
    load_checkpoint,
    ortho_penalty,
    parity_penalty,
    predict,
    predict_cells,
    remove_span_component,
    save_checkpoint,
    score_curators,
    top_k,
    train_model,
)
from .tensor_core import (
    FactorModel,
    ObservationTensor,
    cp_entries,
    cp_entry,
    masked_gradient,
    masked_loss,
)

__version__ = "0.1.0"
