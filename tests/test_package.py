"""The package's top-level names are its modules' ``__all__``."""

import types

import fairtensor
from fairtensor import data, errors, harness, metrics, models, tensor_core

MODULES = (data, errors, harness, metrics, models, tensor_core)

# Each name the package exposed when its __init__ listed them by hand, by its module.
LISTED_BY_HAND = {
    data: ["IdMaps", "SensitiveMap", "SplitDataset", "SynthConfig", "calibrate_bias_strength",
           "export_synthetic", "load_interactions", "load_sensitive", "negative_sample",
           "split", "synth_generate"],
    errors: ["ConfigError", "EmptyDatasetError", "FairtensorError", "ParseError", "SplitError",
             "UndefinedMetricError"],
    harness: ["ExperimentConfig", "OracleCheck", "evaluate_model", "prepare_run",
              "run_experiment", "run_oracles"],
    metrics: ["GroupedScores", "MetricsReport", "RunMetrics", "f1_at_k", "ks", "mad",
              "precision_at_k", "recall_at_k"],
    models: ["FAIR_KINDS", "MATRIX_KINDS", "MODEL_KINDS", "TENSOR_KINDS", "TrainConfig",
             "TrainedModel", "load_checkpoint", "ortho_penalty", "parity_penalty", "predict",
             "predict_cells", "remove_span_component", "save_checkpoint", "score_curators",
             "top_k", "train_model"],
    tensor_core: ["FactorModel", "ObservationTensor", "cp_entries", "cp_entry",
                  "masked_gradient", "masked_loss"],
}


def test_every_name_listed_by_hand_is_the_same_object():
    assert sum(map(len, LISTED_BY_HAND.values())) == 53
    for module, names in LISTED_BY_HAND.items():
        for name in names:
            assert getattr(fairtensor, name) is getattr(module, name), name
    for module in MODULES:
        assert getattr(fairtensor, module.__name__.rsplit(".", 1)[1]) is module
    assert fairtensor.__version__ == "0.1.0"


def test_top_level_names_are_the_modules_all():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(set(declared)) == len(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fairtensor, name) is getattr(module, name), name
    public = {name for name, value in vars(fairtensor).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(declared)
    new = set(declared) - {name for names in LISTED_BY_HAND.values() for name in names}
    assert new == {"group_fairness", "train_problem", "scatter_cell_gradient"}
