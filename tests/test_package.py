"""The package's top-level names are its modules' ``__all__``, and every
entry point that takes an index, a group label or a count follows one
integer rule."""

import json
import math
import re
import types
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

import fairtensor
from fairtensor import data, errors, harness, metrics, models, tensor_core
from fairtensor.data import SensitiveMap
from fairtensor.errors import ConfigError
from fairtensor.models import TrainConfig, TrainedModel
from fairtensor.tensor_core import FactorModel, ObservationTensor

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


# ---------------------------------------------------------------------------
# the integer rule: every index, group label and count the package takes is a
# Python or numpy integer, never a bool, a float or a string

def _tiny_train():
    cells = [(0, 0, 0, 1.0), (0, 1, 1, 0.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0), (2, 2, 1, 0.0)]
    return ObservationTensor.from_entries(3, 3, 2, cells)


def _tiny_model():
    rng = np.random.default_rng(5)
    factors = FactorModel(*(rng.random((d, 2)) for d in (3, 3, 2)))
    return TrainedModel("OTC", (3, 3, 2), TrainConfig(rank=2), factors=factors, loss_trace=(0.0,))


def _tiny_split():
    test = [(0, 2, 0, 1.0), (1, 0, 1, 1.0), (1, 1, 0, 0.0), (2, 1, 0, 1.0)]
    return data.SplitDataset(_tiny_train(), ObservationTensor.from_entries(3, 3, 2, test), seed=1)


_GROUPED = metrics.GroupedScores([0.1, 0.5, 0.9, 0.4], [0.2, 0.3, 1.0])
_TOP_LISTS = ({"u": ["a", "b", "c"], "v": ["c", "a"]}, {"u": {"a", "c"}, "v": {"a"}})


class Entry(NamedTuple):
    """One entry point, ``call(x)`` with ``x`` at the position under test;
    ``array`` says whether ``x`` is an index array (of one value) or a
    scalar.  ``good`` is a valid value, ``too_low`` and ``too_high`` invalid
    ones (``too_high`` is None where there is no upper bound); a non-integer
    raises ``type_error``, a value out of range ``range_error``."""

    call: Callable
    array: bool
    good: int
    too_low: int
    too_high: int | None
    type_error: type
    range_error: type


ENTRIES = {
    "ObservationTensor-users": Entry(
        lambda x: [ObservationTensor(2, 3, 2, x, [2], [1], [1.0]).users],
        True, 1, -1, 2, IndexError, IndexError),
    "ObservationTensor-n_users": Entry(
        lambda x: json.dumps(ObservationTensor(x, 3, 2, [1], [2], [1], [1.0]).shape),
        False, 2, -1, 0, ValueError, ValueError),
    "from_flat": Entry(
        lambda x: [(o := ObservationTensor.from_flat((2, 3, 2), x, [1.0])).users, o.curators,
                   o.topics], True, 11, -1, 12, IndexError, IndexError),
    "SensitiveMap": Entry(
        lambda x: [SensitiveMap(groups=x).groups], True, 1, -1, 2, ValueError, ValueError),
    "FactorModel-sensitive_cols": Entry(
        lambda x: FactorModel(*[np.ones((2, 3))] * 3, sensitive_cols=(x, 0)).sensitive_cols,
        False, 2, -1, 3, ValueError, IndexError),
    "TrainedModel-shape": Entry(
        lambda x: json.dumps(replace(_tiny_model(), shape=(3, x, 2)).shape),
        False, 3, -1, 4, ValueError, ValueError),
    "train_problem": Entry(
        lambda x: models.train_problem("OMC", _tiny_train(), TrainConfig(rank=2, max_iters=3),
                                       None, x), False, 1, -1, 2, IndexError, IndexError),
    "top_k-k_items": Entry(
        lambda x: models.top_k(_tiny_model(), 0, 0, x), False, 2, -1, 0, ConfigError,
        ConfigError),
    "top_k-exclude": Entry(
        lambda x: models.top_k(_tiny_model(), 0, 0, 3, exclude=[x]), False, 1, -1, 3,
        IndexError, IndexError),
    "score_curators": Entry(
        lambda x: [models.score_curators(_tiny_model(), 2, x)], False, 1, -1, 2,
        IndexError, IndexError),
    "predict_cells": Entry(
        lambda x: [models.predict_cells(_tiny_model(), [2], x, [1])], True, 2, -1, 3,
        IndexError, IndexError),
    "cp_entries": Entry(
        lambda x: [tensor_core.cp_entries(_tiny_model().factors, x, [0], [1])], True, 2, -1, 3,
        IndexError, IndexError),
    "ks-intervals": Entry(
        lambda x: metrics.ks(_GROUPED, x), False, 3, 0, errors.MAX_DENSE_CELLS + 1,
        ValueError, ValueError),
    "group_fairness-intervals": Entry(
        lambda x: metrics.group_fairness(_GROUPED.chunks, x), False, 3, 0,
        errors.MAX_DENSE_CELLS + 1, ValueError, ValueError),
    "precision_at_k-k": Entry(
        lambda x: metrics.precision_at_k(*_TOP_LISTS, x), False, 2, 0, None,
        ValueError, ValueError),
    "recall_at_k-k": Entry(
        lambda x: metrics.recall_at_k(*_TOP_LISTS, x), False, 2, 0, None,
        ValueError, ValueError),
    "negative_sample-seed": Entry(
        lambda x: [(o := data.negative_sample(_tiny_train(), 0.5, x)).users, o.curators,
                   o.topics, o.values], False, 1, -1, None, ConfigError, ConfigError),
    "split-seed": Entry(
        lambda x: [(d := data.split(_tiny_train(), 0.6, x)).seed, d.train.values, d.test.users],
        False, 1, -1, None, ConfigError, ConfigError),
    "evaluate_model-k": Entry(
        lambda x: harness.evaluate_model(_tiny_model(), _tiny_split(), SensitiveMap([0, 1, 0]),
                                         x, 5), False, 2, 0, None, ConfigError, ConfigError),
    "evaluate_model-intervals": Entry(
        lambda x: harness.evaluate_model(_tiny_model(), _tiny_split(), SensitiveMap([0, 1, 0]),
                                         2, x), False, 5, 0, errors.MAX_DENSE_CELLS + 1,
        ConfigError, ConfigError),
}


def _canonical(result):
    """A result with each array as its dtype, shape and bytes, for ``==``."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (list, tuple)):
        return type(result), [_canonical(r) for r in result]
    return type(result), result


@pytest.mark.parametrize("name", ENTRIES)
def test_integer_rule_refuses_bools_floats_and_out_of_range(name):
    entry = ENTRIES[name]
    g = entry.good
    wrong = [True, np.True_, float(g), g + 0.5, np.float64(g), str(g)]
    if entry.array:
        wrong = [[x] for x in wrong] + [np.array([g], dtype=bool), np.array([g], dtype=float)]
    for x in wrong:
        with pytest.raises(entry.type_error):
            entry.call(x)
    for x in (entry.too_low, entry.too_high):
        if x is None:
            continue
        with pytest.raises(entry.range_error):
            entry.call([x] if entry.array else x)


@pytest.mark.parametrize("name", ENTRIES)
def test_integer_rule_accepts_python_and_numpy_integers_alike(name):
    entry = ENTRIES[name]
    g = entry.good
    if entry.array:
        same = [[g], [np.int64(g)]] + [np.array([g], dtype=t)
                                       for t in (np.int64, np.int32, np.uint8, np.uint64)]
    else:
        same = [g, np.int64(g), np.int32(g), np.uint8(g), np.uint64(g)]
    want = _canonical(entry.call(g if not entry.array else [g]))
    for x in same:
        assert _canonical(entry.call(x)) == want, repr(x)


def test_inputs_once_truncated_are_refused():
    with pytest.raises(IndexError, match="cell indices must be integers"):
        ObservationTensor(2, 2, 2, [0.5, True], [0, 1.9], [0, 0], [1.0, 2.0])
    with pytest.raises(IndexError, match="cell indices must be integers"):
        ObservationTensor.from_flat((2, 2, 2), [0.7, 3.2], [1.0, 1.0])
    with pytest.raises(IndexError, match=r"cell index 8 out of range \[0, 8\)"):
        ObservationTensor.from_flat((2, 2, 2), [1, 8], [1.0, 1.0])
    for groups in ([0.5, 1.0], [True, False]):
        with pytest.raises(ValueError, match="group labels must be 0 or 1"):
            SensitiveMap(groups=groups)


def test_numpy_integers_once_refused_are_accepted():
    cfg, train, model = TrainConfig(rank=2, max_iters=3), _tiny_train(), _tiny_model()
    params, trace = models.train_problem("OTC", train, cfg, None, np.int64(0))
    ref_params, ref_trace = models.train_problem("OTC", train, cfg, None, 0)
    assert trace == ref_trace
    assert all(a.tobytes() == b.tobytes() for a, b in zip(params, ref_params))
    assert models.top_k(model, 1, 0, k_items=np.int64(2)) == models.top_k(model, 1, 0, 2)


# ---------------------------------------------------------------------------
# the float rule: a probability or a fraction is a Python or numpy integer or
# float, never a bool, a string or another object

_CALIBRATED = data.SynthConfig(n_users=20, n_curators=10, n_topics=2, target_sparsity=0.2, seed=3)

FLOAT_ENTRIES = {
    "negative_sample-probability": lambda x: [
        (o := data.negative_sample(_tiny_train(), x, 1)).users, o.curators, o.topics, o.values],
    "split-train_fraction": lambda x: [
        (d := data.split(_tiny_train(), x, 1)).train.values, d.train.users, d.test.users],
    "calibrate_bias_strength-target_ratio": lambda x: data.calibrate_bias_strength(_CALIBRATED, x),
    "calibrate_bias_strength-rel_tol": lambda x: data.calibrate_bias_strength(_CALIBRATED, 2.0, x),
}


@pytest.mark.parametrize("name", FLOAT_ENTRIES)
def test_float_rule_refuses_bools_and_non_numbers(name):
    for x in (True, False, np.True_, "0.5", None, [0.5], 0.5j, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=re.escape(repr(x))):
            FLOAT_ENTRIES[name](x)


@pytest.mark.parametrize("name, good, same", [
    ("negative_sample-probability", 0.5, [np.float64(0.5), np.float32(0.5), np.float16(0.5)]),
    ("negative_sample-probability", 1, [1.0, np.int64(1), np.uint8(1), np.float64(1.0)]),
    ("negative_sample-probability", 0, [0.0, np.int32(0), np.float32(0.0)]),
    ("split-train_fraction", 0.5, [np.float64(0.5), np.float32(0.5), np.float16(0.5)]),
    ("calibrate_bias_strength-target_ratio", 2, [2.0, np.int64(2), np.float32(2.0)]),
    ("calibrate_bias_strength-rel_tol", 0.05, [np.float64(0.05), np.float32(0.05)]),
])
def test_float_rule_accepts_python_and_numpy_numbers_alike(name, good, same):
    want = _canonical(FLOAT_ENTRIES[name](good))
    for x in same:
        assert _canonical(FLOAT_ENTRIES[name](x)) == want, repr(x)
