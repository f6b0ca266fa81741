"""Training and prediction for the six recommender variants.

Tensor kinds factor the full user x curator x topic tensor.  A matrix kind
trains its tensor kind's problem on each topic slice, an N x M x 1 tensor
whose topic factor is a constant row of ones, and stores each slice as the
(n, m, 1) :class:`FactorModel` it was trained as.  :func:`train_model` is the
one trainer: it checks the inputs, seeds one generator and fits each problem
of the kind in turn; ``train_otc``, ``train_rtc``, ``train_ft`` and
``train_matrix`` each make one call into it.

=====  ======  =========================================================
kind   solver  objective
=====  ======  =========================================================
OTC    ALS     masked ridge loss
RTC    GD      masked ridge loss + parity penalty on group score means
FT     GD      masked ridge loss + orthogonality penalty; the group
               one-hot features are constant last two curator columns
OMC    ALS     OTC on each topic slice (user and curator modes)
RMC    GD      RTC on each topic slice
FM     GD      FT on each topic slice, projection included
=====  ======  =========================================================

The parity penalty is (gamma/2) * (mean0 - mean1)^2 where mean_g is the mean
predicted score over the training cells whose curator belongs to group g.
The orthogonality penalty is (mu/2) * ||S^T U_ns||_F^2 on the non-sensitive
curator-factor columns; after descent those columns are also projected onto
the orthogonal complement of span(S) exactly.  Fairness-aware kinds predict
from the non-sensitive columns only; all other kinds use every column.

Gradient descent is full batch with a constant step size.  Each iterate
makes one prediction, which gives the objective's value, and one scatter per
free block, which gives its gradient (the parity term's per-cell weights are
added to the residual first).  Constant blocks, the sensitive features and
the ones topic row, are never parameters, so they cannot drift.  GD and ALS
gather the cells' factor rows into buffers allocated once per problem, and
GD forms its scatter contributions and bins in two more, so no iterate
allocates an array the size of the cells times the rank.  Training is
deterministic given (data, config, seed); trained models are immutable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import SensitiveMap
from .errors import ConfigError, _fits, check_fields, check_types, read_json
from .tensor_core import (
    FactorModel,
    ObservationTensor,
    _check_index,
    _check_indices,
    _scatter_rows,
    cp_entries,
    scatter_cell_gradient,
)

__all__ = [
    "MODEL_KINDS",
    "TENSOR_KINDS",
    "MATRIX_KINDS",
    "FAIR_KINDS",
    "TrainConfig",
    "TrainedModel",
    "train_otc",
    "train_rtc",
    "train_ft",
    "train_matrix",
    "train_model",
    "predict",
    "predict_cells",
    "score_curators",
    "top_k",
    "parity_penalty",
    "ortho_penalty",
    "remove_span_component",
    "save_checkpoint",
    "load_checkpoint",
]

TENSOR_KINDS = ("OTC", "RTC", "FT")
MATRIX_KINDS = ("OMC", "RMC", "FM")
MODEL_KINDS = TENSOR_KINDS + MATRIX_KINDS
FAIR_KINDS = ("FT", "FM")
GROUP_AWARE_KINDS = ("RTC", "RMC", "FT", "FM")

CHECKPOINT_VERSION = 1
_INIT_SCALE = 0.1  # i.i.d. uniform [0, 0.1) init suits implicit 0/1 ratings
_MIN_RIDGE = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and model-size settings shared by all six kinds.

    ``parity_weight`` only matters for RTC/RMC, ``ortho_weight`` only for
    FT/FM.  With ``extra_sensitive_cols`` the fairness-aware kinds append the
    two sensitive columns on top of ``rank`` instead of reserving the last
    two of it.
    """

    rank: int = 20
    lam: float = 0.01
    parity_weight: float = 1000.0
    ortho_weight: float = 1.0
    learning_rate: float = 0.002
    max_iters: int = 500
    tol: float = 1e-5
    seed: int = 0
    extra_sensitive_cols: bool = False

    def __post_init__(self):
        check_types(TrainConfig, vars(self), "train")
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        for name in ("lam", "parity_weight", "ortho_weight", "tol"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def fair_layout(self) -> tuple[int, tuple[int, ...]]:
        """(total columns, sensitive column indices) for FT/FM."""
        total = self.rank + 2 if self.extra_sensitive_cols else self.rank
        if total - 2 < 1:
            raise ConfigError(
                "fairness-aware kinds need rank >= 3 (two sensitive columns "
                "plus at least one free column)"
            )
        return total, (total - 2, total - 1)


@dataclass(frozen=True)
class TrainedModel:
    """Immutable result of one training run.

    Tensor kinds carry one :class:`FactorModel` and a loss trace whose first
    element is the loss at initialisation.  Matrix kinds carry one (n, m, 1)
    :class:`FactorModel` per topic, whose topic factor is a constant row of
    ones, and one trace per topic (empty slices get zero user factors and an
    empty trace).  Prediction reads neither directly but the stacked
    per-topic arrays of :attr:`topic_factors`.
    """

    kind: str
    shape: tuple[int, int, int]
    config: TrainConfig
    factors: FactorModel | None = None
    slices: tuple[FactorModel, ...] | None = None
    loss_trace: tuple[float, ...] | None = None
    slice_traces: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not all(_fits(int, d) or isinstance(d, np.integer) for d in self.shape):
            raise ValueError(f"dimensions must be ints, got {self.shape}")
        if self.kind in TENSOR_KINDS:
            if self.factors is None or self.loss_trace is None:
                raise ValueError("tensor kinds need factors and a loss trace")
            if self.factors.shape != self.shape:
                raise ValueError(f"factors of shape {self.factors.shape} in a {self.shape} model")
            fs, traces = [self.factors], [self.loss_trace]
        else:
            if self.slices is None or self.slice_traces is None:
                raise ValueError("matrix kinds need slices and slice traces")
            if len(self.slices) != self.shape[2]:
                raise ValueError("one slice per topic required")
            n, m, _ = self.shape
            if any(sl.shape != (n, m, 1) for sl in self.slices):
                raise ValueError(f"every slice of a {self.shape} model must have shape {(n, m, 1)}")
            fs, traces = self.slices, self.slice_traces
        # the column layout train_model gives this kind under this config
        width, cols = self.config.fair_layout() if self.is_fair else (self.config.rank, ())
        for f in fs:
            if (f.rank, f.sensitive_cols) != (width, cols):
                raise ValueError(
                    f"{self.kind} factors of width {f.rank} with sensitive_cols "
                    f"{list(f.sensitive_cols)}; the config gives {width} with {list(cols)}"
                )
        if not all(isinstance(v, float) and math.isfinite(v) for t in traces for v in t):
            raise ValueError("loss traces must hold finite floats")

    @property
    def is_fair(self) -> bool:
        return self.kind in FAIR_KINDS

    @cached_property
    def topic_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked per-topic factors (A, B), of shapes (K, n, r') and (K, m, r'),
        with score(i, j, k) = A[k, i] . B[k, j].

        Topic k of a CP model f is U_users diag(U_topics[k]) U_curators^T,
        so A[k] = U_users * U_topics[k] and B[k] = U_curators; a tensor kind
        broadcasts its one curator factor over the topics, a matrix kind
        stacks its slices' factors, whose topic row is ones.  Fair kinds
        slice to the non-sensitive columns first, so stored sensitive values
        cannot reach a prediction.
        """
        fs = [self.factors] if self.factors is not None else list(self.slices)
        cols = list(fs[0].nonsensitive_cols) if self.is_fair else slice(None)
        users = np.stack([f.u_users[:, cols] for f in fs])
        topics = np.concatenate([f.u_topics[:, cols] for f in fs])
        curators = np.stack([f.u_curators[:, cols] for f in fs])
        a = users * topics[:, None, :]
        return a, np.broadcast_to(curators, (a.shape[0], *curators.shape[1:]))


# ---------------------------------------------------------------------------
# shared optimisation machinery


def _group0_cells(curators: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Mask of the cells whose curator is in group 0; both groups need cells."""
    is0 = groups[curators] == 0
    if is0.all() or not is0.any():
        raise ConfigError("one group has no training cells")
    return is0


def _check_sensitive(
    kind: str, train: ObservationTensor, sensitive: SensitiveMap | None
) -> None:
    """The one check of the sensitive map against a kind's training set.

    Group-aware kinds need a map that covers every curator.  FT and FM also
    need training cells in both groups (their projection needs two); RTC
    and RMC get that check per problem from the parity term.
    """
    if kind not in GROUP_AWARE_KINDS:
        return
    if sensitive is None:
        raise ConfigError(f"{kind} requires a sensitive map")
    if sensitive.n_curators != train.n_curators:
        raise ConfigError("sensitive map does not cover every curator")
    if kind in FAIR_KINDS:
        _group0_cells(train.curators, sensitive.groups)


def _converged(prev: float, cur: float, tol: float) -> bool:
    return abs(prev - cur) <= tol * max(abs(prev), 1e-12)


def _row_buffers(train: ObservationTensor, widths: Sequence[int]) -> list[np.ndarray]:
    """One (cells, width) buffer per factor, for :func:`_fit_terms` to gather
    into; a problem allocates them once, not once per iterate."""
    return [np.empty((train.n_entries, w)) for w in widths]


def _fit_terms(
    train: ObservationTensor, factors: list[np.ndarray], lam: float, rows: list[np.ndarray]
):
    """(predictions, residuals, masked ridge loss) of the cells, with each
    factor's rows of the cells gathered into its buffer of ``rows``.

    A one-topic slice passes no topic factor: it is a constant row of ones,
    so the CP products leave it out, and the ridge covers only the factors
    the model stores.
    """
    for u, idx, out in zip(factors, (train.users, train.curators, train.topics), rows):
        np.take(u, idx, axis=0, out=out, mode="clip")  # "raise" would gather into a copy
    preds = np.einsum(",".join(["er"] * len(rows)) + "->e", *rows)
    resid = preds - train.values
    reg = sum(float(np.sum(u * u)) for u in factors)
    return preds, resid, 0.5 * float(np.dot(resid, resid)) + 0.5 * lam * reg


def _parity_terms(
    preds: np.ndarray, is0: np.ndarray, weight: float
) -> tuple[float, np.ndarray]:
    """Parity value (weight/2) * d^2 and its per-cell gradient weights.

    d is the gap between the mean predicted score of group-0 and group-1
    cells; the weights are weight*d*(+1/n0 | -1/n1).
    """
    n0 = int(is0.sum())
    n1 = is0.size - n0
    d = float(preds[is0].mean() - preds[~is0].mean())
    return 0.5 * weight * d * d, np.where(is0, weight * d / n0, -weight * d / n1)


Objective = Callable[[list[np.ndarray]], tuple[float, list[np.ndarray]]]


def _objective(
    train: ObservationTensor,
    cfg: TrainConfig,
    params: list[np.ndarray],
    groups: np.ndarray | None = None,
    s: np.ndarray | None = None,
) -> Objective:
    """Fused value and gradient of one problem's GD objective.

    Each call makes one prediction.  With ``groups`` (RTC/RMC) the parity
    weights join the residual before the one scatter per free block.  With
    ``s`` (FT/FM) the features join the free curator block as its last two
    columns, where :meth:`TrainConfig.fair_layout` puts them, and the
    orthogonality penalty acts on the free curator block.  Constant blocks
    get no gradient and no scatter.  The free blocks ``params`` fix the
    shapes of the buffers that every call reuses: the gathered rows, one
    contribution array and one array of scatter bins, each as wide as the
    widest free block.
    """
    index = (train.users, train.curators, train.topics)
    is0 = None if groups is None else _group0_cells(train.curators, groups)
    widths = [p.shape[1] for p in params]
    features = 0 if s is None else s.shape[1]  # they join the curator block's rows
    rows = _row_buffers(train, [widths[0], widths[1] + features, *widths[2:]])
    cells = train.n_entries * max(widths)
    contrib, bins = np.empty(cells), np.empty(cells, dtype=np.intp)

    def objective(params):
        factors = params if s is None else [params[0], np.hstack([params[1], s]), *params[2:]]
        preds, resid, value = _fit_terms(train, factors, cfg.lam, rows)
        if is0 is not None:
            parity, cell_weights = _parity_terms(preds, is0, cfg.parity_weight)
            value += parity
            resid = resid + cell_weights
        grads = []
        for mode, p in enumerate(params):
            others = [r[:, : p.shape[1]] for other, r in enumerate(rows) if other != mode]
            c = contrib[: train.n_entries * p.shape[1]].reshape(train.n_entries, p.shape[1])
            # ((resid * x) * y), the order the factors' and traces' bits depend on
            np.multiply(resid[:, None], others[0], out=c)
            for x in others[1:]:
                np.multiply(c, x, out=c)
            grads.append(_scatter_rows(index[mode], c, p.shape[0], bins) + cfg.lam * p)
        if s is not None:
            free_cols = range(params[1].shape[1])
            ortho, g_ortho = ortho_penalty(params[1], s, free_cols, cfg.ortho_weight)
            value += ortho
            grads[1] = grads[1] + g_ortho
        return value, grads

    return objective


def _descend(
    params: list[np.ndarray], objective: Objective, cfg: TrainConfig
) -> tuple[list[np.ndarray], list[float]]:
    """Full-batch constant-step gradient descent with a relative-change stop.

    One objective call per iterate; ``trace[0]`` is the value at ``params``.
    """
    value, grads = objective(params)
    trace = [value]
    for _ in range(cfg.max_iters):
        params = [p - cfg.learning_rate * g for p, g in zip(params, grads)]
        value, grads = objective(params)
        trace.append(value)
        if not math.isfinite(value):
            raise ConfigError(
                "gradient descent diverged (non-finite loss); lower "
                "learning_rate or the penalty weight"
            )
        if _converged(trace[-2], trace[-1], cfg.tol):
            break
    return params, trace


def _als(
    train: ObservationTensor, params: list[np.ndarray], cfg: TrainConfig
) -> tuple[list[np.ndarray], list[float]]:
    """Alternating least squares over the free blocks, in mode order.

    Each sweep solves every row of every free block exactly (normal equations
    with a ridge), so the loss trace is non-increasing up to numerical noise.
    One plan per mode, built once, sorts the cells by that mode's row, so each
    row's cells are one contiguous run of the design; then one stacked solve
    per mode per sweep solves every nonempty row.  Rows without cells are zero.
    """
    ridge = cfg.lam
    if ridge == 0:
        warnings.warn(
            f"lam=0 makes the ALS normal equations singular; substituting {_MIN_RIDGE}",
            RuntimeWarning,
            stacklevel=2,
        )
        ridge = _MIN_RIDGE
    index = (train.users, train.curators, train.topics)
    factors = list(params)
    rank = factors[0].shape[1]
    rows = _row_buffers(train, [rank] * len(factors))
    plans = []
    for mode, u in enumerate(factors):
        order = np.argsort(index[mode], kind="stable")
        starts = np.searchsorted(index[mode][order], np.arange(u.shape[0] + 1))
        nonempty = np.flatnonzero(np.diff(starts))
        runs = list(zip(starts[nonempty].tolist(), starts[nonempty + 1].tolist()))
        others = [(other, index[other][order]) for other in range(len(factors)) if other != mode]
        gram, rhs = np.empty((len(runs), rank, rank)), np.empty((len(runs), rank))
        plans.append((nonempty, runs, others, train.values[order], gram, rhs))
    trace = [_fit_terms(train, factors, ridge, rows)[2]]
    for _ in range(cfg.max_iters):
        for mode, (nonempty, runs, others, y, gram, rhs) in enumerate(plans):
            # the design: the product of the other modes' rows, in this mode's cell
            # order; this mode's row buffer is free until the next _fit_terms
            gathered = [np.take(factors[other], idx, axis=0, out=rows[other], mode="clip")
                        for other, idx in others]
            z = gathered[0]
            for g in gathered[1:]:
                z = np.multiply(z, g, out=rows[mode])
            for t, (a, b) in enumerate(runs):
                za = z[a:b]  # a view: za.T @ za stays BLAS syrk, as for a copy
                np.matmul(za.T, za, out=gram[t])
                np.matmul(za.T, y[a:b], out=rhs[t])
            gram += ridge * np.eye(rank)
            factors[mode] = np.zeros((factors[mode].shape[0], rank))
            # a 2-D right-hand side would be read as one matrix, not a stack
            factors[mode][nonempty] = np.linalg.solve(gram, rhs[..., None])[..., 0]
        trace.append(_fit_terms(train, factors, ridge, rows)[2])
        if _converged(trace[-2], trace[-1], cfg.tol):
            break
    return factors, trace


def parity_penalty(
    model: FactorModel,
    obs: ObservationTensor,
    groups: np.ndarray,
    weight: float,
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Statistical-parity penalty and its gradient for the tensor kinds.

    Value is (weight/2) * d^2 with d the difference between the mean
    predicted score of group-0 and group-1 training cells.  The gradient is
    the usual score scatter with per-cell weights weight*d*(+1/n0 | -1/n1).
    """
    is0 = _group0_cells(obs.curators, groups)
    preds = cp_entries(model, obs.users, obs.curators, obs.topics)
    value, cell_weights = _parity_terms(preds, is0, weight)
    return value, scatter_cell_gradient(model, obs, cell_weights)


def ortho_penalty(
    u_curators: np.ndarray,
    s: np.ndarray,
    ns_cols: Sequence[int],
    weight: float,
) -> tuple[float, np.ndarray]:
    """Penalty (weight/2) * ||S^T U_ns||_F^2 and its curator-factor gradient.

    The gradient lives on the non-sensitive columns only; any other column
    gets an exact zero block.

    Stability: under constant-step descent this term alone contracts only
    when learning_rate * weight * max(group size) < 2, since the per-column
    Hessian is weight * S S^T.
    """
    cols = np.asarray(list(ns_cols), dtype=np.int64)
    u_ns = u_curators[:, cols]
    m = s.T @ u_ns
    grad = np.zeros_like(u_curators)
    grad[:, cols] = weight * (s @ m)
    return 0.5 * weight * float(np.sum(m * m)), grad


def remove_span_component(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Project the columns of ``u`` onto the orthogonal complement of span(s)."""
    coef = np.linalg.solve(s.T @ s, s.T @ u)
    return u - s @ coef


# ---------------------------------------------------------------------------
# trainers: one problem per tensor kind, one per topic slice for matrix kinds


def _init_factors(rng: np.random.Generator, shape: Sequence[int], rank: int):
    return [rng.uniform(0.0, _INIT_SCALE, size=(n, rank)) for n in shape]


def _fit(
    kind: str,
    train: ObservationTensor,
    sensitive: SensitiveMap | None,
    cfg: TrainConfig,
    params: list[np.ndarray],
) -> tuple[list[np.ndarray], list[float]]:
    """Train one problem of ``kind`` from its initial factors.

    A matrix kind's problem is a one-topic slice, which it trains as its
    tensor kind and which passes its user and curator factors only.  FT and
    FM pass the curator factor at its full drawn width; the sensitive
    columns' draws are dropped and the features take their place.
    """
    if kind in ("OTC", "OMC"):
        return _als(train, params, cfg)
    if kind in ("RTC", "RMC"):
        return _descend(params, _objective(train, cfg, params, groups=sensitive.groups), cfg)
    s = sensitive.matrix
    params = [params[0], params[1][:, : -s.shape[1]], *params[2:]]
    params, trace = _descend(params, _objective(train, cfg, params, s=s), cfg)
    params[1] = np.hstack([remove_span_component(params[1], s), s])
    return params, trace


def train_otc(train: ObservationTensor, cfg: TrainConfig) -> TrainedModel:
    """Ordinary tensor completion: alternating least squares.

    Each sweep solves every row of every mode exactly (normal equations with
    a ridge), so the loss trace is non-increasing up to numerical noise:
    one plan per mode, one stacked solve per mode per sweep; rows without
    cells are zero.
    """
    return train_model("OTC", train, cfg)


def train_rtc(
    train: ObservationTensor, sensitive: SensitiveMap, cfg: TrainConfig
) -> TrainedModel:
    """Regularised tensor completion: gradient descent with a parity penalty."""
    return train_model("RTC", train, cfg, sensitive)


def train_ft(
    train: ObservationTensor, sensitive: SensitiveMap, cfg: TrainConfig
) -> TrainedModel:
    """Fair tensor model: constant sensitive columns, orthogonality penalty,
    and one exact projection after descent.

    The curator factor's last two columns are the group one-hot features, a
    constant joined to the free curator block: they get no gradient, so they
    equal the features exactly.  The free blocks descend on the masked loss,
    whose ridge covers the whole curator factor, plus the orthogonality
    penalty.  After convergence the free curator columns are projected onto
    the orthogonal complement of the features, so the fair prediction
    (non-sensitive columns only) is exactly decoupled from the group
    indicators.
    """
    return train_model("FT", train, cfg, sensitive)


def train_matrix(
    kind: str, train: ObservationTensor, sensitive: SensitiveMap | None, cfg: TrainConfig
) -> TrainedModel:
    """Train a matrix kind (OMC, RMC or FM) with :func:`train_model`."""
    if kind not in MATRIX_KINDS:
        raise ValueError(f"not a matrix kind: {kind!r}")
    return train_model(kind, train, cfg, sensitive)


def _problems(kind: str, train: ObservationTensor):
    """(error prefix, problem) of each problem a kind trains: the tensor
    itself, or one N x M x 1 slice per topic."""
    if kind in TENSOR_KINDS:
        yield "", train
        return
    cells = train.flat_indices() // train.n_topics  # each entry's (user, curator) cell
    shape = (train.n_users, train.n_curators, 1)
    for topic in range(train.n_topics):
        mask = train.topics == topic
        obs = ObservationTensor.from_flat(shape, cells[mask], train.values[mask])
        yield f"topic {topic}: ", obs


def train_model(
    kind: str,
    train: ObservationTensor,
    cfg: TrainConfig,
    sensitive: SensitiveMap | None = None,
) -> TrainedModel:
    """Train one model of ``kind``; every kind goes through this trainer.

    A tensor kind fits one problem, the whole tensor.  A matrix kind fits its
    tensor kind's problem on every topic slice: each topic becomes an
    N x M x 1 tensor whose topic factor is a constant row of ones, so OMC
    runs OTC's ALS over the user and curator modes, RMC descends RTC's
    objective and FM FT's, projection included.  The ones row joins each
    slice's :class:`FactorModel` only after training, so no training product
    multiplies by it.  The slices draw their inits from one generator in
    topic order and each stops on its own.  Topics without training entries
    get zero factors (all-zero predictions; FM's keep the features) and an
    empty loss trace; a slice's errors name its topic.
    """
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    if train.n_entries == 0:
        raise ConfigError("training set is empty")
    _check_sensitive(kind, train, sensitive)
    total, sens_cols = cfg.fair_layout() if kind in FAIR_KINDS else (cfg.rank, ())
    is_tensor = kind in TENSOR_KINDS
    rng = np.random.default_rng(cfg.seed)
    fitted, traces = [], []
    for prefix, obs in _problems(kind, train):
        modes = obs.shape if is_tensor else obs.shape[:2]  # a slice's ones row is no parameter
        if obs.n_entries == 0:
            params, trace = [np.zeros((n, total)) for n in modes], []
            if kind == "FM":
                params[1][:, sens_cols] = sensitive.matrix
        else:
            try:
                params, trace = _fit(kind, obs, sensitive, cfg, _init_factors(rng, modes, total))
            except ConfigError as exc:
                raise ConfigError(f"{prefix}{exc}") from None
        if not is_tensor:
            params = [*params, np.ones((1, total))]
        fitted.append(FactorModel(*params, sensitive_cols=sens_cols))
        traces.append(tuple(trace))
    if is_tensor:
        return TrainedModel(kind, train.shape, cfg, factors=fitted[0], loss_trace=traces[0])
    return TrainedModel(kind, train.shape, cfg, slices=tuple(fitted), slice_traces=tuple(traces))


# ---------------------------------------------------------------------------
# prediction


def predict(model: TrainedModel, i: int, j: int, k: int) -> float:
    """Predicted score of one (user, curator, topic) cell."""
    _check_indices(model.shape, *np.atleast_1d(i, j, k))
    a, b = model.topic_factors
    return float(np.dot(a[k, i], b[k, j]))


def predict_cells(
    model: TrainedModel,
    users: np.ndarray,
    curators: np.ndarray,
    topics: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`predict` over parallel index arrays."""
    users = np.asarray(users, dtype=np.int64)
    curators = np.asarray(curators, dtype=np.int64)
    topics = np.asarray(topics, dtype=np.int64)
    _check_indices(model.shape, users, curators, topics)
    out = np.empty(users.size)
    a, b = model.topic_factors
    for topic in np.unique(topics):
        mask = topics == topic
        out[mask] = np.einsum("er,er->e", a[topic, users[mask]], b[topic, curators[mask]])
    return out


def _user_scores(model: TrainedModel, user: int, topics: slice) -> np.ndarray:
    """Scores of one user's cells under a slice of topics, cell ``j * width + t`` for
    curator j and the slice's t-th topic; every ranking reads these.  numpy runs the
    batched product as one gemv per topic, so topic t gives ``B[t] @ A[t, user]``."""
    a, b = model.topic_factors
    return np.matmul(b[topics], a[topics, user, :, None])[..., 0].T.ravel()


def score_curators(model: TrainedModel, user: int, topic: int) -> np.ndarray:
    """Every curator's score for one (user, topic) pair: one topic of :func:`_user_scores`."""
    n, _, kk = model.shape
    _check_index(user, n, "user")
    _check_index(topic, kk, "topic")
    return _user_scores(model, user, slice(topic, topic + 1))


def _top_indices(scores: np.ndarray, k_items: int, exclude: Sequence[int]) -> np.ndarray:
    """Indices of the ``k_items`` highest scores outside ``exclude`` (indices
    in range); ties break toward the lower index.

    Excluded indices are dropped from the candidates, not masked in the
    scores, so infinities and NaN (sorted last) cannot collide with a mask
    value.  A partition finds the ``k_items``-th lowest negated score, the
    cut; the candidates at or above the cut stay in index order, so one
    stable sort of them ranks ties at the cut, signed zeros and NaN exactly
    as a stable sort of every candidate would.  A NaN cut keeps every
    candidate.
    """
    keep = np.ones(scores.size, dtype=bool)
    keep[np.asarray(list(exclude), dtype=np.int64)] = False
    cand = np.flatnonzero(keep)
    neg = -scores[cand]
    if cand.size > k_items:
        cut = np.partition(neg, k_items - 1)[k_items - 1]
        if not np.isnan(cut):
            near = neg <= cut
            cand, neg = cand[near], neg[near]
    return cand[np.argsort(neg, kind="stable")[:k_items]]


def top_k(
    model: TrainedModel,
    user: int,
    topic: int,
    k_items: int,
    exclude: Sequence[int] = (),
) -> list[int]:
    """Top curators for a (user, topic) pair by descending predicted score.

    Ties break toward the lower curator index; curators in ``exclude``
    (typically the pair's training positives) are omitted.  The list length
    is min(k_items, number of non-excluded curators).
    """
    if not _fits(int, k_items):
        raise ConfigError(f"k_items must be int, got {type(k_items).__name__}")
    if k_items < 1:
        raise ConfigError("k_items must be >= 1")
    scores = score_curators(model, user, topic)
    for c in exclude:
        _check_index(c, scores.size, "curator")
    return _top_indices(scores, k_items, exclude).tolist()


# ---------------------------------------------------------------------------
# checkpoints


def _encode_matrix(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}


def _decode_matrix(obj: dict) -> np.ndarray:
    arr = np.asarray(obj["data"], dtype=np.float64).reshape(obj["shape"])
    if not np.all(np.isfinite(arr)):
        raise ValueError("factor values must be finite")
    return arr


_FACTOR_FIELDS = ("u_users", "u_curators", "u_topics")


def _encode_factors(f: FactorModel) -> dict:
    doc = {name: _encode_matrix(getattr(f, name)) for name in _FACTOR_FIELDS}
    return {**doc, "sensitive_cols": list(f.sensitive_cols)}


def _decode_factors(doc: dict) -> FactorModel:
    mats = (_decode_matrix(doc[name]) for name in _FACTOR_FIELDS)
    return FactorModel(*mats, sensitive_cols=tuple(doc["sensitive_cols"]))


def save_checkpoint(model: TrainedModel, path: str | Path) -> None:
    """Serialise a trained model to JSON (bit-exact float round trip)."""
    doc: dict = {
        "format_version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "dimensions": {
            "n_users": model.shape[0],
            "n_curators": model.shape[1],
            "n_topics": model.shape[2],
        },
        "config": asdict(model.config),
        "loss_trace": list(model.loss_trace) if model.loss_trace is not None else None,
        "slice_traces": [list(t) for t in model.slice_traces]
        if model.slice_traces is not None
        else None,
        "factors": _encode_factors(model.factors) if model.factors is not None else None,
        "slices": [_encode_factors(sl) for sl in model.slices]
        if model.slices is not None
        else None,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Rebuild a trained model from :func:`save_checkpoint` output.

    An unreadable, malformed or inconsistent checkpoint, or one of another
    ``format_version``, is a :class:`ConfigError`.
    """
    doc = read_json(path, "checkpoint")
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if not _fits(int, version) or version != CHECKPOINT_VERSION:  # true == 1.0 == 1
        raise ConfigError(
            f"checkpoint {path}: format_version {version!r} is not {CHECKPOINT_VERSION}"
        )
    try:
        dims = doc["dimensions"]
        return TrainedModel(
            kind=doc["kind"],
            shape=(dims["n_users"], dims["n_curators"], dims["n_topics"]),
            config=TrainConfig(**check_fields(TrainConfig, doc["config"], "checkpoint config")),
            factors=_decode_factors(doc["factors"]) if doc["factors"] is not None else None,
            slices=tuple(map(_decode_factors, doc["slices"]))
            if doc["slices"] is not None
            else None,
            loss_trace=tuple(doc["loss_trace"]) if doc["loss_trace"] is not None else None,
            slice_traces=tuple(tuple(t) for t in doc["slice_traces"])
            if doc["slice_traces"] is not None
            else None,
        )
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} lacks key {exc}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None
