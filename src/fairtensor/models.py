"""Training and prediction for the six recommender variants.

Tensor kinds factor the full user x curator x topic tensor.  A matrix kind
trains its tensor kind's problem on each topic slice, an N x M x 1 tensor
whose topic factor is a constant row of ones:

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
the ones topic row, are never parameters, so they cannot drift.  Training is
deterministic given (data, config, seed); trained models are immutable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from functools import reduce
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import SensitiveMap
from .errors import ConfigError
from .tensor_core import (
    FactorModel,
    ObservationTensor,
    _scatter_rows,
    cp_entries,
    cp_entry,
    scatter_cell_gradient,
)

__all__ = [
    "MODEL_KINDS",
    "TENSOR_KINDS",
    "MATRIX_KINDS",
    "FAIR_KINDS",
    "TrainConfig",
    "MatrixSlice",
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
class MatrixSlice:
    """Per-topic factor pair for the matrix kinds."""

    u_users: np.ndarray
    u_curators: np.ndarray
    sensitive_cols: tuple[int, ...] = ()

    def __post_init__(self):
        u = np.asarray(self.u_users, dtype=np.float64)
        v = np.asarray(self.u_curators, dtype=np.float64)
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
            raise ValueError("slice factors must be 2-D with equal column count")
        object.__setattr__(self, "u_users", u)
        object.__setattr__(self, "u_curators", v)
        object.__setattr__(self, "sensitive_cols", tuple(sorted(int(c) for c in self.sensitive_cols)))

    @property
    def rank(self) -> int:
        return int(self.u_users.shape[1])

    @property
    def nonsensitive_cols(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.rank) if c not in self.sensitive_cols)


@dataclass(frozen=True)
class TrainedModel:
    """Immutable result of one training run.

    Tensor kinds carry one :class:`FactorModel` and a loss trace whose first
    element is the loss at initialisation.  Matrix kinds carry one
    :class:`MatrixSlice` and one trace per topic (empty slices get a zero
    factor pair and an empty trace).
    """

    kind: str
    shape: tuple[int, int, int]
    config: TrainConfig
    factors: FactorModel | None = None
    slices: tuple[MatrixSlice, ...] | None = None
    loss_trace: tuple[float, ...] | None = None
    slice_traces: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind in TENSOR_KINDS:
            if self.factors is None or self.loss_trace is None:
                raise ValueError("tensor kinds need factors and a loss trace")
        else:
            if self.slices is None or self.slice_traces is None:
                raise ValueError("matrix kinds need slices and slice traces")
            if len(self.slices) != self.shape[2]:
                raise ValueError("one slice per topic required")

    @property
    def is_fair(self) -> bool:
        return self.kind in FAIR_KINDS


# ---------------------------------------------------------------------------
# shared optimisation machinery


def _check_nonempty(train: ObservationTensor) -> None:
    if train.n_entries == 0:
        raise ConfigError("training set is empty")


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

    Group-aware kinds need a map that covers every curator.  FT also needs
    training cells in both groups; RTC and RMC get that check per problem
    from the parity term.
    """
    if kind not in GROUP_AWARE_KINDS:
        return
    if sensitive is None:
        raise ConfigError(f"{kind} requires a sensitive map")
    if sensitive.n_curators != train.n_curators:
        raise ConfigError("sensitive map does not cover every curator")
    if kind == "FT":
        _group0_cells(train.curators, sensitive.groups)


def _effective_ridge(lam: float) -> float:
    if lam > 0:
        return lam
    warnings.warn(
        f"lam=0 makes the ALS normal equations singular; substituting {_MIN_RIDGE}",
        RuntimeWarning,
        stacklevel=3,
    )
    return _MIN_RIDGE


def _converged(prev: float, cur: float, tol: float) -> bool:
    return abs(prev - cur) <= tol * max(abs(prev), 1e-12)


def _fit_terms(train: ObservationTensor, factors: list[np.ndarray], lam: float):
    """(gathered rows, predictions, residuals, masked ridge loss) of the cells.

    A one-topic slice passes no topic factor: it is a constant row of ones,
    so the CP products leave it out, and the ridge covers only the factors
    the model stores.
    """
    rows = [u[idx] for u, idx in zip(factors, (train.users, train.curators, train.topics))]
    preds = np.einsum(",".join(["er"] * len(rows)) + "->e", *rows)
    resid = preds - train.values
    reg = sum(float(np.sum(u * u)) for u in factors)
    return rows, preds, resid, 0.5 * float(np.dot(resid, resid)) + 0.5 * lam * reg


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
    groups: np.ndarray | None = None,
    s: np.ndarray | None = None,
) -> Objective:
    """Fused value and gradient of one problem's GD objective.

    Each call makes one prediction.  With ``groups`` (RTC/RMC) the parity
    weights join the residual before the one scatter per free block.  With
    ``s`` (FT/FM) the features join the free curator block as its last two
    columns, where :meth:`TrainConfig.fair_layout` puts them, and the
    orthogonality penalty acts on the free curator block.  Constant blocks
    get no gradient and no scatter.
    """
    index = (train.users, train.curators, train.topics)
    is0 = None if groups is None else _group0_cells(train.curators, groups)

    def objective(params):
        factors = params if s is None else [params[0], np.hstack([params[1], s]), *params[2:]]
        rows, preds, resid, value = _fit_terms(train, factors, cfg.lam)
        if is0 is not None:
            parity, cell_weights = _parity_terms(preds, is0, cfg.parity_weight)
            value += parity
            resid = resid + cell_weights
        grads = []
        for mode, p in enumerate(params):
            others = [r[:, : p.shape[1]] for other, r in enumerate(rows) if other != mode]
            contrib = reduce(np.multiply, others, resid[:, None])
            grads.append(_scatter_rows(index[mode], contrib, p.shape[0]) + cfg.lam * p)
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


def _als_rows(
    target_idx: np.ndarray,
    design: np.ndarray,
    values: np.ndarray,
    n_rows: int,
    ridge: float,
) -> np.ndarray:
    """Exact per-row ridge solve: rows without observations become zero."""
    rank = design.shape[1]
    out = np.zeros((n_rows, rank))
    order = np.argsort(target_idx, kind="stable")
    sorted_idx = target_idx[order]
    starts = np.searchsorted(sorted_idx, np.arange(n_rows + 1))
    eye = ridge * np.eye(rank)
    for row in range(n_rows):
        seg = order[starts[row]:starts[row + 1]]
        if seg.size == 0:
            continue
        z = design[seg]
        out[row] = np.linalg.solve(z.T @ z + eye, z.T @ values[seg])
    return out


def _als(
    train: ObservationTensor, params: list[np.ndarray], cfg: TrainConfig
) -> tuple[list[np.ndarray], list[float]]:
    """Alternating least squares over the free blocks, in mode order.

    Each sweep solves every row of every free block exactly (normal equations
    with a ridge), so the loss trace is non-increasing up to numerical noise.
    """
    ridge = _effective_ridge(cfg.lam)
    index = (train.users, train.curators, train.topics)
    factors = list(params)
    trace = [_fit_terms(train, factors, ridge)[3]]
    for _ in range(cfg.max_iters):
        for mode in range(len(factors)):
            others = [u[index[other]] for other, u in enumerate(factors) if other != mode]
            factors[mode] = _als_rows(
                index[mode], reduce(np.multiply, others), train.values,
                factors[mode].shape[0], ridge,
            )
        trace.append(_fit_terms(train, factors, ridge)[3])
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
    """Train one problem of a tensor kind from its initial factors.

    A one-topic slice passes its user and curator factors only.  FT passes
    the curator factor at its full drawn width; the sensitive columns' draws
    are dropped and the features take their place.
    """
    if kind == "OTC":
        return _als(train, params, cfg)
    if kind == "RTC":
        return _descend(params, _objective(train, cfg, groups=sensitive.groups), cfg)
    s = sensitive.matrix
    params = [params[0], params[1][:, : -s.shape[1]], *params[2:]]
    params, trace = _descend(params, _objective(train, cfg, s=s), cfg)
    params[1] = np.hstack([remove_span_component(params[1], s), s])
    return params, trace


def _train_tensor(
    kind: str, train: ObservationTensor, sensitive: SensitiveMap | None, cfg: TrainConfig
) -> TrainedModel:
    _check_nonempty(train)
    _check_sensitive(kind, train, sensitive)
    total, sens_cols = cfg.fair_layout() if kind == "FT" else (cfg.rank, ())
    rng = np.random.default_rng(cfg.seed)
    params, trace = _fit(kind, train, sensitive, cfg, _init_factors(rng, train.shape, total))
    return TrainedModel(
        kind=kind,
        shape=train.shape,
        config=cfg,
        factors=FactorModel(*params, sensitive_cols=sens_cols),
        loss_trace=tuple(trace),
    )


def train_otc(train: ObservationTensor, cfg: TrainConfig) -> TrainedModel:
    """Ordinary tensor completion: alternating least squares.

    Each sweep solves every row of every mode exactly (normal equations with
    a ridge), so the loss trace is non-increasing up to numerical noise.
    """
    return _train_tensor("OTC", train, None, cfg)


def train_rtc(
    train: ObservationTensor, sensitive: SensitiveMap, cfg: TrainConfig
) -> TrainedModel:
    """Regularised tensor completion: gradient descent with a parity penalty."""
    return _train_tensor("RTC", train, sensitive, cfg)


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
    return _train_tensor("FT", train, sensitive, cfg)


def train_matrix(
    kind: str,
    train: ObservationTensor,
    sensitive: SensitiveMap | None,
    cfg: TrainConfig,
) -> TrainedModel:
    """Train a matrix kind: its tensor kind's problem on every topic slice.

    Each nonempty topic becomes an N x M x 1 tensor whose topic factor is a
    constant row of ones, so OMC runs OTC's ALS over the user and curator
    modes, RMC descends RTC's objective and FM FT's, projection included.
    The slices draw their inits from one generator in topic order and each
    stops on its own.  Topics without training entries get zero factors
    (all-zero predictions) and an empty loss trace.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"not a matrix kind: {kind!r}")
    _check_nonempty(train)
    _check_sensitive(kind, train, sensitive)
    tensor_kind = TENSOR_KINDS[MATRIX_KINDS.index(kind)]
    total, sens_cols = cfg.fair_layout() if kind == "FM" else (cfg.rank, ())

    rng = np.random.default_rng(cfg.seed)
    slices: list[MatrixSlice] = []
    traces: list[tuple[float, ...]] = []
    for topic in range(train.n_topics):
        mask = train.topics == topic
        if not np.any(mask):
            u1 = np.zeros((train.n_users, total))
            u2 = np.zeros((train.n_curators, total))
            if kind == "FM":
                u2[:, sens_cols] = sensitive.matrix
            slices.append(MatrixSlice(u1, u2, sensitive_cols=sens_cols))
            traces.append(())
            continue
        obs = ObservationTensor(
            train.n_users,
            train.n_curators,
            1,
            train.users[mask],
            train.curators[mask],
            np.zeros(int(mask.sum()), dtype=np.int64),
            train.values[mask],
        )
        params = _init_factors(rng, obs.shape[:2], total)
        try:
            (u1, u2), trace = _fit(tensor_kind, obs, sensitive, cfg, params)
        except ConfigError as exc:
            raise ConfigError(f"topic {topic}: {exc}") from None
        slices.append(MatrixSlice(u1, u2, sensitive_cols=sens_cols))
        traces.append(tuple(trace))
    return TrainedModel(
        kind=kind,
        shape=train.shape,
        config=cfg,
        slices=tuple(slices),
        slice_traces=tuple(traces),
    )


def train_model(
    kind: str,
    train: ObservationTensor,
    cfg: TrainConfig,
    sensitive: SensitiveMap | None = None,
) -> TrainedModel:
    """Dispatch to the right trainer for ``kind``."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if kind in TENSOR_KINDS:
        return _train_tensor(kind, train, sensitive, cfg)
    return train_matrix(kind, train, sensitive, cfg)


# ---------------------------------------------------------------------------
# prediction


def _predict_cols(model: TrainedModel, factors) -> tuple[int, ...] | None:
    # fairness-aware kinds reconstruct from the non-sensitive columns only
    if model.is_fair:
        return factors.nonsensitive_cols
    return None


def predict(model: TrainedModel, i: int, j: int, k: int) -> float:
    """Predicted score of one (user, curator, topic) cell."""
    n, m, kk = model.shape
    for idx, bound, label in ((i, n, "user"), (j, m, "curator"), (k, kk, "topic")):
        if not 0 <= idx < bound:
            raise IndexError(f"{label} index {idx} out of range [0, {bound})")
    if model.factors is not None:
        return cp_entry(model.factors, i, j, k, _predict_cols(model, model.factors))
    sl = model.slices[k]
    cols = _predict_cols(model, sl)
    u = sl.u_users[i] if cols is None else sl.u_users[i, list(cols)]
    v = sl.u_curators[j] if cols is None else sl.u_curators[j, list(cols)]
    return float(np.dot(u, v))


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
    if model.factors is not None:
        return cp_entries(
            model.factors, users, curators, topics, _predict_cols(model, model.factors)
        )
    out = np.empty(users.size)
    for topic in np.unique(topics):
        sl = model.slices[topic]
        cols = _predict_cols(model, sl)
        u1, u2 = sl.u_users, sl.u_curators
        if cols is not None:
            idx = np.asarray(cols, dtype=np.int64)
            u1, u2 = u1[:, idx], u2[:, idx]
        mask = topics == topic
        out[mask] = np.einsum("er,er->e", u1[users[mask]], u2[curators[mask]])
    return out


def score_curators(model: TrainedModel, user: int, topic: int) -> np.ndarray:
    """Predicted scores of every curator for one (user, topic) pair."""
    n, _, kk = model.shape
    if not 0 <= user < n:
        raise IndexError(f"user index {user} out of range [0, {n})")
    if not 0 <= topic < kk:
        raise IndexError(f"topic index {topic} out of range [0, {kk})")
    if model.factors is not None:
        f = model.factors
        cols = _predict_cols(model, f)
        if cols is None:
            return f.u_curators @ (f.u_users[user] * f.u_topics[topic])
        idx = np.asarray(cols, dtype=np.int64)
        return f.u_curators[:, idx] @ (f.u_users[user, idx] * f.u_topics[topic, idx])
    sl = model.slices[topic]
    cols = _predict_cols(model, sl)
    if cols is None:
        return sl.u_curators @ sl.u_users[user]
    idx = np.asarray(cols, dtype=np.int64)
    return sl.u_curators[:, idx] @ sl.u_users[user, idx]


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
    if k_items < 1:
        raise ValueError("k_items must be >= 1")
    scores = score_curators(model, user, topic)
    m = scores.size
    candidates = np.setdiff1d(np.arange(m), np.asarray(list(exclude), dtype=np.int64))
    if candidates.size == 0:
        return []
    order = np.lexsort((candidates, -scores[candidates]))
    return [int(c) for c in candidates[order[:k_items]]]


# ---------------------------------------------------------------------------
# checkpoints


def _encode_matrix(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}


def _decode_matrix(obj: dict) -> np.ndarray:
    return np.asarray(obj["data"], dtype=np.float64).reshape(obj["shape"])


def save_checkpoint(model: TrainedModel, path: str | Path) -> None:
    """Serialise a trained model to JSON (bit-exact float round trip)."""
    doc: dict = {
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
    }
    if model.factors is not None:
        f = model.factors
        doc["factors"] = {
            "u_users": _encode_matrix(f.u_users),
            "u_curators": _encode_matrix(f.u_curators),
            "u_topics": _encode_matrix(f.u_topics),
            "sensitive_cols": list(f.sensitive_cols),
        }
        doc["slices"] = None
    else:
        doc["factors"] = None
        doc["slices"] = [
            {
                "u_users": _encode_matrix(sl.u_users),
                "u_curators": _encode_matrix(sl.u_curators),
                "sensitive_cols": list(sl.sensitive_cols),
            }
            for sl in model.slices
        ]
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Rebuild a trained model from :func:`save_checkpoint` output."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    dims = doc["dimensions"]
    shape = (dims["n_users"], dims["n_curators"], dims["n_topics"])
    cfg = TrainConfig(**doc["config"])
    factors = None
    slices = None
    if doc.get("factors") is not None:
        f = doc["factors"]
        factors = FactorModel(
            _decode_matrix(f["u_users"]),
            _decode_matrix(f["u_curators"]),
            _decode_matrix(f["u_topics"]),
            sensitive_cols=tuple(f["sensitive_cols"]),
        )
    else:
        slices = tuple(
            MatrixSlice(
                _decode_matrix(sl["u_users"]),
                _decode_matrix(sl["u_curators"]),
                sensitive_cols=tuple(sl["sensitive_cols"]),
            )
            for sl in doc["slices"]
        )
    return TrainedModel(
        kind=doc["kind"],
        shape=shape,
        config=cfg,
        factors=factors,
        slices=slices,
        loss_trace=tuple(doc["loss_trace"]) if doc.get("loss_trace") is not None else None,
        slice_traces=tuple(tuple(t) for t in doc["slice_traces"])
        if doc.get("slice_traces") is not None
        else None,
    )
