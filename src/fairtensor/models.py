"""Training and prediction for the six recommender variants.

Tensor kinds factor the full user x curator x topic tensor; a matrix kind
trains its tensor kind's problem on each topic slice, an N x M x 1 tensor
whose topic factor is a constant row of ones.  :func:`train_model` trains
all six kinds: it checks a kind once, then trains each problem in turn.

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
The orthogonality penalty is (mu/2) * ||S^T U_ns||_F^2 on the free
curator-factor columns U_ns; after descent those columns are also projected
onto the orthogonal complement of span(S) exactly.  Fairness-aware kinds predict
from the non-sensitive columns only; all other kinds use every column.

A kind's trained factors are one stack (:func:`_layout`), which training
writes, :func:`_assemble` reads and a format-2 checkpoint stores.

GD and ALS run one loop, :func:`_iterate`.  Constant blocks, the sensitive
features and a slice's ones topic row, are never parameters, so they cannot
drift.  Each solver builds its buffers and plans once per problem, and the
plans change no bit of any factor or trace.  GD's buffers hold cell blocks;
ALS holds one array the size of the cells times the rank, its design.
Training is deterministic given (data, config, seed); trained models are
immutable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data import SensitiveMap
from .errors import ConfigError, _check_dense_cells, _fits, check_fields, check_types, read_json
from .tensor_core import (
    CELL_BLOCK,
    FactorModel,
    ObservationTensor,
    _check_index,
    _cell_blocks,
    _cell_indices,
    _fit_terms,
    _gather,
    _is_int,
    _model_rows,
    _row_buffers,
    _scatter_plan,
)

__all__ = [
    "MODEL_KINDS",
    "TENSOR_KINDS",
    "MATRIX_KINDS",
    "FAIR_KINDS",
    "TrainConfig",
    "TrainedModel",
    "train_model",
    "train_problem",
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

CHECKPOINT_VERSION = 2
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

    Tensor kinds carry one :class:`FactorModel` and its loss trace, matrix
    kinds one (n, m, 1) :class:`FactorModel` and one trace per topic, its
    topic row ones.  Each kind sets exactly its own two fields, so a model
    holds one layout, the one :func:`_layout` gives.  Prediction reads
    neither layout directly but the stacked per-topic arrays of
    :attr:`topic_factors`.
    """

    kind: str
    shape: tuple[int, int, int]
    config: TrainConfig
    factors: FactorModel | None = None
    slices: tuple[FactorModel, ...] | None = None
    loss_trace: tuple[float, ...] | None = None
    slice_traces: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        problems, modes, width, cols = _layout(self.kind, self.shape, self.config)
        object.__setattr__(self, "shape", tuple(map(int, self.shape)))  # JSON-shaped
        # the layout fields set, in declaration order: those after kind, shape and config
        given = [f.name for f in fields(self)[3:] if getattr(self, f.name) is not None]
        tensor = self.kind in TENSOR_KINDS
        own = ["factors", "loss_trace"] if tensor else ["slices", "slice_traces"]
        if given != own:
            raise ValueError(f"{self.kind} models set exactly {own}, not {given}")
        if tensor:
            fs, traces, want = [self.factors], [self.loss_trace], self.shape
        else:
            fs, traces, want = self.slices, self.slice_traces, (*modes, 1)
            if not len(fs) == len(traces) == problems:
                raise ValueError("one slice and one slice trace per topic required")
        for f in fs:
            if f.shape != want:
                raise ValueError(f"{self.kind} factors of shape {f.shape} in a {self.shape} "
                                 f"model must have shape {want}")
            if (f.rank, f.sensitive_cols) != (width, cols):
                raise ValueError(
                    f"{self.kind} factors of width {f.rank} with sensitive_cols "
                    f"{list(f.sensitive_cols)}; the config gives {width} with {list(cols)}"
                )
            if not (tensor or np.all(f.u_topics == 1.0)):
                raise ValueError(f"{self.kind} slices must have a topic row of ones")
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


def _parity_terms(
    preds: np.ndarray, is0: np.ndarray, weight: float
) -> tuple[float, np.ndarray]:
    """:func:`parity_penalty`'s value and per-cell gradient weights, from the
    cells' predictions."""
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

    Each call is :func:`_fit_terms`, the parity weights added to the
    residual with ``groups`` (RTC/RMC), the scatter of the :func:`_scatter_plan`
    that the free blocks ``params`` fix, the ridge, and with ``s`` (FT/FM)
    the orthogonality term.  The features join the curator rows as their
    last two columns, where :meth:`TrainConfig.fair_layout` puts them.
    """
    is0 = None if groups is None else _group0_cells(train.curators, groups)
    widths = [p.shape[1] for p in params]
    features = 0 if s is None else s.shape[1]  # they join the curator block's rows
    rows = _row_buffers(train.n_entries, [widths[0], widths[1] + features, *widths[2:]])
    scatter = _scatter_plan(train, params, rows)

    def objective(params):
        factors = params if s is None else [params[0], np.hstack([params[1], s]), *params[2:]]
        preds, resid, value = _fit_terms(train, factors, cfg.lam, rows)
        if is0 is not None:
            parity, cell_weights = _parity_terms(preds, is0, cfg.parity_weight)
            value += parity
            resid = resid + cell_weights
        grads = [g + cfg.lam * p for g, p in zip(scatter(factors, resid, held=True), params)]
        if s is not None:
            ortho, g_ortho = ortho_penalty(params[1], s, cfg.ortho_weight)
            value += ortho
            grads[1] = grads[1] + g_ortho
        return value, grads

    return objective


def _iterate(start: Callable[[], float], step: Callable[[], float], cfg: TrainConfig,
             solver: str, hint: str) -> list[float]:
    """The loss trace of both solvers: ``start()``, the loss at the initial
    factors, then one ``step()``, which makes an iterate and gives its loss,
    until ``cfg.max_iters`` steps or :func:`_converged`.  A non-finite loss
    is a :class:`ConfigError` naming the iterate, and ``hint`` after a step;
    overflow raises no numpy warning, so a diverging run surfaces once.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        trace = [start()]
        while math.isfinite(trace[-1]):
            if len(trace) > cfg.max_iters or (len(trace) > 1 and _converged(*trace[-2:], cfg.tol)):
                return trace
            trace.append(step())
    if len(trace) == 1:
        hint = "the loss at the initial factors is not finite; rescale the ratings"
    raise ConfigError(f"{solver} diverged (non-finite loss at iterate {len(trace) - 1}); {hint}")


def _descend(
    params: list[np.ndarray], objective: Objective, cfg: TrainConfig
) -> tuple[list[np.ndarray], list[float]]:
    """Full-batch constant-step gradient descent, run by :func:`_iterate`:
    a step is one update and one objective call."""
    grads: list[np.ndarray] = []

    def evaluate() -> float:
        nonlocal grads
        value, grads = objective(params)
        return value

    def step() -> float:
        nonlocal params
        params = [p - cfg.learning_rate * g for p, g in zip(params, grads)]
        return evaluate()

    trace = _iterate(evaluate, step, cfg, "gradient descent",
                     "lower learning_rate or the penalty weight")
    return params, trace


def _als(
    train: ObservationTensor, params: list[np.ndarray], cfg: TrainConfig
) -> tuple[list[np.ndarray], list[float]]:
    """Alternating least squares over the free blocks, in mode order, run by
    :func:`_iterate`: a step is one sweep and one :func:`_fit_terms`.

    Each sweep solves every row of every free block exactly (normal equations
    with a ridge), so the loss trace is non-increasing up to numerical noise;
    rows without cells are zero.  Each mode's plan, built once, sorts the
    cells by (row length, row), a row's cells kept in cell order, so the rows
    of one length L are one (rows, L, rank) slab of the design buffer, and
    builds each length's Gram, right-hand-side and design views.  The modes
    share one design buffer: each half-sweep writes all of it before its
    views read it.  Per sweep,
    each length makes one batched product for its rows' Grams and one for
    their right-hand sides, and one stacked solve per mode solves every
    nonempty row.  numpy's matmul loop makes, for each row, the call a
    per-row product makes (BLAS syrk for a Gram, gemv for a right-hand side)
    on the same operands and strides, so the bits do not depend on the
    batching; a padded gemm would change them.

    A cell's design row is the product of the other modes' rows.  When a
    mode's two other modes have fewer row pairs than the problem has cells,
    the half-sweep forms every pair's product once, a table, and takes one
    table row per cell; otherwise it gathers each other mode's rows, a cell
    block at a time, and multiplies them.  Both give each element the same
    one product.
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
    ridge_eye = ridge * np.eye(rank)
    rows = _row_buffers(train.n_entries, [rank] * len(factors))  # one cell block's rows
    design = np.empty((train.n_entries, rank))  # every mode's, in that mode's cell order
    plans = []
    for mode, u in enumerate(factors):
        counts = np.bincount(index[mode], minlength=u.shape[0])
        order = np.lexsort((index[mode], counts[index[mode]]))  # stable: rows keep cell order
        nonempty = np.flatnonzero(counts)
        nonempty = nonempty[np.argsort(counts[nonempty], kind="stable")]
        lengths, n_rows = np.unique(counts[nonempty], return_counts=True)
        others = [other for other in range(len(factors)) if other != mode]
        sizes = [factors[other].shape[0] for other in others]
        table, gathers = None, [(other, index[other][order]) for other in others]
        if len(others) == 2 and sizes[0] * sizes[1] < train.n_entries:
            table, gathers = (*others, gathers[0][1] * sizes[1] + gathers[1][1]), []
        y = train.values[order]
        gram, rhs = np.empty((nonempty.size, rank, rank)), np.empty((nonempty.size, rank, 1))
        buckets, r0, c0 = [], 0, 0  # (zt, zb, y, gram, rhs) views of each row length
        for length, n in zip(lengths.tolist(), n_rows.tolist()):
            span = slice(c0, c0 + n * length)
            zb = design[span].reshape(n, length, rank)  # a view of one slab
            zt = zb.transpose(0, 2, 1)  # both operands view one buffer: syrk per row
            yb = y[span].reshape(n, length, 1)
            buckets.append((zt, zb, yb, gram[r0 : r0 + n], rhs[r0 : r0 + n]))
            r0, c0 = r0 + n, c0 + n * length
        plans.append((nonempty, table, gathers, buckets, gram, rhs))

    def loss() -> float:
        return _fit_terms(train, factors, ridge, rows)[2]

    def sweep() -> float:
        for mode, (nonempty, table, gathers, buckets, gram, rhs) in enumerate(plans):
            # the design, in this mode's cell order, written whole before the
            # bucket views read it
            if table is not None:
                o1, o2, cells = table
                pairs = (factors[o1][:, None, :] * factors[o2][None, :, :]).reshape(-1, rank)
                np.take(pairs, cells, axis=0, out=design, mode="clip")
            elif len(gathers) == 1:  # a one-topic slice's design is the other mode's rows
                ((other, cells),) = gathers
                np.take(factors[other], cells, axis=0, out=design, mode="clip")
            else:
                us, idx = [factors[other] for other, _ in gathers], [g for _, g in gathers]
                for part in _cell_blocks(train.n_entries):
                    np.multiply(*_gather(us, idx, part, rows), out=design[part])
            for zt, zb, yb, g, r in buckets:
                np.matmul(zt, zb, out=g)
                np.matmul(zt, yb, out=r)
            gram += ridge_eye
            factors[mode] = np.zeros((factors[mode].shape[0], rank))
            try:
                factors[mode][nonempty] = np.linalg.solve(gram, rhs)[..., 0]
            except np.linalg.LinAlgError:
                raise ConfigError(f"ALS solve is singular at lam={cfg.lam}; raise lam") from None
        return loss()

    trace = _iterate(loss, sweep, cfg, "ALS", "rescale the ratings or lower lam")
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
    factors, rows = _model_rows(model, obs)
    value, cell_weights = _parity_terms(_fit_terms(obs, factors, 0.0, rows)[0], is0, weight)
    return value, tuple(_scatter_plan(obs, factors, rows)(factors, cell_weights, held=True))


def ortho_penalty(u: np.ndarray, s: np.ndarray, weight: float) -> tuple[float, np.ndarray]:
    """Penalty (weight/2) * ||S^T U||_F^2 on the free curator block ``u`` and
    its gradient weight * S S^T U.

    Stability: under constant-step descent this term alone contracts only
    when learning_rate * weight * max(group size) < 2, since the per-column
    Hessian is weight * S S^T.
    """
    m = s.T @ u
    return 0.5 * weight * float(np.sum(m * m)), weight * (s @ m)


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

    A matrix kind's one-topic slice passes its user and curator factors
    only.  FT and FM pass the curator factor at its full drawn width; the
    sensitive columns' draws are dropped and the features take their place.
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


class _Layout(NamedTuple):
    """The problems a kind trains on a tensor's shape and their factors' layout."""

    problems: int  # 1 for a tensor kind, one per topic for a matrix kind
    modes: tuple[int, ...]  # each problem's factor row counts: (n, m, K) or (n, m)
    width: int  # the factors' column count
    sensitive_cols: tuple[int, ...]


def _layout(kind: str, shape: Sequence[int], cfg: TrainConfig) -> _Layout:
    """The layout of ``kind`` on an (n, m, K) tensor under ``cfg``: a
    (problems, rows, width) factor stack, each problem's modes' rows one
    after another.  A tensor kind has one problem of modes (n, m, K), a
    matrix kind one per topic of modes (n, m); a slice's ones topic row is
    no parameter.  An unknown kind is a :class:`ConfigError`, dimensions
    that are not integers (:func:`tensor_core._is_int`) a ``ValueError``."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    if not all(map(_is_int, shape)):
        raise ValueError(f"dimensions must be ints, got {shape}")
    n, m, kk = map(int, shape)
    width, cols = cfg.fair_layout() if kind in FAIR_KINDS else (cfg.rank, ())
    if kind in TENSOR_KINDS:
        return _Layout(1, (n, m, kk), width, cols)
    return _Layout(kk, (n, m), width, cols)


def _training_layout(
    kind: str, train: ObservationTensor, cfg: TrainConfig, sensitive: SensitiveMap | None
) -> _Layout:
    """The checks :func:`train_model` makes before it trains, and the layout.

    FT's and FM's ridge covers the whole curator factor, the constant
    feature columns included.  The kind's factor stack, cell block rows and
    ALS design and Gram stack are each checked against ``MAX_DENSE_CELLS``
    before any is allocated.
    """
    layout = _layout(kind, train.shape, cfg)
    problems, modes, total, _ = layout
    if train.n_entries == 0:
        raise ConfigError("training set is empty")
    _check_sensitive(kind, train, sensitive)
    _check_dense_cells(problems * sum(modes) * total, f"{kind}'s factor set at width {total}")
    block = min(train.n_entries, CELL_BLOCK)
    _check_dense_cells(len(modes) * block * total, f"{kind}'s cell block rows")
    if kind in ("OTC", "OMC"):
        _check_dense_cells(train.n_entries * total, f"{kind}'s ALS design")
        _check_dense_cells(sum(modes) * total * total, f"{kind}'s ALS Gram stack")
    return layout


def train_problem(
    kind: str,
    train: ObservationTensor,
    cfg: TrainConfig,
    sensitive: SensitiveMap | None,
    index: int,
) -> tuple[list[np.ndarray], tuple[float, ...]]:
    """Factors and loss trace of problem ``index`` of ``kind``: the tensor
    itself (index 0) for a tensor kind, topic ``index``'s slice for a matrix
    kind.  The factors are one (rows, width) array per mode of
    :attr:`_Layout.modes`; a slice's ones topic row is not among them.

    It makes :func:`train_model`'s pre-training checks, then trains the one
    problem with :func:`_train`, as :func:`train_model` and an experiment's
    fit jobs do from the layout they checked once.  ``index`` may be a
    Python or numpy integer; a float or a bool is an :class:`IndexError`.
    """
    layout = _training_layout(kind, train, cfg, sensitive)
    if not (_is_int(index) and 0 <= index < layout.problems):
        raise IndexError(f"{kind} has no problem {index!r} (it has {layout.problems})")
    out = np.empty((sum(layout.modes), layout.width))
    trace = _train(kind, train, cfg, sensitive, layout, index, out)
    return np.split(out, np.cumsum(layout.modes)[:-1]), trace


def _train(
    kind: str, train: ObservationTensor, cfg: TrainConfig, sensitive: SensitiveMap | None,
    layout: _Layout, index: int, out: np.ndarray,
) -> tuple[float, ...]:
    """:func:`train_problem` of problem ``index``, a Python or numpy integer
    below ``layout.problems``, from the :class:`_Layout` that
    :func:`_training_layout` gave for these arguments.  It writes the
    factors into ``out``, the problem's row of the stack, and returns the trace.

    Every problem draws its init from one generator seeded with
    ``cfg.seed``, in problem order, and empty slices draw none.  So problem
    ``index`` advances the generator past the inits of the non-empty
    problems before it, one draw per value, and its factors are bit for bit
    those it gets inside :func:`train_model`.  An empty slice gets zero
    factors (FM's keep the features) and an empty trace.  A slice's errors
    name its topic.
    """
    n_problems, modes, width, sens_cols = layout
    rng = np.random.default_rng(cfg.seed)
    obs, prefix = train, ""
    if kind in MATRIX_KINDS:
        before = int(np.count_nonzero(np.bincount(train.topics, minlength=n_problems)[:index]))
        # each init value is one 64-bit draw; a numpy-int count can overflow
        rng.bit_generator.advance(before * sum(modes) * width)
        mask = train.topics == index
        cells = train.users[mask] * train.n_curators + train.curators[mask]
        obs = ObservationTensor.from_flat((*modes, 1), cells, train.values[mask])
        prefix = f"topic {index}: "
    if obs.n_entries == 0:
        out[...] = 0.0
        if kind == "FM":
            out[modes[0]:, sens_cols] = sensitive.matrix
        return ()
    try:
        params, trace = _fit(kind, obs, sensitive, cfg, _init_factors(rng, modes, width))
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None
    np.concatenate(params, out=out)
    return tuple(trace)


def _assemble(kind: str, shape: tuple[int, int, int], cfg: TrainConfig, stack: np.ndarray,
              traces: Sequence[Sequence[float]]) -> TrainedModel:
    """The :class:`TrainedModel` of a kind's factor stack (:func:`_layout`)
    and one loss trace per problem.  The stack's shape is checked before
    anything is built; the model's factors are views of it."""
    problems, modes, width, cols = _layout(kind, shape, cfg)
    want = (problems, sum(modes), width)
    if stack.ndim == 3 and stack.shape[2] != width:
        raise ValueError(f"{kind} factors of width {stack.shape[2]}; the config gives {width}")
    if stack.shape != want:
        raise ValueError(f"{kind} factors of shape {stack.shape} in a {tuple(shape)} model "
                         f"must have shape {want}")
    if len(traces) != problems:
        raise ValueError(f"{kind} needs one loss trace per problem ({problems}), got {len(traces)}")
    traces = tuple(map(tuple, traces))
    ones = [] if kind in TENSOR_KINDS else [np.ones((1, width))]  # the slices' topic row
    fs = tuple(FactorModel(*np.split(f, np.cumsum(modes)[:-1]), *ones, sensitive_cols=cols)
               for f in stack)
    if kind in TENSOR_KINDS:
        return TrainedModel(kind, shape, cfg, factors=fs[0], loss_trace=traces[0])
    return TrainedModel(kind, shape, cfg, slices=fs, slice_traces=traces)


def train_model(
    kind: str,
    train: ObservationTensor,
    cfg: TrainConfig,
    sensitive: SensitiveMap | None = None,
) -> TrainedModel:
    """Train one model of ``kind``: the pre-training checks of
    :func:`_training_layout` once, :func:`_train` of each problem in turn
    into one factor stack, then :func:`_assemble`.  A matrix kind's errors
    name the lowest failing topic."""
    layout = _training_layout(kind, train, cfg, sensitive)
    stack = np.empty((layout.problems, sum(layout.modes), layout.width))
    traces = [_train(kind, train, cfg, sensitive, layout, index, stack[index])
              for index in range(layout.problems)]
    return _assemble(kind, train.shape, cfg, stack, traces)


# ---------------------------------------------------------------------------
# prediction


def predict(model: TrainedModel, i: int, j: int, k: int) -> float:
    """Predicted score of one (user, curator, topic) cell."""
    return float(predict_cells(model, [i], [j], [k])[0])


def predict_cells(
    model: TrainedModel,
    users: np.ndarray,
    curators: np.ndarray,
    topics: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`predict` over parallel index arrays.

    The cells' factor rows are gathered one :data:`~fairtensor.tensor_core.CELL_BLOCK`
    of cells at a time, so memory beside the output does not grow with the
    cell count; each cell's sum is the same whatever the block.
    """
    users, curators, topics = _cell_indices(model.shape, users, curators, topics)
    a, b = model.topic_factors
    out = np.empty(users.size)
    for part in _cell_blocks(users.size):
        t = topics[part]
        np.einsum("er,er->e", a[t, users[part]], b[t, curators[part]], out=out[part])
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
    keep[np.fromiter(exclude, np.intp, len(exclude))] = False
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
    is min(k_items, number of non-excluded curators).  Every argument but
    ``model`` may be a Python or numpy integer, or hold them; a float or a
    bool is an :class:`IndexError`, or a :class:`ConfigError` for ``k_items``.
    """
    if not _is_int(k_items):
        raise ConfigError(f"k_items must be int, got {type(k_items).__name__}")
    if k_items < 1:
        raise ConfigError("k_items must be >= 1")
    scores = score_curators(model, user, topic)
    for c in exclude:
        _check_index(c, scores.size, "curator")
    return _top_indices(scores, k_items, exclude).tolist()


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: TrainedModel, path: str | Path) -> None:
    """Serialise a trained model to JSON (bit-exact float round trip).

    Format 2's keys are ``format_version``, ``kind``, ``dimensions``
    (``n_users``, ``n_curators``, ``n_topics``), ``config`` (the
    :class:`TrainConfig` fields), ``factors``, the factor stack of
    :func:`_layout` as ``{"shape": [problems, rows, width], "data": [...]}``
    in row-major order, and ``traces``, one loss trace per problem.
    """
    if model.factors is not None:
        fs, traces, n_modes = [model.factors], [model.loss_trace], 3
    else:
        fs, traces, n_modes = model.slices, model.slice_traces, 2
    stack = np.stack([np.concatenate((f.u_users, f.u_curators, f.u_topics)[:n_modes]) for f in fs])
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "dimensions": dict(zip(("n_users", "n_curators", "n_topics"), model.shape)),
        "config": asdict(model.config),
        "factors": {"shape": list(stack.shape), "data": stack.ravel().tolist()},
        "traces": [list(t) for t in traces],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Rebuild a trained model from :func:`save_checkpoint` output.

    An unreadable, malformed or inconsistent checkpoint, one of another
    ``format_version`` or one with a key that format 2 does not define, is a
    :class:`ConfigError`.
    """
    doc = read_json(path, "checkpoint")
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if not _fits(int, version) or version != CHECKPOINT_VERSION:  # true == 1.0 == 1
        raise ConfigError(
            f"checkpoint {path}: format_version {version!r} is not {CHECKPOINT_VERSION}"
        )
    try:
        unknown = set(doc) - {"format_version", "kind", "dimensions", "config", "factors", "traces"}
        if unknown:
            raise ValueError(f"format {CHECKPOINT_VERSION} defines no key {sorted(unknown)}")
        dims, factors = doc["dimensions"], doc["factors"]
        config = TrainConfig(**check_fields(TrainConfig, doc["config"], "checkpoint config"))
        stack = np.asarray(factors["data"], dtype=np.float64).reshape(factors["shape"])
        if not np.all(np.isfinite(stack)):
            raise ValueError("factor values must be finite")
        shape = (dims["n_users"], dims["n_curators"], dims["n_topics"])
        return _assemble(doc["kind"], shape, config, stack, doc["traces"])
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} lacks key {exc}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None
