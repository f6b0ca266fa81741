"""CP-decomposition kernels shared by all recommenders.

The observed rating tensor is kept in coordinate format: one (user, curator,
topic) index triple plus a rating per observed cell.  A cell's score is the
CP sum of per-column products of the dense float64 factor matrices

    score(i, j, k) = sum_r  U_users[i, r] * U_curators[j, r] * U_topics[k, r]

Losses and gradients only ever touch observed cells; unobserved cells are
never imputed.  :func:`cp_entries`, the public loss and gradient functions
and the trainers run one cell kernel, :func:`_fit_terms` and
:func:`_scatter_plan`, over blocks of :data:`CELL_BLOCK` cells: its buffers
hold one block's rows, never a row per cell, and its bits do not depend on
the block size.

Every index, group label, count and seed the package takes follows one
integer rule.  A scalar is a Python or numpy integer and not a bool
(:func:`_is_int`); an array has an integer dtype, of any width, signed or
not (:func:`_cell_indices`).  A float, a bool or a string is refused, never
cast, so no input is truncated; each in range is checked before its use.

Entries are normalised to a canonical (user, curator, topic) sort order on
construction so that losses and gradients are bit-reproducible across runs
and platforms.  The public functions are pure: they never mutate their
inputs and hold no global state, so concurrent use of them is safe.  A
plan's block buffers belong to the problem that built it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ObservationTensor",
    "FactorModel",
    "cp_entry",
    "cp_entries",
    "masked_loss",
    "masked_gradient",
    "scatter_cell_gradient",
]


@dataclass(frozen=True)
class ObservationTensor:
    """Sparse set of observed (user, curator, topic, rating) cells.

    Ratings are 1.0 for positive implicit feedback and 0.0 for sampled
    negatives in the pipeline; the kernels accept any finite value.
    Construction checks the dimensions and indices by the integer rule and
    the indices' ranges, rejects duplicate (i, j, k) keys and re-sorts
    everything into the canonical order.
    """

    n_users: int
    n_curators: int
    n_topics: int
    users: np.ndarray
    curators: np.ndarray
    topics: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("n_users", "n_curators", "n_topics"):
            if not (_is_int(n := getattr(self, name)) and n >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
            object.__setattr__(self, name, int(n))
        if len({np.size(x) for x in (self.users, self.curators, self.topics, self.values)}) > 1:
            raise ValueError("index and value arrays must have equal length")
        users, curators, topics = (
            x.astype(np.int64, copy=False).ravel()
            for x in _cell_indices(self.shape, self.users, self.curators, self.topics))
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if not np.all(np.isfinite(values)):
            raise ValueError("ratings must be finite")

        flat = (users * self.n_curators + curators) * self.n_topics + topics
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        if flat.size > 1 and np.any(flat[1:] == flat[:-1]):
            raise ValueError("duplicate (user, curator, topic) keys")
        for name, arr in (
            ("users", users[order]),
            ("curators", curators[order]),
            ("topics", topics[order]),
            ("values", values[order]),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_entries(
        cls,
        n_users: int,
        n_curators: int,
        n_topics: int,
        entries: Iterable[tuple[int, int, int, float]],
    ) -> "ObservationTensor":
        """Build from an iterable of (user, curator, topic, rating) tuples."""
        users, curators, topics, values = map(np.asarray, list(zip(*entries)) or [()] * 4)
        return cls(n_users, n_curators, n_topics, users, curators, topics, values)

    @classmethod
    def from_flat(
        cls, shape: Sequence[int], flat: np.ndarray, values: np.ndarray
    ) -> "ObservationTensor":
        """Build from row-major flat cell indices, the inverse of :meth:`flat_indices`."""
        n_users, n_curators, n_topics = shape
        (flat,) = _cell_indices([n_users * n_curators * n_topics], flat, labels=["cell"])
        users = flat // (n_curators * n_topics)
        curators = (flat // n_topics) % n_curators
        return cls(n_users, n_curators, n_topics, users, curators, flat % n_topics, values)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_users, self.n_curators, self.n_topics)

    @property
    def n_entries(self) -> int:
        return int(self.values.size)

    @property
    def n_cells(self) -> int:
        return self.n_users * self.n_curators * self.n_topics

    @property
    def sparsity(self) -> float:
        """Fraction of cells that are observed."""
        return self.n_entries / self.n_cells

    def flat_indices(self) -> np.ndarray:
        """Row-major flat cell index of every entry (canonical order)."""
        return (self.users * self.n_curators + self.curators) * self.n_topics + self.topics

    def entry_tuples(self) -> list[tuple[int, int, int, float]]:
        return [
            (int(i), int(j), int(k), float(v))
            for i, j, k, v in zip(self.users, self.curators, self.topics, self.values)
        ]

    def subset(self, indices: np.ndarray) -> "ObservationTensor":
        """New tensor holding the entries at the given positions."""
        return ObservationTensor(
            self.n_users,
            self.n_curators,
            self.n_topics,
            self.users[indices],
            self.curators[indices],
            self.topics[indices],
            self.values[indices],
        )


@dataclass(frozen=True)
class FactorModel:
    """CP latent factor matrices for users, curators, and topics.

    ``sensitive_cols`` marks the curator-factor columns reserved for the
    one-hot group features; it is empty for models without fairness structure
    and holds exactly two column indices otherwise.
    """

    u_users: np.ndarray
    u_curators: np.ndarray
    u_topics: np.ndarray
    sensitive_cols: tuple[int, ...] = ()

    def __post_init__(self):
        mats = []
        for mat in (self.u_users, self.u_curators, self.u_topics):
            arr = np.asarray(mat, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError("factor matrices must be 2-D")
            mats.append(arr)
        if not (mats[0].shape[1] == mats[1].shape[1] == mats[2].shape[1]):
            raise ValueError("factor matrices must share their column count")
        object.__setattr__(self, "u_users", mats[0])
        object.__setattr__(self, "u_curators", mats[1])
        object.__setattr__(self, "u_topics", mats[2])
        if not all(map(_is_int, self.sensitive_cols)):
            raise ValueError(f"sensitive_cols must be ints, got {list(self.sensitive_cols)}")
        cols = tuple(sorted(int(c) for c in self.sensitive_cols))
        if cols:
            if len(cols) != 2 or cols[0] == cols[1]:
                raise ValueError("sensitive_cols must name exactly 2 distinct columns")
            if cols[0] < 0 or cols[1] >= self.rank:
                raise IndexError("sensitive column index out of range")
        object.__setattr__(self, "sensitive_cols", cols)

    @property
    def rank(self) -> int:
        return int(self.u_users.shape[1])

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.u_users.shape[0], self.u_curators.shape[0], self.u_topics.shape[0])

    @property
    def nonsensitive_cols(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.rank) if c not in self.sensitive_cols)


def _is_int(x) -> bool:
    """Whether ``x`` is a Python or numpy integer and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_index(i: int, bound: int, label: str) -> None:
    """An :class:`IndexError` unless ``i`` is an integer (:func:`_is_int`) in ``[0, bound)``."""
    if not _is_int(i):
        raise IndexError(f"{label} index must be an integer, got {type(i).__name__}")
    if not 0 <= i < bound:
        raise IndexError(f"{label} index {i} out of range [0, {bound})")


def _cell_indices(
    shape: Sequence[int], *index, labels: Sequence[str] = ("user", "curator", "topic")
) -> list[np.ndarray]:
    """Parallel index arrays, one per axis of ``shape`` and named by
    ``labels``, as numpy arrays, each of an integer dtype and in range, an
    empty one as intp: an :class:`IndexError` naming the first bad value of
    an axis otherwise."""
    index = [np.asarray(x) if np.size(x) else np.empty(0, dtype=np.intp) for x in index]
    if any(x.dtype.kind not in "iu" for x in index):
        raise IndexError("cell indices must be integers")  # a cast would turn 0.5 into 0
    for idx, bound, label in zip(index, shape, labels):
        bad = (idx < 0) | (idx >= bound)
        if bad.any():
            raise IndexError(f"{label} index {idx[bad][0]} out of range [0, {bound})")
    return index


def cp_entry(model: FactorModel, i: int, j: int, k: int) -> float:
    """Reconstructed score of one cell: :func:`cp_entries` of that cell."""
    return float(cp_entries(model, [i], [j], [k])[0])


def cp_entries(
    model: FactorModel, users: np.ndarray, curators: np.ndarray, topics: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`cp_entry` over parallel index arrays: the cell
    kernel's predictions (:func:`_cp_sums`)."""
    index = _cell_indices(model.shape, users, curators, topics)
    rows = _row_buffers(index[0].size, [model.rank] * 3)
    return _cp_sums([model.u_users, model.u_curators, model.u_topics], index, rows)


def _check_dims(model: FactorModel, obs: ObservationTensor) -> None:
    if model.shape != obs.shape:
        raise ValueError(
            f"model dimensions {model.shape} do not match observations {obs.shape}"
        )


# Cells per block of the cell kernel: at rank 20 a block's row, contribution
# and bin buffers fit in a 2 MB L2 cache
CELL_BLOCK = 2048


def _cell_blocks(n_cells: int) -> list[slice]:
    """Consecutive slices of at most :data:`CELL_BLOCK` of ``n_cells`` cells;
    no cells are one empty block."""
    return [slice(start, start + CELL_BLOCK) for start in range(0, max(n_cells, 1), CELL_BLOCK)]


def _row_buffers(n_cells: int, widths: Sequence[int]) -> list[np.ndarray]:
    """One (block, width) buffer per factor over ``n_cells`` cells, for :func:`_gather` to fill."""
    return [np.empty((min(n_cells, CELL_BLOCK), w)) for w in widths]


def _gather(
    factors: Sequence[np.ndarray], index: Sequence[np.ndarray], part: slice,
    rows: list[np.ndarray],
) -> list[np.ndarray]:
    """Each factor's rows at its ``index[part]``, gathered into its buffer of ``rows``."""
    out = []
    for u, idx, buf in zip(factors, index, rows):
        idx = idx[part]
        out.append(np.take(u, idx, axis=0, out=buf[: idx.size], mode="clip"))  # "raise" copies
    return out


def _cp_sums(
    factors: Sequence[np.ndarray], index: Sequence[np.ndarray], rows: list[np.ndarray]
) -> np.ndarray:
    """Each cell's CP sum over ``factors`` at its ``index``, one cell block's
    rows at a time; a cell's sum does not depend on its block.  The blocks
    run last to first, so the first block's rows stay in ``rows``."""
    sums = np.empty(index[0].size)
    spec = ",".join(["er"] * len(factors)) + "->e"
    for part in reversed(_cell_blocks(sums.size)):
        np.einsum(spec, *_gather(factors, index, part, rows), out=sums[part])
    return sums


def _fit_terms(
    train: ObservationTensor, factors: list[np.ndarray], lam: float, rows: list[np.ndarray]
):
    """(predictions, residuals, masked ridge loss) of the cells; the
    predictions are :func:`_cp_sums`, which leaves the first block's rows in
    ``rows``.

    A one-topic slice passes no topic factor: it is a constant row of ones,
    so the CP products leave it out, and the ridge covers only the factors
    the model stores.
    """
    preds = _cp_sums(factors, (train.users, train.curators, train.topics), rows)
    resid = preds - train.values
    reg = sum(float(np.sum(u * u)) for u in factors)
    return preds, resid, 0.5 * float(np.dot(resid, resid)) + 0.5 * lam * reg


def _scatter_plan(
    train: ObservationTensor, params: Sequence[np.ndarray], rows: list[np.ndarray]
) -> Callable[..., list[np.ndarray]]:
    """``scatter(factors, w, held=False)`` gives the gradients of
    ``sum_e w_e * score_e`` w.r.t. the free ``params`` (their shapes fix the
    plan), one cell block at a time: it gathers the block's rows of
    ``factors``, which may be wider than a parameter, into ``rows``, and adds
    each parameter's contributions to its running row sums.  ``held`` says
    that ``rows`` hold the first block's rows already, as :func:`_fit_terms`
    leaves them.

    ``w * a`` is formed once per block, in place of the first factor's rows:
    every contribution is ``((w * x) * y)``, the order that the bits depend
    on.  Each sum is a bincount over flat (row, column) bins, so each bin
    gets its additions in cell order: the first block's bincount starts the
    sums, and each later one continues those of the rows ``lo:hi`` that the
    block touches, which it takes as its first weights.  A sum that starts
    at +0.0 is never -0.0, so ``0.0 + sum`` is the sum, and the bits are
    those of one bincount over every cell.  The plan holds each block's row
    bounds, the first block's bins, which are all the bins of a problem of
    one block, and one contribution and one intp bin buffer, each a block as
    wide as the widest parameter plus the widest running sum.
    """
    index = (train.users, train.curators, train.topics)
    shapes = [p.shape for p in params]
    tables = [np.arange(n_rows * w).reshape(n_rows, w) for n_rows, w in shapes]  # the bins
    blocks = _cell_blocks(train.n_entries)
    first = [t[idx[blocks[0]]].ravel() for t, idx in zip(tables, index)]
    bounds = [[(int(idx[part].min()), int(idx[part].max()) + 1) for part in blocks[1:]]
              for idx in index[: len(shapes)]]
    size = rows[0].shape[0] * max(w for _, w in shapes) + max(t.size for t in tables)
    contrib, wide = np.empty(size), np.empty(size, dtype=np.intp)

    def scatter(factors: list[np.ndarray], weights: np.ndarray, held: bool = False):
        grads: list = [None] * len(shapes)
        for k, part in enumerate(blocks):
            w_b = weights[part, None]
            n = w_b.shape[0]
            got = [r[:n] for r in rows] if held and not k else _gather(factors, index, part, rows)
            for mode, (n_rows, w) in enumerate(shapes):
                if mode == 1:  # the first factor's rows are free after its contribution
                    np.multiply(w_b, got[0], out=got[0])
                head = w_b if mode == 0 else got[0][:, :w]
                others = [r[:, :w] for other, r in enumerate(got) if other not in (0, mode)]
                lo, hi = bounds[mode][k - 1] if k else (0, 0)
                span = (hi - lo) * w  # the running sums that this block continues
                c = contrib[span : span + n * w].reshape(n, w)
                if others:
                    np.multiply(head, others[0], out=c)
                else:  # a one-topic slice's curator parameter: w * a is its contribution
                    np.copyto(c, head)
                for x in others[1:]:
                    np.multiply(c, x, out=c)
                if not k:
                    grads[mode] = np.bincount(first[mode], contrib[: n * w], n_rows * w)
                    continue
                idx = index[mode][part] - lo if lo else index[mode][part]
                np.take(tables[mode], idx, axis=0, out=wide[span : span + n * w].reshape(n, w),
                        mode="clip")
                np.copyto(wide[:span], tables[mode].ravel()[:span])
                sums = grads[mode][lo * w : hi * w]
                np.copyto(contrib[:span], sums)
                sums[:] = np.bincount(wide[: span + n * w], contrib[: span + n * w], span)
        return [g.reshape(shape) for g, shape in zip(grads, shapes)]

    return scatter


def _model_rows(model: FactorModel, obs: ObservationTensor) -> tuple[list, list]:
    """A model's factors and their row buffers over ``obs``, for the cell kernel."""
    _check_dims(model, obs)
    factors = [model.u_users, model.u_curators, model.u_topics]
    return factors, _row_buffers(obs.n_entries, [model.rank] * 3)


def masked_loss(model: FactorModel, obs: ObservationTensor, lam: float) -> float:
    """Ridge-regularised squared error over the observed cells only.

        1/2 * sum_observed (rating - score)^2
        + lam/2 * (||U_users||_F^2 + ||U_curators||_F^2 + ||U_topics||_F^2)
    """
    factors, rows = _model_rows(model, obs)
    return _fit_terms(obs, factors, lam, rows)[2]


def scatter_cell_gradient(
    model: FactorModel,
    obs: ObservationTensor,
    cell_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``sum_e w_e * score_e`` w.r.t. each factor matrix.

    The data term of the masked loss, the statistical-parity penalty and any
    other function of the per-cell scores all reduce to this scatter with a
    suitable per-cell weight vector.
    """
    factors, rows = _model_rows(model, obs)
    return tuple(_scatter_plan(obs, factors, rows)(factors, cell_weights))


def masked_gradient(
    model: FactorModel, obs: ObservationTensor, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of :func:`masked_loss` w.r.t. each factor matrix."""
    factors, rows = _model_rows(model, obs)
    resid = _fit_terms(obs, factors, lam, rows)[1]
    grads = _scatter_plan(obs, factors, rows)(factors, resid, held=True)
    return tuple(g + lam * u for g, u in zip(grads, factors))
