"""CP-decomposition kernels shared by all recommenders.

The observed rating tensor is kept in coordinate format: one (user, curator,
topic) index triple plus a rating per observed cell.  Factor matrices are
dense float64 arrays with one column per latent dimension.  Reconstruction of
a cell is the usual CP sum of per-column products

    score(i, j, k) = sum_r  U_users[i, r] * U_curators[j, r] * U_topics[k, r]

Losses and gradients only ever touch observed cells; unobserved cells are
never imputed.

Entries are normalised to a canonical (user, curator, topic) sort order on
construction so that losses and gradients are bit-reproducible across runs
and platforms.  All functions here are pure: they never mutate their inputs
and hold no global state, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import _fits

__all__ = [
    "ObservationTensor",
    "FactorModel",
    "cp_entry",
    "cp_entries",
    "masked_loss",
    "masked_gradient",
]


@dataclass(frozen=True)
class ObservationTensor:
    """Sparse set of observed (user, curator, topic, rating) cells.

    In the recommendation pipeline ratings are 1.0 for positive implicit
    feedback and 0.0 for sampled negatives; the kernels themselves accept any
    finite value so synthetic oracles can exercise them with arbitrary reals.

    Construction validates index ranges, rejects duplicate (i, j, k) keys and
    re-sorts everything into canonical (user, curator, topic) order.
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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        users = np.asarray(self.users, dtype=np.int64).ravel()
        curators = np.asarray(self.curators, dtype=np.int64).ravel()
        topics = np.asarray(self.topics, dtype=np.int64).ravel()
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if not (users.size == curators.size == topics.size == values.size):
            raise ValueError("index and value arrays must have equal length")
        _check_indices(self.shape, users, curators, topics)
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
        rows = list(entries)
        if rows:
            users, curators, topics, values = map(np.asarray, zip(*rows))
        else:
            users = curators = topics = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64)
        return cls(n_users, n_curators, n_topics, users, curators, topics, values)

    @classmethod
    def from_flat(
        cls, shape: Sequence[int], flat: np.ndarray, values: np.ndarray
    ) -> "ObservationTensor":
        """Build from row-major flat cell indices, the inverse of :meth:`flat_indices`."""
        n_users, n_curators, n_topics = shape
        flat = np.asarray(flat, dtype=np.int64)
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
        if not all(_fits(int, c) or isinstance(c, np.integer) for c in self.sensitive_cols):
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


def _check_index(i: int, bound: int, label: str) -> None:
    if not 0 <= i < bound:
        raise IndexError(f"{label} index {i} out of range [0, {bound})")


def _check_indices(shape: Sequence[int], *index: np.ndarray) -> None:
    """Vectorised :func:`_check_index` over parallel (user, curator, topic)
    index arrays; the first bad value of an axis is the one reported."""
    for idx, bound, label in zip(index, shape, ("user", "curator", "topic")):
        bad = (idx < 0) | (idx >= bound)
        if bad.any():
            _check_index(int(idx[bad][0]), bound, label)


def cp_entry(model: FactorModel, i: int, j: int, k: int) -> float:
    """Reconstructed score of one cell: :func:`cp_entries` of that cell."""
    _check_indices(model.shape, *np.atleast_1d(i, j, k))
    return float(cp_entries(model, [i], [j], [k])[0])


def cp_entries(
    model: FactorModel, users: np.ndarray, curators: np.ndarray, topics: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`cp_entry` over parallel index arrays."""
    return np.einsum(
        "er,er,er->e", model.u_users[users], model.u_curators[curators], model.u_topics[topics]
    )


def _check_dims(model: FactorModel, obs: ObservationTensor) -> None:
    if model.shape != obs.shape:
        raise ValueError(
            f"model dimensions {model.shape} do not match observations {obs.shape}"
        )


def masked_loss(model: FactorModel, obs: ObservationTensor, lam: float) -> float:
    """Ridge-regularised squared error over the observed cells only.

        1/2 * sum_observed (rating - score)^2
        + lam/2 * (||U_users||_F^2 + ||U_curators||_F^2 + ||U_topics||_F^2)
    """
    _check_dims(model, obs)
    resid = obs.values - cp_entries(model, obs.users, obs.curators, obs.topics)
    reg = sum(float(np.sum(u * u)) for u in (model.u_users, model.u_curators, model.u_topics))
    return 0.5 * float(np.dot(resid, resid)) + 0.5 * lam * reg


def _cell_bins(index: np.ndarray, rank: int, out: np.ndarray | None = None) -> np.ndarray:
    """Flat (row, column) bins ``index * rank + column`` of a (cells, rank)
    array, in cell order; written into the intp buffer ``out`` when given."""
    size = index.size * rank
    bins = np.empty(size, dtype=np.intp) if out is None else out[:size]
    cell_bins = bins.reshape(index.size, rank)
    np.multiply(index[:, None], rank, out=cell_bins)
    np.add(cell_bins, np.arange(rank), out=cell_bins)
    return bins


def _scatter_rows(
    index: np.ndarray, contrib: np.ndarray, n_rows: int, bins: np.ndarray | None = None
) -> np.ndarray:
    """Row sums ``out[index[e]] += contrib[e]`` of a (cells, rank) array.

    One bincount over the flattened (row, column) bins of :func:`_cell_bins`:
    a C-speed scatter-add in which each bin gets its additions in cell
    order.  A caller that scatters by the same index every iterate passes
    those bins prebuilt as ``bins`` (intp, ``contrib.size`` entries); without
    them the scatter builds its own from ``index``.
    """
    rank = contrib.shape[1]
    if bins is None:
        bins = _cell_bins(index, rank)
    out = np.bincount(bins, weights=contrib.ravel(), minlength=n_rows * rank)
    return out.reshape(n_rows, rank)


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
    _check_dims(model, obs)
    a = model.u_users[obs.users]
    b = model.u_curators[obs.curators]
    c = model.u_topics[obs.topics]
    w = cell_weights[:, None]
    g_users = _scatter_rows(obs.users, w * b * c, model.shape[0])
    g_curators = _scatter_rows(obs.curators, w * a * c, model.shape[1])
    g_topics = _scatter_rows(obs.topics, w * a * b, model.shape[2])
    return g_users, g_curators, g_topics


def masked_gradient(
    model: FactorModel, obs: ObservationTensor, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of :func:`masked_loss` w.r.t. each factor matrix."""
    _check_dims(model, obs)
    resid = cp_entries(model, obs.users, obs.curators, obs.topics) - obs.values
    grads = scatter_cell_gradient(model, obs, resid)
    factors = (model.u_users, model.u_curators, model.u_topics)
    g_users, g_curators, g_topics = (g + lam * u for g, u in zip(grads, factors))
    return g_users, g_curators, g_topics
