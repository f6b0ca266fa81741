"""Ranking-quality and group-fairness metrics.

Quality: Precision@k, Recall@k and their harmonic mean F1@k, averaged over
the evaluation units (by default (user, topic) pairs) that have at least one
test positive -- recall is undefined for the rest, so they are excluded.

Fairness: MAD is the absolute difference between the two groups' mean
predicted ratings.  KS is the area between the groups' empirical cumulative
rating distributions, discretised over the common data range [min, max] into
``intervals`` equal bins; the boundary count of the last bin includes the
maximum.  Lower is fairer for both.  :func:`group_fairness` computes both
from scores that arrive in (group, scores) chunks, so no step needs every
score at once; :func:`mad` and :func:`ks` are its case of one chunk per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import UndefinedMetricError, _check_dense_cells

__all__ = [
    "GroupedScores",
    "RunMetrics",
    "MetricsReport",
    "precision_at_k",
    "recall_at_k",
    "f1_at_k",
    "mad",
    "ks",
    "group_fairness",
]

METRIC_FIELDS = ("p_at_k", "r_at_k", "f1_at_k", "mad", "ks")


@dataclass(frozen=True)
class GroupedScores:
    """Predicted ratings split by curator group."""

    group0: np.ndarray
    group1: np.ndarray

    def __post_init__(self):
        for name in ("group0", "group1"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            object.__setattr__(self, name, arr)

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The scores as (group, scores) chunks, one per group."""
        return iter(((0, self.group0), (1, self.group1)))


Chunks = Callable[[], Iterable[tuple[int, np.ndarray]]]


def _mean_over_units(top_lists: Mapping, positives: Mapping, k: int, ratio: Callable) -> float:
    """Mean of ``ratio(hits, n_positives)`` over the units with a test
    positive, in sorted order; ``hits`` counts a unit's top-k among them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    keys = sorted(key for key, pos in positives.items() if len(pos) > 0)
    if not keys:
        raise UndefinedMetricError("no evaluation unit has a test positive")
    total = 0.0
    for key in keys:
        pos = set(positives[key])
        hits = len(set(top_lists.get(key, ())[:k]) & pos)
        total += ratio(hits, len(pos))
    return total / len(keys)


def precision_at_k(
    top_lists: Mapping, positives: Mapping, k: int
) -> float:
    """Mean over eligible units of |top-k hits| / k."""
    return _mean_over_units(top_lists, positives, k, lambda hits, _: hits / k)


def recall_at_k(
    top_lists: Mapping, positives: Mapping, k: int
) -> float:
    """Mean over eligible units of |top-k hits| / |test positives|."""
    return _mean_over_units(top_lists, positives, k, lambda hits, n_pos: hits / n_pos)


def f1_at_k(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both vanish."""
    if p < 0 or r < 0:
        raise ValueError("precision and recall must be >= 0")
    if p + r == 0:
        return 0.0
    return 2.0 * p * r / (p + r)


def _summary(chunks: Chunks) -> tuple[float, float, list[float], list[int]]:
    """(min, max, per-group sums, per-group sizes) of the chunked scores:
    the first of the two passes of :func:`group_fairness`."""
    lo, hi, sums, sizes = np.inf, -np.inf, [0.0, 0.0], [0, 0]
    for group, scores in chunks():
        if scores.size == 0:
            continue
        low, high = scores.min(), scores.max()  # NaN if any score is NaN
        if not (np.isfinite(low) and np.isfinite(high)):
            raise UndefinedMetricError(f"group {group} has non-finite scores")
        lo, hi = min(lo, low), max(hi, high)
        sums[group] += float(scores.sum())
        sizes[group] += scores.size
    if 0 in sizes:
        raise UndefinedMetricError("fairness metrics need scores for both groups")
    return lo, hi, sums, sizes


def _mad(sums: list[float], sizes: list[int]) -> float:
    return abs(sums[0] / sizes[0] - sums[1] / sizes[1])


def group_fairness(chunks: Chunks, intervals: int) -> dict[str, float]:
    """MAD and KS of scores that arrive in chunks, without holding them all.

    ``chunks()`` yields (group, scores) pairs and is called twice: the first
    pass finds the common range and each group's sum and size, the second
    counts each chunk's scores at or below each KS boundary, from one sort
    of the chunk.  The counts are exact integers, so KS does not depend on
    the chunking; MAD's sums do, in their low bits.  A non-finite score or
    an empty group is an :class:`UndefinedMetricError`; ``intervals`` above
    ``MAX_DENSE_CELLS`` boundaries is a :class:`ConfigError`.
    """
    if intervals < 1:
        raise ValueError("intervals must be >= 1")
    _check_dense_cells(intervals, "the KS boundary array")
    lo, hi, sums, sizes = _summary(chunks)
    if hi == lo:
        return {"mad": _mad(sums, sizes), "ks": 0.0}
    width = (hi - lo) / intervals
    bounds = lo + width * np.arange(1, intervals + 1)
    bounds[-1] = hi  # last boundary is inclusive of the maximum
    counts = [0, 0]
    for group, scores in chunks():
        below = np.searchsorted(np.sort(scores, axis=None), bounds, side="right")
        counts[group] += int(below.sum())
    s0, s1 = counts[0] / sizes[0], counts[1] / sizes[1]
    return {"mad": _mad(sums, sizes), "ks": float((hi - lo) * abs(s0 - s1) / intervals)}


def mad(scores: GroupedScores) -> float:
    """Absolute difference of the two groups' mean predicted ratings."""
    _, _, sums, sizes = _summary(scores.chunks)
    return _mad(sums, sizes)


def ks(scores: GroupedScores, intervals: int = 50) -> float:
    """Area between the two groups' empirical cumulative distributions.

    The common range [lo, hi] = [min, max] of all scores is cut into
    ``intervals`` bins of width l = (hi - lo) / intervals; with F_g(i) the
    fraction of group-g ratings at or below the i-th boundary, the statistic
    is | sum_i l*F_0(i) - sum_i l*F_1(i) |.  A degenerate range gives 0.
    """
    return group_fairness(scores.chunks, intervals)["ks"]


@dataclass(frozen=True)
class RunMetrics:
    """Metric values for one (model, run); ``error`` explains missing ones."""

    model: str
    run: int
    seed: int
    p_at_k: float | None = None
    r_at_k: float | None = None
    f1_at_k: float | None = None
    mad: float | None = None
    ks: float | None = None
    error: str | None = None

    def complete(self) -> bool:
        return all(getattr(self, f) is not None for f in METRIC_FIELDS)


@dataclass(frozen=True)
class MetricsReport:
    """Per-run metric rows plus across-run means for every model.

    Rows are kept sorted by (model, run) and the resolved experiment config
    is echoed so reported numbers can be re-derived.
    """

    k: int
    intervals: int
    rows: tuple[RunMetrics, ...]
    config: dict

    def __post_init__(self):
        object.__setattr__(
            self, "rows", tuple(sorted(self.rows, key=lambda r: (r.model, r.run)))
        )

    def models(self) -> list[str]:
        return sorted({row.model for row in self.rows})

    def model_means(self) -> dict[str, dict[str, float | None]]:
        """Arithmetic mean per metric over the runs that produced it."""
        means: dict[str, dict[str, float | None]] = {}
        for model in self.models():
            rows = [r for r in self.rows if r.model == model]
            entry: dict[str, float | None] = {}
            for metric in METRIC_FIELDS:
                vals = [getattr(r, metric) for r in rows if getattr(r, metric) is not None]
                entry[metric] = sum(vals) / len(vals) if vals else None
            means[model] = entry
        return means

    def complete(self) -> bool:
        """True when every row produced every metric."""
        return all(row.complete() for row in self.rows)

    def to_csv(self) -> str:
        """One row per (model, run) plus a mean row per model."""

        def cell(v) -> str:
            return "" if v is None else repr(float(v))

        lines = ["model,run,seed,p_at_k,r_at_k,f1_at_k,mad,ks"]
        means = self.model_means()
        for model in self.models():
            for row in (r for r in self.rows if r.model == model):
                lines.append(
                    ",".join(
                        [row.model, str(row.run), str(row.seed)]
                        + [cell(getattr(row, f)) for f in METRIC_FIELDS]
                    )
                )
            m = means[model]
            lines.append(
                ",".join([model, "mean", ""] + [cell(m[f]) for f in METRIC_FIELDS])
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "intervals": self.intervals,
            "config": self.config,
            "rows": [
                {
                    "model": r.model,
                    "run": r.run,
                    "seed": r.seed,
                    **{f: getattr(r, f) for f in METRIC_FIELDS},
                    "error": r.error,
                }
                for r in self.rows
            ],
            "means": self.model_means(),
        }
