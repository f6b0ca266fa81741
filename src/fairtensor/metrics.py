"""Ranking-quality and group-fairness metrics.

Quality: Precision@k, Recall@k and their harmonic mean F1@k, averaged over
the evaluation units (by default (user, topic) pairs) that have at least one
test positive -- recall is undefined for the rest, so they are excluded.

Fairness: MAD is the absolute difference between the two groups' mean
predicted ratings.  KS is the area between the groups' empirical cumulative
rating distributions, discretised over the common data range [min, max] into
``intervals`` equal bins; the boundary count of the last bin includes the
maximum.  Lower is fairer for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import UndefinedMetricError

__all__ = [
    "GroupedScores",
    "RunMetrics",
    "MetricsReport",
    "precision_at_k",
    "recall_at_k",
    "f1_at_k",
    "mad",
    "ks",
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
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite scores")
            object.__setattr__(self, name, arr)


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


def _require_groups(scores: GroupedScores) -> None:
    if scores.group0.size == 0 or scores.group1.size == 0:
        raise UndefinedMetricError("fairness metrics need scores for both groups")


def mad(scores: GroupedScores) -> float:
    """Absolute difference of the two groups' mean predicted ratings."""
    _require_groups(scores)
    return abs(float(scores.group0.mean()) - float(scores.group1.mean()))


def ks(scores: GroupedScores, intervals: int = 50) -> float:
    """Area between the two groups' empirical cumulative distributions.

    The common range [lo, hi] = [min, max] of all scores is cut into
    ``intervals`` bins of width l = (hi - lo) / intervals; with F_g(i) the
    fraction of group-g ratings at or below the i-th boundary, the statistic
    is | sum_i l*F_0(i) - sum_i l*F_1(i) |.  A degenerate range gives 0.
    """
    if intervals < 1:
        raise ValueError("intervals must be >= 1")
    _require_groups(scores)
    lo = min(scores.group0.min(), scores.group1.min())
    hi = max(scores.group0.max(), scores.group1.max())
    if hi == lo:
        return 0.0
    width = (hi - lo) / intervals
    bounds = lo + width * np.arange(1, intervals + 1)
    bounds[-1] = hi  # last boundary is inclusive of the maximum
    s0 = np.searchsorted(np.sort(scores.group0), bounds, side="right").sum() / scores.group0.size
    s1 = np.searchsorted(np.sort(scores.group1), bounds, side="right").sum() / scores.group1.size
    return float((hi - lo) * abs(s0 - s1) / intervals)


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
