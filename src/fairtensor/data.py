"""Dataset ingestion, negative sampling, splitting, and synthetic generation.

File formats
------------
interactions CSV : header ``user_id,curator_id,topic_id``; one positive link
    per row (implicit feedback, rating 1.0).
sensitive CSV : header ``curator_id,group``; group is 0 or 1.
Both are UTF-8, with or without a byte-order mark.

External string ids are mapped to dense indices in first-appearance order,
which keeps the mapping independent of locale and collation.  All randomised
operations take an explicit seed and build a local generator, so identical
seeds always reproduce identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    ConfigError, EmptyDatasetError, ParseError, SplitError, _check_dense_cells, check_types
)
from .tensor_core import ObservationTensor

__all__ = [
    "IdMaps",
    "SensitiveMap",
    "SplitDataset",
    "SynthConfig",
    "load_interactions",
    "load_sensitive",
    "negative_sample",
    "split",
    "synth_generate",
    "calibrate_bias_strength",
    "export_synthetic",
]

INTERACTIONS_HEADER = ("user_id", "curator_id", "topic_id")
SENSITIVE_HEADER = ("curator_id", "group")

# Cells per block of synthetic scores (whole users, at least one) and per
# chunk of negative-sampling draws: each holds 1 MB of doubles, so neither
# step's memory grows with the tensor's n*m*K cells, ties or no ties.
SYNTH_BLOCK_CELLS = 2**17
NEGATIVE_CHUNK_CELLS = 2**17


@dataclass(frozen=True)
class IdMaps:
    """External id -> dense index maps, in first-appearance order."""

    users: dict[str, int]
    curators: dict[str, int]
    topics: dict[str, int]


@dataclass(frozen=True)
class SensitiveMap:
    """Curator -> group label in {0, 1}.

    ``matrix`` expands the labels to the one-hot feature matrix S = [s0 s1]
    whose rows are (1, 0) for group 0 and (0, 1) for group 1; the two columns
    sum to the all-ones vector.
    """

    groups: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.groups, dtype=np.int64).ravel()
        if g.size == 0:
            raise ValueError("sensitive map must cover at least one curator")
        if not np.all((g == 0) | (g == 1)):
            raise ValueError("group labels must be 0 or 1")
        g.flags.writeable = False
        object.__setattr__(self, "groups", g)

    @property
    def n_curators(self) -> int:
        return int(self.groups.size)

    @property
    def matrix(self) -> np.ndarray:
        s = np.zeros((self.groups.size, 2))
        s[self.groups == 0, 0] = 1.0
        s[self.groups == 1, 1] = 1.0
        return s

    def counts(self) -> tuple[int, int]:
        n0 = int(np.sum(self.groups == 0))
        return n0, self.groups.size - n0


@dataclass(frozen=True)
class SplitDataset:
    """Disjoint train/test partition of one sampled observation set."""

    train: ObservationTensor
    test: ObservationTensor
    seed: int


def _csv_rows(path: str | Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) of each nonblank data row of a CSV file, numbered
    from 2; the first row must be ``header``.  A file that cannot be opened
    or is not UTF-8 is an error naming ``path``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:  # a BOM is dropped
            reader = csv.reader(handle)
            try:
                first = next(reader)
            except StopIteration:
                raise EmptyDatasetError(f"{path}: file is empty") from None
            if tuple(h.strip() for h in first) != header:
                raise ParseError(f"expected header {','.join(header)}", line_number=1)
            for line_no, row in enumerate(reader, start=2):
                if row:
                    yield line_no, row
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from None


def load_interactions(path: str | Path) -> tuple[ObservationTensor, IdMaps]:
    """Read an interactions CSV into its positive-feedback observation tensor
    (every rating 1.0) plus stable id->index maps.

    Each row's ids are mapped to indices as it is read; duplicate (user,
    curator, topic) rows collapse to one entry.  Raises :class:`ParseError`
    with the line number for malformed rows and :class:`EmptyDatasetError`
    when no data rows are present.
    """
    cells: dict[tuple[int, int, int], None] = {}  # insertion-ordered set
    users: dict[str, int] = {}
    curators: dict[str, int] = {}
    topics: dict[str, int] = {}
    for line_no, row in _csv_rows(path, INTERACTIONS_HEADER):
        if len(row) != 3 or any(not f.strip() for f in row):
            raise ParseError(f"expected 3 nonempty fields, got {row!r}", line_number=line_no)
        tables = (users, curators, topics)
        cells[tuple(t.setdefault(f.strip(), len(t)) for f, t in zip(row, tables))] = None
    if not cells:
        raise EmptyDatasetError(f"{path}: no interaction rows")
    obs = ObservationTensor.from_entries(
        len(users), len(curators), len(topics), ((*cell, 1.0) for cell in cells)
    )
    return obs, IdMaps(users=users, curators=curators, topics=topics)


def load_sensitive(path: str | Path, curator_index: Mapping[str, int]) -> SensitiveMap:
    """Read a sensitive CSV and align it with the curator index map.

    Every curator in ``curator_index`` must be labeled exactly once; ids not
    present in the map are ignored.
    """
    groups = np.full(len(curator_index), -1, dtype=np.int64)
    for line_no, row in _csv_rows(path, SENSITIVE_HEADER):
        if len(row) != 2 or row[1].strip() not in ("0", "1"):
            raise ParseError(
                f"expected curator_id,group with group in {{0,1}}, got {row!r}",
                line_number=line_no,
            )
        cid = row[0].strip()
        if cid not in curator_index:
            continue
        j = curator_index[cid]
        label = int(row[1])
        if groups[j] != -1 and groups[j] != label:
            raise ParseError(f"conflicting group for curator {cid!r}", line_number=line_no)
        groups[j] = label
    missing = [cid for cid, j in curator_index.items() if groups[j] == -1]
    if missing:
        raise ConfigError(
            f"{len(missing)} curator(s) missing from sensitive map, e.g. {missing[:3]}"
        )
    return SensitiveMap(groups=groups)


def negative_sample(
    positives: ObservationTensor, probability: float, seed: int
) -> ObservationTensor:
    """Add sampled negative feedback to a positives-only tensor.

    Every unobserved cell is independently included as a rating-0.0 entry
    with the given probability.  Cells already present stay untouched, so the
    output never duplicates a positive.  One uniform draw is made per cell, in
    row-major cell order and in chunks of :data:`NEGATIVE_CHUNK_CELLS` cells,
    which draw the same doubles as one draw over every cell; each chunk's
    positives are found by a binary search of the sorted positive ids.  A
    tensor of more than :data:`MAX_DENSE_CELLS` cells is a
    :class:`ConfigError`.
    """
    if not 0.0 <= probability <= 1.0:
        raise ConfigError("probability must lie in [0, 1]")
    if probability == 0.0:
        return positives
    _check_dense_cells(positives.n_cells, "negative sampling")
    rng = np.random.default_rng(seed)
    pos = positives.flat_indices()  # sorted: the canonical order is row-major
    found = []
    for start in range(0, positives.n_cells, NEGATIVE_CHUNK_CELLS):
        chosen = rng.random(min(NEGATIVE_CHUNK_CELLS, positives.n_cells - start)) < probability
        lo, hi = np.searchsorted(pos, (start, start + chosen.size))
        chosen[pos[lo:hi] - start] = False
        found.append(np.flatnonzero(chosen) + start)
    flat = np.concatenate(found)
    return ObservationTensor.from_flat(
        positives.shape,
        np.concatenate([pos, flat]),
        np.concatenate([positives.values, np.zeros(flat.size)]),
    )


def split(obs: ObservationTensor, train_fraction: float, seed: int) -> SplitDataset:
    """Uniform random partition of the entries into train and test.

    The train side receives floor(train_fraction * n) entries; positives and
    negatives are treated alike.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    n = obs.n_entries
    if n < 2:
        raise SplitError(f"cannot split {n} entries into train and test")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = math.floor(train_fraction * n)
    return SplitDataset(
        train=obs.subset(np.sort(perm[:n_train])),
        test=obs.subset(np.sort(perm[n_train:])),
        seed=seed,
    )


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings for a synthetic biased dataset.

    Ground-truth scores come from a random CP model of rank ``true_rank``
    with factor entries uniform in [0, 1); every cell belonging to a group-0
    curator gets ``bias_strength`` added, and the highest-scoring cells
    become positives until ``target_sparsity`` is reached; among cells tied
    at the cut the lowest row-major ids win.  The scores are made in blocks
    of whole users of about :data:`SYNTH_BLOCK_CELLS` cells; the cells and
    the factor draws are each bounded by :data:`MAX_DENSE_CELLS`.
    """

    n_users: int
    n_curators: int
    n_topics: int
    true_rank: int = 4
    group_ratio: float = 0.5
    bias_strength: float = 0.0
    target_sparsity: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_types(SynthConfig, vars(self), "synth")
        if min(self.n_users, self.n_curators, self.n_topics, self.true_rank) < 1:
            raise ConfigError("dimensions and true_rank must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        _check_dense_cells(self.n_users * self.n_curators * self.n_topics, "synth_generate")
        dims = self.n_users + self.n_curators + self.n_topics
        _check_dense_cells(dims * self.true_rank, "synth_generate's factor draw")
        if not 0.0 < self.group_ratio < 1.0:
            raise ConfigError("group_ratio must lie strictly between 0 and 1")
        if not 0.0 <= self.bias_strength < math.inf:
            raise ConfigError("bias_strength must be finite and >= 0")
        if not 0.0 < self.target_sparsity <= 1.0:
            raise ConfigError("target_sparsity must lie in (0, 1]")


def _synth_groups(cfg: SynthConfig) -> np.ndarray:
    m0 = int(round(cfg.group_ratio * cfg.n_curators))
    if m0 < 1 or m0 >= cfg.n_curators:
        raise ConfigError("group_ratio leaves one group empty")
    groups = np.ones(cfg.n_curators, dtype=np.int64)
    groups[:m0] = 0
    return groups


def _top_cells(blocks: Iterable[tuple[int, np.ndarray]], n_top: int) -> np.ndarray:
    """Sorted ids of the ``n_top`` highest values over ``blocks``, pairs of
    (id of the first value, 1-D finite values) in id order that together
    hold at least ``n_top`` values; ties at the cut go to the lowest ids.

    Kept values stay in id order; past ``n_top`` they are cut back to those
    above the ``n_top``-th highest, the cut, then the first ids at the cut.
    Before the first cut a block adds its values at or above its own
    ``n_top``-th highest, after it those above the cut (one at the cut has a
    higher id than every kept one): one block and ``n_top`` values are held.
    """
    values, ids, cut = np.empty(0), np.empty(0, dtype=np.int64), -math.inf
    for first, block in blocks:
        if cut == -math.inf and block.size > n_top:
            keep = np.flatnonzero(block >= np.partition(block, -n_top)[-n_top])
        else:
            keep = np.flatnonzero(block > cut)
        values = np.concatenate([values, block[keep]])
        ids = np.concatenate([ids, keep + first])
        if values.size > n_top:
            cut = np.partition(values, -n_top)[-n_top]
            top = values > cut
            top[np.flatnonzero(values == cut)[: n_top - np.count_nonzero(top)]] = True
            top = np.flatnonzero(top)  # two integer gathers beat two boolean ones
            values, ids = values[top], ids[top]
    return ids


def synth_generate(
    cfg: SynthConfig,
) -> tuple[ObservationTensor, SensitiveMap, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw a synthetic biased dataset.

    Returns the positives-only observation tensor, the curator group map and
    the ground-truth factor matrices (for diagnostics).
    """
    rng = np.random.default_rng(cfg.seed)
    u1 = rng.random((cfg.n_users, cfg.true_rank))
    u2 = rng.random((cfg.n_curators, cfg.true_rank))
    u3 = rng.random((cfg.n_topics, cfg.true_rank))
    groups = _synth_groups(cfg)

    shape = (cfg.n_users, cfg.n_curators, cfg.n_topics)
    n_pos = math.ceil(cfg.target_sparsity * math.prod(shape))
    if n_pos < 1:
        raise ConfigError("target_sparsity yields no positives")
    n, m, kk = shape
    step = max(1, SYNTH_BLOCK_CELLS // (m * kk))  # whole users per block

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        for a in range(0, n, step):
            # a user block's einsum is bit-equal to the same users' rows of the whole
            block = np.einsum("ir,jr,kr->ijk", u1[a:a + step], u2, u3)
            block[:, groups == 0, :] += cfg.bias_strength
            yield a * m * kk, block.ravel()

    flat = _top_cells(blocks(), n_pos)
    obs = ObservationTensor.from_flat(shape, flat, np.ones(flat.size))
    return obs, SensitiveMap(groups=groups), (u1, u2, u3)


def positive_group_counts(obs: ObservationTensor, smap: SensitiveMap) -> tuple[int, int]:
    """Number of positive entries per curator group."""
    pos = obs.values == 1.0
    g = smap.groups[obs.curators[pos]]
    n0 = int(np.sum(g == 0))
    return n0, int(pos.sum()) - n0


def calibrate_bias_strength(
    cfg: SynthConfig,
    target_ratio: float,
    rel_tol: float = 0.02,
) -> float:
    """Bisection for the bias level whose positive counts split group 0 vs
    group 1 at roughly ``target_ratio`` : 1.

    The generated positive ratio is monotone in the bias, so plain bisection
    on the generator (same seed throughout) converges; after 60 steps it
    returns the bracket's upper end.
    """
    if target_ratio <= 0:
        raise ConfigError("target_ratio must be positive")

    def ratio_at(bias: float) -> float:
        obs, smap, _ = synth_generate(replace(cfg, bias_strength=bias))
        n0, n1 = positive_group_counts(obs, smap)
        return math.inf if n1 == 0 else n0 / n1

    lo, hi = 0.0, max(1.0, float(cfg.true_rank))
    while ratio_at(hi) < target_ratio:
        hi *= 2.0
        if hi > 1e6:
            raise ConfigError("cannot reach target_ratio with any finite bias")
    if ratio_at(lo) >= target_ratio:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        r = ratio_at(mid)
        if r < target_ratio:
            lo = mid
        else:
            hi = mid
        if math.isfinite(r) and abs(r - target_ratio) <= rel_tol * target_ratio:
            return mid
    return hi


def export_synthetic(
    out_dir: str | Path,
    obs: ObservationTensor,
    smap: SensitiveMap,
    cfg: SynthConfig,
) -> dict[str, Path]:
    """Write a synthetic dataset as the two CSV formats plus a JSON sidecar.

    The sidecar records the generator config and the achieved statistics so
    any exported dataset can be re-derived.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    interactions = out / "interactions.csv"
    sensitive = out / "sensitive.csv"
    sidecar = out / "synthesis.json"

    with open(interactions, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(INTERACTIONS_HEADER)
        for i, j, k, v in zip(obs.users, obs.curators, obs.topics, obs.values):
            if v == 1.0:
                writer.writerow((f"u{i}", f"c{j}", f"t{k}"))

    with open(sensitive, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SENSITIVE_HEADER)
        for j, g in enumerate(smap.groups):
            writer.writerow((f"c{j}", int(g)))

    n0, n1 = positive_group_counts(obs, smap)
    meta = {
        "config": asdict(cfg),
        "achieved": {
            "n_positives": obs.n_entries,
            "sparsity": obs.sparsity,
            "positives_group0": n0,
            "positives_group1": n1,
            "positive_ratio": (n0 / n1) if n1 else None,
        },
    }
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"interactions": interactions, "sensitive": sensitive, "sidecar": sidecar}
