"""Experiment runner: data preparation, training, evaluation, reporting.

An experiment is described by one :class:`ExperimentConfig` (JSON file with
the same field names).  Each run r in 1..repeats uses seed base_seed + r for
negative sampling, splitting and factor initialisation, trains every
requested model on the train side and evaluates it on the test side:

* quality: per (user, topic) pair with at least one test positive, the
  curators ranked top-k (training positives of that pair excluded, ties
  toward the lower curator index) are scored against the pair's test
  positives.  With ``rank_scope="user"`` the unit is a user: every
  (curator, topic) cell of the user is ranked, the user's training
  positives are excluded, and ties break toward the lower cell id
  ``j * K + t``.  Both scopes score a unit with ``models._user_scores``,
  one gemv per topic, as :func:`score_curators` does; ranking partitions
  the m or m*K scores at the k-th and stable-sorts those at or above it;
* fairness: predicted scores of the test cells (or of every cell, with
  ``fairness_scope="full"``) are grouped by curator group for MAD and KS.
  Full scope scores one (topic, group) chunk at a time, the n x m_g
  product of the topic's user rows and the group's curator rows, and
  :func:`metrics.group_fairness` reads the chunks in two passes.  Beside
  the model's stacked factors it holds one chunk and its sort, at most n*m
  floats; at the paper's 589 x 252 x 10 the step peaks at about 2.5 MB
  where every cell's score takes 11.9 MB.  A shape of more than
  ``MAX_DENSE_CELLS`` cells is still a :class:`ConfigError`.

Reports carry one row per (model, run), an across-run mean row per model and
the fully resolved config, and are byte-identical for identical configs.

The module also hosts the built-in verification suite (:func:`run_oracles`):
finite-difference gradient checks, dense brute-force loss equivalence, ALS
monotonicity and recovery, projector exactness, and the metric hand-case
table.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import (
    SensitiveMap,
    SplitDataset,
    SynthConfig,
    load_interactions,
    load_sensitive,
    negative_sample,
    split,
    synth_generate,
)
from .errors import (
    ConfigError, FairtensorError, UndefinedMetricError, _check_dense_cells, check_fields,
    check_types, read_json,
)
from .metrics import (
    Chunks,
    GroupedScores,
    MetricsReport,
    RunMetrics,
    f1_at_k,
    group_fairness,
    ks,
    mad,
    precision_at_k,
    recall_at_k,
)
from .models import (
    GROUP_AWARE_KINDS,
    MODEL_KINDS,
    TrainConfig,
    TrainedModel,
    _objective,
    _top_indices,
    _user_scores,
    ortho_penalty,
    parity_penalty,
    predict_cells,
    train_model,
)
from .tensor_core import FactorModel, ObservationTensor, masked_gradient, masked_loss

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "prepare_run",
    "evaluate_model",
    "OracleCheck",
    "run_oracles",
]


def _check_evaluation(k: int, intervals: int, fairness_scope: str, rank_scope: str) -> None:
    """The checks of the evaluation settings, for configs and
    :func:`evaluate_model` alike."""
    check_types(ExperimentConfig, {"k": k, "intervals": intervals}, "evaluation")
    if k < 1 or intervals < 1:
        raise ConfigError("k and intervals must be >= 1")
    _check_dense_cells(intervals, "the KS boundary array")
    if fairness_scope not in ("test", "full"):
        raise ConfigError("fairness_scope must be 'test' or 'full'")
    if rank_scope not in ("user_topic", "user"):
        raise ConfigError("rank_scope must be 'user_topic' or 'user'")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment.

    Exactly one data source must be given: CSV paths or a synthetic
    generator config.  ``model_overrides`` maps a model kind to TrainConfig
    field overrides applied on top of ``train``.
    """

    interactions_csv: str | None = None
    sensitive_csv: str | None = None
    synth: SynthConfig | None = None
    negative_probability: float = 0.00113
    train_fraction: float = 0.7
    repeats: int = 3
    k: int = 15
    intervals: int = 50
    models: tuple[str, ...] = MODEL_KINDS
    train: TrainConfig = TrainConfig()
    model_overrides: dict = field(default_factory=dict)
    base_seed: int = 0
    fairness_scope: str = "test"
    rank_scope: str = "user_topic"

    def __post_init__(self):
        check_types(ExperimentConfig, vars(self), "config")
        if self.train.seed != 0:
            raise ConfigError(
                "train.seed is not used: base_seed seeds each run; set "
                "model_overrides[kind]['seed'] to fix one kind's initialisation"
            )
        if (self.synth is None) == (self.interactions_csv is None):
            raise ConfigError("give either interactions_csv or synth, not both")
        if not 0.0 <= self.negative_probability <= 1.0:
            raise ConfigError("negative_probability must lie in [0, 1]")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        _check_evaluation(self.k, self.intervals, self.fairness_scope, self.rank_scope)
        models = tuple(self.models)
        if not models:
            raise ConfigError("at least one model kind is required")
        unknown = [m for m in models if m not in MODEL_KINDS]
        if unknown:
            raise ConfigError(f"unknown model kind(s): {unknown}")
        if len(set(models)) != len(models):
            raise ConfigError("duplicate model kinds")
        object.__setattr__(self, "models", models)
        bad = set(self.model_overrides) - set(MODEL_KINDS)
        if bad:
            raise ConfigError(f"model_overrides for unknown kind(s): {sorted(bad)}")
        for kind, overrides in self.model_overrides.items():
            what = f"model_overrides[{kind!r}]"
            check_types(TrainConfig, check_fields(TrainConfig, overrides, what), what)
            try:
                replace(self.train, **overrides)
            except ConfigError as exc:
                raise ConfigError(f"{what}: {exc}") from None

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        doc = dict(check_fields(cls, doc, "config"))
        for name, block in (("synth", SynthConfig), ("train", TrainConfig)):
            if doc.get(name) is not None:
                doc[name] = block(**check_fields(block, doc[name], name))
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path, "config"))

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["models"] = list(self.models)
        return doc

    def train_config_for(self, kind: str, seed: int) -> TrainConfig:
        """Resolved TrainConfig for one model of one run."""
        overrides = dict(self.model_overrides.get(kind, {}))
        overrides.setdefault("seed", seed)
        return replace(self.train, **overrides)


def _load_source(cfg: ExperimentConfig) -> tuple[ObservationTensor, SensitiveMap | None]:
    if cfg.synth is not None:
        obs, smap, _ = synth_generate(cfg.synth)
        return obs, smap
    obs, maps = load_interactions(cfg.interactions_csv)
    smap = None
    if cfg.sensitive_csv is not None:
        smap = load_sensitive(cfg.sensitive_csv, maps.curators)
    return obs, smap


def _run_split(cfg: ExperimentConfig, positives: ObservationTensor, run: int) -> SplitDataset:
    """Run ``run``'s negative sample and split, both seeded with ``base_seed + run``."""
    seed = cfg.base_seed + run
    sampled = negative_sample(positives, cfg.negative_probability, seed)
    return split(sampled, cfg.train_fraction, seed)


def prepare_run(
    cfg: ExperimentConfig, run: int = 1
) -> tuple[SplitDataset, SensitiveMap | None]:
    """Materialise the sampled-and-split dataset of one run."""
    positives, smap = _load_source(cfg)
    return _run_split(cfg, positives, run), smap


# ---------------------------------------------------------------------------
# evaluation


def _positives_by_unit(obs: ObservationTensor, rank_scope: str) -> dict:
    """Ids of the positive cells per ranking unit, in cell order: curator ids
    per (user, topic) unit ``i * K + t``, or cell ids ``j * K + t`` per user ``i``."""
    pos = obs.values == 1.0
    kk = obs.n_topics
    if rank_scope == "user_topic":
        keys, items = obs.users[pos] * kk + obs.topics[pos], obs.curators[pos]
    else:
        keys, items = obs.users[pos], obs.curators[pos] * kk + obs.topics[pos]
    order = np.argsort(keys, kind="stable")
    keys, items = keys[order], items[order].tolist()
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    units = keys[starts].tolist()
    bounds = [*starts.tolist(), keys.size]
    return {unit: items[a:b] for unit, a, b in zip(units, bounds, bounds[1:])}


def _quality_metrics(
    model: TrainedModel, ds: SplitDataset, k: int, rank_scope: str
) -> dict[str, float]:
    """P/R/F1@k of the top-k lists of every unit, ranked from :func:`_user_scores`
    over the unit's topics, against the test positives."""
    test_pos = _positives_by_unit(ds.test, rank_scope)
    train_pos = _positives_by_unit(ds.train, rank_scope)
    tops: dict = {}
    for unit in sorted(test_pos):
        user, t = (unit, None) if rank_scope == "user" else divmod(unit, ds.test.n_topics)
        topics = slice(None) if t is None else slice(t, t + 1)
        scores = _user_scores(model, user, topics)
        tops[unit] = _top_indices(scores, k, train_pos.get(unit, [])).tolist()
    p = precision_at_k(tops, test_pos, k)
    r = recall_at_k(tops, test_pos, k)
    return {"p_at_k": p, "r_at_k": r, "f1_at_k": f1_at_k(p, r)}


def _full_scope_chunks(model: TrainedModel, smap: SensitiveMap) -> Chunks:
    """Every cell's score as (group, scores) chunks: per topic k and group g,
    the (n x m_g) product ``A[k] @ B_g[k].T`` of :attr:`TrainedModel.topic_factors`,
    where B_g holds group g's curator rows in curator order."""
    a, b = model.topic_factors
    is0 = smap.groups == 0
    b_groups = (b[:, is0], b[:, ~is0])  # each group's rows, taken once

    def chunks():
        for topic in range(a.shape[0]):
            for group, rows in enumerate(b_groups):
                yield group, a[topic] @ rows[topic].T

    return chunks


def _fairness_metrics(
    model: TrainedModel,
    ds: SplitDataset,
    smap: SensitiveMap | None,
    intervals: int,
    fairness_scope: str,
) -> dict[str, float]:
    """MAD and KS of the model's scores grouped by curator group: of the
    test cells, or of every cell, one (topic, group) chunk at a time."""
    if smap is None:
        raise UndefinedMetricError("fairness metrics need a sensitive map")
    if fairness_scope == "test":
        cells = ds.test
        preds = predict_cells(model, cells.users, cells.curators, cells.topics)
        is0 = smap.groups[cells.curators] == 0
        chunks = GroupedScores(preds[is0], preds[~is0]).chunks
    else:
        _check_dense_cells(ds.train.n_cells, "full-scope fairness")
        chunks = _full_scope_chunks(model, smap)
    return group_fairness(chunks, intervals)


def evaluate_model(
    model: TrainedModel,
    ds: SplitDataset,
    smap: SensitiveMap | None,
    k: int,
    intervals: int,
    fairness_scope: str = "test",
    rank_scope: str = "user_topic",
) -> dict[str, float]:
    """All five metrics for one trained model on one split.

    Raises :class:`ConfigError` for a bad setting or when the model was
    trained on another shape, and :class:`UndefinedMetricError` when no unit
    has a test positive or a group has no test cells (or no sensitive map was
    provided).
    """
    _check_evaluation(k, intervals, fairness_scope, rank_scope)
    if model.shape != ds.train.shape:
        raise ConfigError(
            f"{model.kind} model of shape {model.shape} cannot score a dataset "
            f"of shape {ds.train.shape}"
        )
    return {
        **_quality_metrics(model, ds, k, rank_scope),
        **_fairness_metrics(model, ds, smap, intervals, fairness_scope),
    }


def _run_one_model(
    kind: str,
    ds: SplitDataset,
    smap: SensitiveMap | None,
    cfg: ExperimentConfig,
    run: int,
) -> RunMetrics:
    base = dict(model=kind, run=run, seed=ds.seed)
    try:
        model = train_model(kind, ds.train, cfg.train_config_for(kind, ds.seed), smap)
    except ConfigError as exc:
        return RunMetrics(**base, error=f"training failed: {exc}")

    errors = []
    values: dict[str, float] = {}
    try:
        values.update(_quality_metrics(model, ds, cfg.k, cfg.rank_scope))
    except FairtensorError as exc:
        errors.append(f"quality: {exc}")
    try:
        values.update(_fairness_metrics(model, ds, smap, cfg.intervals, cfg.fairness_scope))
    except FairtensorError as exc:
        errors.append(f"fairness: {exc}")
    return RunMetrics(**base, **values, error="; ".join(errors) or None)


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | Path | None = None
) -> MetricsReport:
    """Run every (model, run) pair of an experiment and assemble the report.

    With ``out_dir`` the report is also written as report.csv and
    report.json.
    """
    positives, smap = _load_source(cfg)
    fair_requested = [m for m in cfg.models if m in GROUP_AWARE_KINDS]
    if fair_requested and smap is None:
        raise ConfigError(
            f"models {fair_requested} need a sensitive map (sensitive_csv)"
        )

    rows: list[RunMetrics] = []
    for run in range(1, cfg.repeats + 1):
        ds = _run_split(cfg, positives, run)
        rows.extend(_run_one_model(kind, ds, smap, cfg, run) for kind in sorted(cfg.models))

    report = MetricsReport(
        k=cfg.k, intervals=cfg.intervals, rows=tuple(rows), config=cfg.to_dict()
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
        (out / "report.json").write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return report


# ---------------------------------------------------------------------------
# built-in verification suite


@dataclass(frozen=True)
class OracleCheck:
    name: str
    passed: bool
    detail: str


def _brute_force_loss(u1, u2, u3, values, lam) -> float:
    """Dense reference loss via plain Python loops (independent path)."""
    n, rank = u1.shape
    m = u2.shape[0]
    kk = u3.shape[0]
    sse = 0.0
    for i in range(n):
        for j in range(m):
            for k in range(kk):
                pred = 0.0
                for r in range(rank):
                    pred += u1[i, r] * u2[j, r] * u3[k, r]
                sse += (values[i, j, k] - pred) ** 2
    reg = 0.0
    for u in (u1, u2, u3):
        for x in u.ravel():
            reg += x * x
    return 0.5 * sse + 0.5 * lam * reg


def _fully_observed(values: np.ndarray) -> ObservationTensor:
    return ObservationTensor.from_flat(values.shape, np.arange(values.size), values.ravel())


def _check_kernel_loss() -> OracleCheck:
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for n, m, kk in itertools.product(range(1, 5), repeat=3):
        for rank in range(1, 4):
            u1 = rng.random((n, rank))
            u2 = rng.random((m, rank))
            u3 = rng.random((kk, rank))
            values = rng.random((n, m, kk))
            lam = 0.3
            got = masked_loss(FactorModel(u1, u2, u3), _fully_observed(values), lam)
            ref = _brute_force_loss(u1, u2, u3, values, lam)
            worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.perf_counter() - started
    passed = worst < 1e-10 and elapsed < 1.0
    return OracleCheck(
        "kernel-loss-vs-brute-force",
        passed,
        f"max relative error {worst:.3e} over 192 cases in {elapsed:.2f}s",
    )


def _fd_gradient(fn, arrays, step=1e-6):
    """Central finite differences of fn() w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for t in range(flat.size):
            orig = flat[t]
            flat[t] = orig + step
            up = fn()
            flat[t] = orig - step
            down = fn()
            flat[t] = orig
            gflat[t] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def _rel_err(analytic, numeric) -> float:
    num = np.sqrt(sum(float(np.sum((a - b) ** 2)) for a, b in zip(analytic, numeric)))
    den = np.sqrt(sum(float(np.sum(b * b)) for b in numeric))
    return num / max(den, 1e-12)


def _random_instance(rng):
    n, m, kk = rng.integers(2, 6, size=3)
    rank = int(rng.integers(1, 5))
    u1 = rng.random((n, rank))
    u2 = rng.random((m, rank))
    u3 = rng.random((kk, rank))
    total = n * m * kk
    keep = rng.random(total) < 0.6
    if not keep.any():
        keep[rng.integers(0, total)] = True
    flat = np.flatnonzero(keep)
    obs = ObservationTensor.from_flat((int(n), int(m), int(kk)), flat, rng.random(flat.size))
    return u1, u2, u3, obs


def _check_gradients() -> OracleCheck:
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    wide_rng = np.random.default_rng(12)  # FT/FM blocks, apart from rng's draws
    worst = 0.0
    for _ in range(20):
        u1, u2, u3, obs = _random_instance(rng)
        lam = float(rng.random() * 0.5)

        analytic = masked_gradient(FactorModel(u1, u2, u3), obs, lam)
        numeric = _fd_gradient(
            lambda: masked_loss(FactorModel(u1, u2, u3), obs, lam), [u1, u2, u3]
        )
        worst = max(worst, _rel_err(analytic, numeric))

        # parity penalty: make sure both groups appear among the cells
        m = u2.shape[0]
        groups = rng.integers(0, 2, size=m)
        groups[obs.curators[0]] = 0
        groups[obs.curators[-1]] = 1
        if not (np.any(groups[obs.curators] == 0) and np.any(groups[obs.curators] == 1)):
            continue
        gamma = 2.5
        _, grads = parity_penalty(FactorModel(u1, u2, u3), obs, groups, gamma)
        numeric = _fd_gradient(
            lambda: parity_penalty(FactorModel(u1, u2, u3), obs, groups, gamma)[0],
            [u1, u2, u3],
        )
        worst = max(worst, _rel_err(grads, numeric))

        # orthogonality penalty on the curator factor
        s = np.zeros((m, 2))
        s[groups == 0, 0] = 1.0
        s[groups == 1, 1] = 1.0
        mu = 3.0
        _, go = ortho_penalty(u2, s, mu)
        numeric = _fd_gradient(lambda: ortho_penalty(u2, s, mu)[0], [u2])
        worst = max(worst, _rel_err([go], numeric))

        # the fused objectives the trainers descend: RTC, FT with constant
        # sensitive columns, and one-topic slices (RMC, FM) whose topic
        # factor is a constant row of ones
        cfg = TrainConfig(lam=lam, parity_weight=gamma, ortho_weight=mu)
        n, kk, rank = u1.shape[0], u3.shape[0], u1.shape[1]
        w1, w3 = wide_rng.random((n, rank + 2)), wide_rng.random((kk, rank + 2))
        top = obs.topics == 0
        one_topic = ObservationTensor(
            n, m, 1, obs.users[top], obs.curators[top], obs.topics[top], obs.values[top]
        )
        problems = [(obs, [u1, u2, u3], dict(groups=groups)), (obs, [w1, u2, w3], dict(s=s))]
        if np.unique(groups[one_topic.curators]).size == 2:
            problems += [(one_topic, [u1, u2], dict(groups=groups)),
                         (one_topic, [w1, u2], dict(s=s))]
        for train, params, constants in problems:
            objective = _objective(train, cfg, params, **constants)
            numeric = _fd_gradient(lambda: objective(params)[0], params)
            worst = max(worst, _rel_err(objective(params)[1], numeric))
    elapsed = time.perf_counter() - started
    passed = worst < 1e-5 and elapsed < 10.0
    return OracleCheck(
        "gradients-vs-finite-differences",
        passed,
        f"max relative error {worst:.3e} over 20 instances (kernels, penalties and "
        f"the fused RTC/FT/RMC/FM objectives) in {elapsed:.2f}s",
    )


def _check_als() -> OracleCheck:
    started = time.perf_counter()
    rng = np.random.default_rng(23)

    # monotonicity on a sparse random instance
    u1, u2, u3, obs = _random_instance(rng)
    model = train_model("OTC", obs, TrainConfig(rank=3, lam=0.05, max_iters=60, tol=0.0, seed=1))
    steps = np.diff(model.loss_trace)
    worst_step = float(steps.max()) if steps.size else 0.0

    # exact recovery of a rank-2 fully observed 6x6x4 tensor
    g1 = rng.standard_normal((6, 2))
    g2 = rng.standard_normal((6, 2))
    g3 = rng.standard_normal((4, 2))
    values = np.einsum("ir,jr,kr->ijk", g1, g2, g3)
    full = _fully_observed(values)
    fitted = train_model(
        "OTC", full, TrainConfig(rank=2, lam=1e-6, max_iters=2000, tol=1e-14, seed=2)
    )
    resid = full.values - predict_cells(fitted, full.users, full.curators, full.topics)
    rmse = float(np.sqrt(np.mean(resid**2)))
    elapsed = time.perf_counter() - started
    passed = worst_step <= 1e-9 and rmse < 1e-3 and elapsed < 30.0
    return OracleCheck(
        "als-monotonic-and-recovers",
        passed,
        f"worst loss increase {worst_step:.3e}, recovery rmse {rmse:.3e} in {elapsed:.2f}s",
    )


def _check_ft_structure() -> OracleCheck:
    cfg = SynthConfig(
        n_users=40, n_curators=24, n_topics=3, true_rank=3,
        group_ratio=0.5, bias_strength=1.2, target_sparsity=0.08, seed=5,
    )
    ds, smap = prepare_run(ExperimentConfig(synth=cfg, negative_probability=0.008, base_seed=8))
    model = train_model(
        "FT", ds.train,
        TrainConfig(rank=6, lam=0.01, ortho_weight=1.0, learning_rate=0.01,
                    max_iters=200, tol=0.0, seed=3),
        smap,
    )
    f = model.factors
    s = smap.matrix
    sens = list(f.sensitive_cols)
    ns = list(f.nonsensitive_cols)
    frozen_ok = np.array_equal(f.u_curators[:, sens], s)
    u_ns = f.u_curators[:, ns]
    resid = float(np.linalg.norm(s.T @ u_ns))
    bound = 1e-9 * float(np.linalg.norm(u_ns))
    proj_ok = resid <= bound

    probe = ds.test
    before = predict_cells(model, probe.users, probe.curators, probe.topics)
    tampered_u2 = f.u_curators.copy()
    tampered_u2[:, sens] = 123.456
    tampered = replace(
        model, factors=FactorModel(f.u_users, tampered_u2, f.u_topics,
                                   sensitive_cols=f.sensitive_cols)
    )
    after = predict_cells(tampered, probe.users, probe.curators, probe.topics)
    invariant_ok = np.array_equal(before, after)
    passed = frozen_ok and proj_ok and invariant_ok
    return OracleCheck(
        "ft-frozen-columns-and-projection",
        passed,
        f"frozen={frozen_ok}, ||S^T U_ns||={resid:.3e} (bound {bound:.3e}), "
        f"prediction bit-invariance={invariant_ok}",
    )


def _check_metric_hand_cases() -> OracleCheck:
    cases = []
    cases.append(ks(GroupedScores([0.0, 0.0], [1.0, 1.0]), 50) == 0.98)
    cases.append(ks(GroupedScores([0.0, 1.0], [1.0, 1.0]), 50) == 0.49)
    cases.append(ks(GroupedScores([0.3, 0.7, 0.1], [0.3, 0.7, 0.1]), 50) == 0.0)
    cases.append(mad(GroupedScores([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])) == 1.0)
    cases.append(mad(GroupedScores([1.0, 2.0], [1.0, 2.0])) == 0.0)
    cases.append(mad(GroupedScores([0.0, 0.0], [1.0])) == 1.0)
    cases.append(precision_at_k({"u": ["a", "b"]}, {"u": {"a", "b"}}, 2) == 1.0)
    cases.append(precision_at_k({"u": ["a", "b"]}, {"u": {"c"}}, 2) == 0.0)
    cases.append(
        precision_at_k({"u": ["a"], "v": ["a", "b"]}, {"u": {"a", "x"}, "v": {"a", "b"}}, 2)
        == 0.75
    )
    cases.append(recall_at_k({"u": ["a", "b"]}, {"u": {"a", "b", "c", "d"}}, 2) == 0.5)
    cases.append(f1_at_k(0.5, 0.5) == 0.5)
    cases.append(f1_at_k(0.0, 0.0) == 0.0)
    cases.append(abs(f1_at_k(0.0958, 0.4384) - 0.1572) < 5e-4)
    n_fail = cases.count(False)
    return OracleCheck(
        "metric-hand-cases",
        n_fail == 0,
        f"{len(cases) - n_fail}/{len(cases)} hand cases exact",
    )


def run_oracles() -> list[OracleCheck]:
    """Execute the full verification suite; any failure means a broken build."""
    return [
        _check_kernel_loss(),
        _check_gradients(),
        _check_als(),
        _check_ft_structure(),
        _check_metric_hand_cases(),
    ]
