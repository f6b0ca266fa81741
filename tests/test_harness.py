import ast
import json
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fairtensor import data, harness
from fairtensor.cli import main as cli_main
from fairtensor.data import SensitiveMap, SplitDataset, SynthConfig, synth_generate
from fairtensor.errors import ConfigError, UndefinedMetricError
from fairtensor.harness import (
    ExperimentConfig,
    evaluate_model,
    prepare_run,
    run_experiment,
    run_oracles,
)
from fairtensor.models import (
    MODEL_KINDS,
    TrainConfig,
    TrainedModel,
    load_checkpoint,
    save_checkpoint,
    score_curators,
    train_model,
)
from fairtensor.tensor_core import FactorModel, ObservationTensor


def write_toy_dataset(tmp_path, n_users=5, n_curators=4, n_topics=2):
    """Dense-ish 5x4x2 toy set; every curator appears under every topic."""
    rows = ["user_id,curator_id,topic_id"]
    for i in range(n_users):
        for j in range(n_curators):
            for k in range(n_topics):
                if (i + j + k) % 4 == 0:
                    continue  # leave some cells unobserved
                rows.append(f"u{i},c{j},t{k}")
    interactions = tmp_path / "interactions.csv"
    interactions.write_text("\n".join(rows) + "\n", encoding="utf-8")
    sensitive = tmp_path / "sensitive.csv"
    sensitive.write_text(
        "curator_id,group\n"
        + "\n".join(f"c{j},{j % 2}" for j in range(n_curators))
        + "\n",
        encoding="utf-8",
    )
    return interactions, sensitive


def toy_config(tmp_path, **kw):
    interactions, sensitive = write_toy_dataset(tmp_path)
    base = dict(
        interactions_csv=str(interactions),
        sensitive_csv=str(sensitive),
        negative_probability=0.2,
        train_fraction=0.7,
        repeats=1,
        k=3,
        intervals=50,
        models=("OTC",),
        train=TrainConfig(rank=3, max_iters=30, seed=0),
        base_seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = toy_config(tmp_path, model_overrides={"FT": {"learning_rate": 0.001}})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        loaded = ExperimentConfig.from_json_file(path)
        assert loaded == cfg

    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig()
        with pytest.raises(ConfigError):
            ExperimentConfig(
                interactions_csv="x.csv",
                synth=SynthConfig(n_users=2, n_curators=2, n_topics=1),
            )

    def test_unknown_model_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown model"):
            toy_config(tmp_path, models=("OTC", "XXX"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            ExperimentConfig.from_dict({"interactions_csv": "x", "bogus": 1})

    def test_value_type_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="config field 'repeats' must be int, got str"):
            toy_config(tmp_path, repeats="1")
        with pytest.raises(ConfigError, match="config field 'fairness_scope' must be str"):
            toy_config(tmp_path, fairness_scope=None)
        with pytest.raises(
            ConfigError, match=r"model_overrides\['OTC'\] field 'rank' must be int, got str"
        ):
            toy_config(tmp_path, model_overrides={"OTC": {"rank": "3"}})

    @pytest.mark.parametrize("field, value, expected", [
        ("models", 5, "tuple[str, ...], got int"),
        ("models", ["OTC", 5], "tuple[str, ...], got list"),
        ("train", None, "TrainConfig, got NoneType"),
        ("synth", {"n_users": 3}, "SynthConfig or None, got dict"),
        ("model_overrides", ["OTC"], "dict, got list"),
    ])
    def test_container_value_type_is_config_error(self, tmp_path, field, value, expected):
        with pytest.raises(ConfigError, match=rf"config field '{field}' must be {re.escape(expected)}"):
            toy_config(tmp_path, **{field: value})

    def test_models_list_becomes_tuple(self, tmp_path):
        assert toy_config(tmp_path, models=["OTC", "FT"]).models == ("OTC", "FT")

    @pytest.mark.parametrize("overrides, message", [
        ({"rank": 0}, "rank must be >= 1"),
        ({"learning_rate": -1.0}, "learning_rate must be > 0"),
    ], ids=["rank", "learning_rate"])
    def test_out_of_range_override_is_config_error(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=rf"model_overrides\['OTC'\]: {message}"):
            toy_config(tmp_path, model_overrides={"OTC": overrides})

    def test_train_seed_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="base_seed seeds each run"):
            toy_config(tmp_path, train=TrainConfig(rank=3, max_iters=30, seed=5))
        cfg = toy_config(tmp_path, model_overrides={"OTC": {"seed": 5}})
        assert cfg.train_config_for("OTC", seed=1).seed == 5

    def test_overrides_applied(self, tmp_path):
        cfg = toy_config(tmp_path, model_overrides={"OTC": {"rank": 7}})
        resolved = cfg.train_config_for("OTC", seed=5)
        assert resolved.rank == 7
        assert resolved.seed == 5
        assert cfg.train_config_for("FT", seed=5).rank == 3


class TestRunExperiment:
    def test_smoke_single_model_single_run(self, tmp_path):
        report = run_experiment(toy_config(tmp_path))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.model == "OTC" and row.run == 1 and row.seed == 1
        for name in ("p_at_k", "r_at_k", "f1_at_k", "mad", "ks"):
            value = getattr(row, name)
            assert value is not None and math.isfinite(value)
        assert report.complete()

    def test_reports_byte_identical(self, tmp_path):
        cfg = toy_config(tmp_path, models=("OTC", "FT"), repeats=2)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(cfg, out_dir=out_a)
        run_experiment(cfg, out_dir=out_b)
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_fair_model_without_sensitive_map_rejected(self, tmp_path):
        interactions, _ = write_toy_dataset(tmp_path)
        cfg = ExperimentConfig(
            interactions_csv=str(interactions),
            models=("FT",),
            train=TrainConfig(rank=3, max_iters=5),
        )
        with pytest.raises(ConfigError, match="sensitive"):
            run_experiment(cfg)

    def test_missing_fairness_metrics_give_error_row(self, tmp_path):
        interactions, _ = write_toy_dataset(tmp_path)
        cfg = ExperimentConfig(
            interactions_csv=str(interactions),
            negative_probability=0.2,
            repeats=1,
            k=3,
            models=("OTC",),
            train=TrainConfig(rank=3, max_iters=10, seed=0),
        )
        report = run_experiment(cfg)
        row = report.rows[0]
        assert row.p_at_k is not None  # quality still reported
        assert row.mad is None and row.ks is None
        assert "sensitive" in row.error
        assert not report.complete()

    def test_training_error_row_keeps_other_models(self, tmp_path):
        # rank too small for FT -> its row errors, OTC still runs
        cfg = toy_config(
            tmp_path, models=("OTC", "FT"), model_overrides={"FT": {"rank": 2}}
        )
        report = run_experiment(cfg)
        by_model = {r.model: r for r in report.rows}
        assert by_model["FT"].error is not None
        assert by_model["OTC"].complete()
        assert not report.complete()

    def test_evaluation_error_row_keeps_other_models(self, tmp_path, monkeypatch):
        fairness_metrics = harness._fairness_metrics

        def fail_for_ft(model, *args):
            if model.kind == "FT":
                raise ConfigError("scope too large")
            return fairness_metrics(model, *args)

        monkeypatch.setattr(harness, "_fairness_metrics", fail_for_ft)
        report = run_experiment(toy_config(tmp_path, models=("OTC", "FT")))
        by_model = {r.model: r for r in report.rows}
        assert by_model["FT"].error == "fairness: scope too large"
        assert by_model["FT"].p_at_k is not None  # quality still reported
        assert by_model["OTC"].complete()
        assert not report.complete()

    def test_run_seeds_offset_from_base(self, tmp_path):
        cfg = toy_config(tmp_path, repeats=2, base_seed=10)
        report = run_experiment(cfg)
        assert [r.seed for r in report.rows] == [11, 12]

    def test_synth_source(self):
        cfg = ExperimentConfig(
            synth=SynthConfig(
                n_users=30, n_curators=20, n_topics=2, true_rank=2,
                group_ratio=0.5, bias_strength=0.2, target_sparsity=0.15, seed=1,
            ),
            negative_probability=0.05,
            repeats=1,
            k=5,
            models=("OTC", "FT"),
            train=TrainConfig(rank=4, max_iters=40, seed=0),
        )
        report = run_experiment(cfg)
        assert report.complete()
        means = report.model_means()
        assert means["FT"]["ks"] < means["OTC"]["ks"]


class TestEvaluateScopes:
    def trained(self, tmp_path, **kw):
        cfg = toy_config(tmp_path, **kw)
        ds, smap = prepare_run(cfg, run=1)
        model = train_model("OTC", ds.train, cfg.train_config_for("OTC", 1), smap)
        return model, ds, smap

    def test_full_scope_differs_from_test_scope(self, tmp_path):
        model, ds, smap = self.trained(tmp_path)
        test_scope = evaluate_model(model, ds, smap, 3, 50, fairness_scope="test")
        full_scope = evaluate_model(model, ds, smap, 3, 50, fairness_scope="full")
        assert test_scope["p_at_k"] == full_scope["p_at_k"]
        assert test_scope["mad"] != full_scope["mad"]

    def test_user_rank_scope_runs(self, tmp_path):
        model, ds, smap = self.trained(tmp_path)
        values = evaluate_model(model, ds, smap, 3, 50, rank_scope="user")
        for v in values.values():
            assert math.isfinite(v)

    @pytest.mark.parametrize("setting, message", [
        (dict(rank_scope="bogus"), "rank_scope must be"),
        (dict(fairness_scope="everything"), "fairness_scope must be"),
        (dict(k=0, rank_scope="user"), "k and intervals must be >= 1"),
        (dict(k=0, rank_scope="user_topic"), "k and intervals must be >= 1"),
        (dict(intervals=0), "k and intervals must be >= 1"),
        (dict(k="3"), "field 'k' must be int, got str"),
        (dict(k=2.5), "field 'k' must be int, got float"),
        (dict(k=True), "field 'k' must be int, got bool"),
        (dict(intervals="5"), "field 'intervals' must be int, got str"),
        (dict(intervals=2.0), "field 'intervals' must be int, got float"),
    ], ids=["rank_scope", "fairness_scope", "k-user", "k-user_topic", "intervals",
            "k-str", "k-float", "k-bool", "intervals-str", "intervals-float"])
    def test_bad_setting_is_config_error(self, tmp_path, setting, message):
        model, ds, smap = self.trained(tmp_path)
        args = {"k": 3, "intervals": 50, **setting}
        with pytest.raises(ConfigError, match=message):
            evaluate_model(model, ds, smap, **args)


    def test_full_scope_over_dense_bound_is_config_error(self):
        # 2**26 cells, twice MAX_DENSE_CELLS, from empty tensors and rank-1
        # factors, so nothing of that size is allocated
        shape = (2**13, 2**12, 2)
        model = TrainedModel(
            kind="OTC", shape=shape, config=TrainConfig(rank=1), loss_trace=(0.0,),
            factors=FactorModel(*(np.zeros((size, 1)) for size in shape)),
        )
        empty = ObservationTensor.from_entries(*shape, [])
        ds = SplitDataset(train=empty, test=empty, seed=1)
        smap = SensitiveMap(groups=np.arange(shape[1]) % 2)
        with pytest.raises(ConfigError, match="67108864 dense cells, more than "
                           "MAX_DENSE_CELLS = 33554432"):
            harness._fairness_metrics(model, ds, smap, 50, "full")
        with pytest.raises(UndefinedMetricError):  # test scope: no cells, no bound
            harness._fairness_metrics(model, ds, smap, 50, "test")


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while ``fn()`` runs, after one
    untraced call fills the package's one-time caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """No step holds the n*m*K cells at once: each peaks below half of
    their n*m*K*8 bytes."""

    @pytest.mark.parametrize("shape, block, bias", [
        ((200, 100, 10), 2**13, 0.1),  # the module's 2**17-cell block is most of this tensor
        ((589, 252, 10), None, 0.1),
        ((589, 252, 10), None, 1e15),  # group 0's scores tie in 0.125 steps near 1e15
    ], ids=["200x100x10", "paper-shape", "paper-shape-ties"])
    def test_synth_generate(self, shape, block, bias, monkeypatch):
        if block is not None:
            monkeypatch.setattr(data, "SYNTH_BLOCK_CELLS", block)
        cfg = SynthConfig(*shape, true_rank=4, bias_strength=bias, target_sparsity=0.01, seed=1)
        assert traced_peak(lambda: synth_generate(cfg)) < math.prod(shape) * 8 / 2

    def test_full_scope_fairness(self):
        shape = (200, 100, 10)
        rng = np.random.default_rng(2)
        model = TrainedModel(
            kind="OTC", shape=shape, config=TrainConfig(rank=20), loss_trace=(0.0,),
            factors=FactorModel(*(rng.random((size, 20)) for size in shape)),
        )
        empty = ObservationTensor.from_entries(*shape, [])
        ds = SplitDataset(train=empty, test=empty, seed=1)
        smap = SensitiveMap(groups=np.arange(shape[1]) % 2)
        peak = traced_peak(lambda: harness._fairness_metrics(model, ds, smap, 50, "full"))
        assert peak < math.prod(shape) * 8 / 2


def reference_positives_by_unit(obs, rank_scope):
    """Per-cell loop: positive ids per unit in cell order."""
    out = {}
    for i, j, t, v in zip(obs.users, obs.curators, obs.topics, obs.values):
        if v != 1.0:
            continue
        if rank_scope == "user_topic":
            out.setdefault(int(i) * obs.n_topics + int(t), []).append(int(j))
        else:
            out.setdefault(int(i), []).append(int(j) * obs.n_topics + int(t))
    return out


TOP_INDICES = harness._top_indices


def capture_top_indices(monkeypatch):
    """(scores, k_items, exclude, result) of each ranking the harness makes."""
    calls = []

    def capture(scores, k_items, exclude):
        top = TOP_INDICES(scores, k_items, exclude)
        calls.append((scores, k_items, list(exclude), top))
        return top

    monkeypatch.setattr(harness, "_top_indices", capture)
    return calls


def small_synth_config(**kw):
    base = dict(
        synth=SynthConfig(
            n_users=30, n_curators=12, n_topics=3, true_rank=2,
            group_ratio=0.5, bias_strength=0.2, target_sparsity=0.15, seed=3,
        ),
        negative_probability=0.05,
        repeats=1,
        k=4,
        models=("OTC",),
        train=TrainConfig(rank=3, max_iters=20, seed=0),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRanking:
    @pytest.mark.parametrize("rank_scope", ["user_topic", "user"])
    def test_positives_by_unit_matches_cell_loop(self, rank_scope):
        ds, _ = prepare_run(small_synth_config(), run=1)
        rng = np.random.default_rng(0)
        n, m, kk = 9, 7, 4
        flat = rng.permutation(n * m * kk)[:120]  # cells out of key order
        shuffled = ObservationTensor(
            n, m, kk, flat // (m * kk), (flat // kk) % m, flat % kk,
            rng.integers(0, 2, flat.size).astype(float),
        )
        empty = ObservationTensor(n, m, kk, *(np.zeros(1, dtype=np.int64),) * 3, np.zeros(1))
        for obs in (ds.train, ds.test, shuffled, empty):
            got = harness._positives_by_unit(obs, rank_scope)
            assert got == reference_positives_by_unit(obs, rank_scope)
            assert all(type(x) is int for ids in got.values() for x in ids)

    def tied_model(self, shape):
        """Factors of 0s and 1s: most scores tie with many others."""
        n, m, kk = shape
        rng = np.random.default_rng(5)
        factors = FactorModel(
            *(rng.integers(0, 2, (size, 2)).astype(float) for size in (n, m, kk))
        )
        return TrainedModel(
            kind="OTC", shape=shape, config=TrainConfig(rank=2), factors=factors,
            loss_trace=(0.0,),
        )

    def brute_force_case(self, monkeypatch, rank_scope, tied):
        """Every unit's ranked list, exclusions and P/R@k against a sort of
        :func:`score_curators` values over the unit's cells."""
        cfg = small_synth_config(rank_scope=rank_scope)
        ds, smap = prepare_run(cfg, run=1)
        if tied:
            model = self.tied_model(ds.train.shape)
        else:
            model = train_model("OTC", ds.train, cfg.train_config_for("OTC", 1), smap)
        _, m, kk = model.shape
        k = cfg.k
        per_user = rank_scope == "user"

        def unit_of(i, t):
            return i if per_user else i * kk + t

        def item_of(j, t):
            return j * kk + t if per_user else j

        train_pos = {(i, j, t) for i, j, t, v in ds.train.entry_tuples() if v == 1.0}
        test_pos: dict = {}
        for i, j, t, v in ds.test.entry_tuples():
            if v == 1.0:
                test_pos.setdefault(unit_of(i, t), set()).add(item_of(j, t))
        calls = capture_top_indices(monkeypatch)
        values = evaluate_model(model, ds, smap, k, 50, rank_scope=rank_scope)
        assert len(calls) == len(test_pos)
        p = r = 0.0
        for unit, (_, k_items, exclude, top) in zip(sorted(test_pos), calls):
            i, topics = (unit, range(kk)) if per_user else (unit // kk, [unit % kk])
            ranked = sorted(
                (-float(score_curators(model, i, t)[j]), item_of(j, t))
                for j in range(m) for t in topics if (i, j, t) not in train_pos
            )
            expected = [item for _, item in ranked[:k]]
            assert k_items == k
            assert exclude == sorted(item_of(j, t) for (u, j, t) in train_pos
                                     if u == i and t in topics)
            assert top.tolist() == expected
            hits = len(set(expected) & test_pos[unit])
            p += hits / k
            r += hits / len(test_pos[unit])
        assert values["p_at_k"] == p / len(test_pos)
        assert values["r_at_k"] == r / len(test_pos)

    @pytest.mark.parametrize("tied", [False, True])
    def test_user_scope_matches_brute_force(self, monkeypatch, tied):
        self.brute_force_case(monkeypatch, "user", tied)

    @pytest.mark.parametrize("tied", [False, True])
    def test_user_topic_scope_matches_brute_force(self, monkeypatch, tied):
        self.brute_force_case(monkeypatch, "user_topic", tied)

    @pytest.mark.parametrize("kind, extra", [
        *((kind, False) for kind in ("OTC", "RTC", "FT", "OMC", "RMC", "FM")),
        ("FT", True), ("FM", True),
    ])
    def test_user_grid_equals_score_curators_rows(self, monkeypatch, kind, extra):
        # both scopes rank the scores of one expression; each unit's must
        # equal, bit for bit, one gemv per topic over topic_factors and the
        # score_curators rows of its topics, in cell id order.  At rank 8 a
        # product summed in another order (an einsum) differs in every case;
        # at rank 4 it often gave the same bits
        cfg = small_synth_config()
        ds, smap = prepare_run(cfg, run=1)
        train_cfg = TrainConfig(rank=8, max_iters=5, seed=2, extra_sensitive_cols=extra)
        model = train_model(kind, ds.train, train_cfg, smap)
        a, b = model.topic_factors
        kk = model.shape[2]
        calls = capture_top_indices(monkeypatch)
        for rank_scope in ("user", "user_topic"):
            calls.clear()
            harness._quality_metrics(model, ds, cfg.k, rank_scope)
            units = sorted(harness._positives_by_unit(ds.test, rank_scope))
            assert len(calls) == len(units)
            for unit, (scores, k_items, exclude, top) in zip(units, calls):
                user, topics = (unit, range(kk)) if rank_scope == "user" else divmod(unit, kk)
                topics = np.atleast_1d(topics)
                want = np.stack([b[t] @ a[t, user] for t in topics], axis=1).ravel()
                rows = np.stack([score_curators(model, user, t) for t in topics], axis=1)
                assert scores.view(np.int64).tolist() == want.view(np.int64).tolist()
                assert rows.ravel().view(np.int64).tolist() == want.view(np.int64).tolist()
                assert top.tolist() == TOP_INDICES(want, k_items, exclude).tolist()


class TestOracles:
    def test_all_checks_pass(self):
        checks = run_oracles()
        assert len(checks) == 5
        for check in checks:
            assert check.passed, f"{check.name}: {check.detail}"


class TestCli:
    def synth_config(self, tmp_path):
        cfg = dict(
            n_users=25, n_curators=12, n_topics=2, true_rank=2,
            group_ratio=0.5, bias_strength=0.2, target_sparsity=0.15, seed=3,
        )
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def experiment_config(self, tmp_path, data_dir, **kw):
        doc = {
            "interactions_csv": str(data_dir / "interactions.csv"),
            "sensitive_csv": str(data_dir / "sensitive.csv"),
            "negative_probability": 0.05,
            "repeats": 1,
            "k": 3,
            "models": ["OTC", "FT"],
            "train": {"rank": 4, "max_iters": 20, "seed": 0},
        }
        doc.update(kw)
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_synth_then_experiment(self, tmp_path, capsys):
        synth_cfg = self.synth_config(tmp_path)
        data_dir = tmp_path / "data"
        assert cli_main(["synth", "--config", str(synth_cfg), "--out", str(data_dir)]) == 0
        assert (data_dir / "interactions.csv").exists()
        assert (data_dir / "sensitive.csv").exists()
        meta = json.loads((data_dir / "synthesis.json").read_text())
        assert meta["config"]["n_users"] == 25
        capsys.readouterr()

        exp_cfg = self.experiment_config(tmp_path, data_dir)
        out = tmp_path / "results"
        code = cli_main(["experiment", "--config", str(exp_cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert (out / "report.csv").exists()
        assert captured.out.startswith("model,run,seed,")

    def test_train_then_evaluate(self, tmp_path, capsys):
        synth_cfg = self.synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli_main(["synth", "--config", str(synth_cfg), "--out", str(data_dir)])
        exp_cfg = self.experiment_config(tmp_path, data_dir)

        ckpt_dir = tmp_path / "ckpt"
        code = cli_main(
            ["train", "--config", str(exp_cfg), "--models", "FT", "--out", str(ckpt_dir)]
        )
        assert code == 0
        ckpt = ckpt_dir / "ft_checkpoint.json"
        assert ckpt.exists()
        model = load_checkpoint(ckpt)
        assert model.kind == "FT"
        capsys.readouterr()

        code = cli_main(
            [
                "evaluate",
                "--config", str(exp_cfg),
                "--models", "FT",
                "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "eval"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["model"] == "FT"
        assert all(math.isfinite(doc[f]) for f in ("p_at_k", "r_at_k", "f1_at_k", "mad", "ks"))
        assert (tmp_path / "eval" / "ft_metrics.json").exists()

    def test_train_fm_one_group_map_exits_2(self, tmp_path, capsys):
        synth_cfg = self.synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli_main(["synth", "--config", str(synth_cfg), "--out", str(data_dir)])
        sensitive = data_dir / "sensitive.csv"
        header, *rows = sensitive.read_text(encoding="utf-8").splitlines()
        one_group = [row.rsplit(",", 1)[0] + ",0" for row in rows]
        sensitive.write_text("\n".join([header, *one_group]) + "\n", encoding="utf-8")
        exp_cfg = self.experiment_config(tmp_path, data_dir)
        capsys.readouterr()
        code = cli_main(
            ["train", "--config", str(exp_cfg), "--models", "FM", "--out", str(tmp_path / "ckpt")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_train_requires_single_model(self, tmp_path, capsys):
        synth_cfg = self.synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli_main(["synth", "--config", str(synth_cfg), "--out", str(data_dir)])
        exp_cfg = self.experiment_config(tmp_path, data_dir)
        code = cli_main(["train", "--config", str(exp_cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "single kind" in capsys.readouterr().err

    def test_seed_flag_overrides_base_seed(self, tmp_path):
        synth_cfg = self.synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli_main(["synth", "--config", str(synth_cfg), "--out", str(data_dir)])
        exp_cfg = self.experiment_config(tmp_path, data_dir)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli_main(["experiment", "--config", str(exp_cfg), "--out", str(out_a), "--seed", "5"])
        cli_main(["experiment", "--config", str(exp_cfg), "--out", str(out_b), "--seed", "5"])
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        first = (out_a / "report.csv").read_text().splitlines()[1]
        assert first.split(",")[2] == "6"  # base_seed 5 + run 1

    def synth_experiment(self, tmp_path, name, n_users=25, **kw):
        synth = json.loads(self.synth_config(tmp_path).read_text(encoding="utf-8"))
        doc = {
            "synth": dict(synth, n_users=n_users),
            "repeats": 1,
            "k": 3,
            "models": ["OTC"],
            "train": {"rank": 3, "max_iters": 5},
            **kw,
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "5"]], ids=["base_seed", "seed-flag"])
    def test_train_evaluate_reproduce_experiment_run_1(self, tmp_path, capsys, seed_args):
        exp_cfg = self.synth_experiment(tmp_path, "exp", repeats=2, models=["OTC", "RTC"])
        out = tmp_path / "report"
        code = cli_main(["experiment", "--config", str(exp_cfg), "--out", str(out), *seed_args])
        assert code == 0
        rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]
        expected = next(r for r in rows if r["model"] == "RTC" and r["run"] == 1)
        assert expected["seed"] == (6 if seed_args else 1)
        common = ["--config", str(exp_cfg), "--models", "RTC", *seed_args]
        assert cli_main(["train", *common, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        ckpt = str(tmp_path / "rtc_checkpoint.json")
        assert cli_main(["evaluate", *common, "--checkpoint", ckpt]) == 0
        got = json.loads(capsys.readouterr().out)
        for name in ("seed", "p_at_k", "r_at_k", "f1_at_k", "mad", "ks"):
            assert got[name] == expected[name], name

    @pytest.mark.parametrize("edit", [
        {"model_overrides": {"OTC": {"rank": 0}}},
        {"train": {"rank": 3, "max_iters": 5, "seed": 5}},
    ], ids=["override-range", "train-seed"])
    def test_config_rejected_before_any_run(self, tmp_path, capsys, edit):
        exp_cfg = self.synth_experiment(tmp_path, "exp", **edit)
        out = tmp_path / "out"
        assert cli_main(["experiment", "--config", str(exp_cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("command, edit, flag", [
        ("synth", {"seed": -1}, []),
        ("experiment", {"base_seed": -5}, []),
        ("experiment", {}, ["--seed", "-5"]),
        ("synth", {}, ["--seed", "-5"]),
        ("experiment", {"model_overrides": {"OTC": {"seed": -3}}}, []),
    ], ids=["synth-seed", "base_seed", "experiment-seed-flag", "synth-seed-flag",
            "override-seed"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, edit, flag):
        if command == "synth":
            path = self.synth_config(tmp_path)
            doc = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps(dict(doc, **edit)), encoding="utf-8")
        else:
            path = self.synth_experiment(tmp_path, "exp", **edit)
        out = tmp_path / "out"
        code = cli_main([command, "--config", str(path), "--out", str(out), *flag])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "seed must be >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    @pytest.mark.parametrize("bias", [math.nan, math.inf], ids=["NaN", "Infinity"])
    def test_non_finite_bias_strength_exits_2(self, tmp_path, capsys, command, bias):
        synth = json.loads(self.synth_config(tmp_path).read_text(encoding="utf-8"))
        synth["bias_strength"] = bias  # json writes NaN and Infinity, and reads them back
        if command == "synth":
            path = tmp_path / "synth.json"
            path.write_text(json.dumps(synth), encoding="utf-8")
        else:
            path = self.synth_experiment(tmp_path, "exp", synth=synth)
        out = tmp_path / "out"
        code = cli_main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "bias_strength must be finite and >= 0" in err
        assert not out.exists()

    # sizes that numpy refuses at once, so a missed check fails fast
    HUGE = [10**12, 2**70]

    @pytest.mark.parametrize("edit", [
        *({"synth": {"true_rank": v}} for v in HUGE),
        *({"intervals": v} for v in HUGE),
    ], ids=["true_rank-1e12", "true_rank-2^70", "intervals-1e12", "intervals-2^70"])
    def test_oversized_config_exits_2(self, tmp_path, capsys, edit):
        synth = dict(n_users=20, n_curators=12, n_topics=3, seed=1, target_sparsity=0.2)
        synth.update(edit.pop("synth", {}))
        exp_cfg = self.synth_experiment(tmp_path, "exp", synth=synth, **edit)
        out = tmp_path / "out"
        assert cli_main(["experiment", "--config", str(exp_cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MAX_DENSE_CELLS" in err
        assert not out.exists()

    @pytest.mark.parametrize("rank", [10**6, *HUGE], ids=["1e6", "1e12", "2^70"])
    def test_oversized_rank_is_rejected_before_training(self, tmp_path, capsys, rank):
        # (20 + 12 + 3) * 10**6 factor cells for a tensor kind, 3 * (20 + 12) *
        # 10**6 for a matrix kind: each above MAX_DENSE_CELLS before any draw
        synth = dict(n_users=20, n_curators=12, n_topics=3, seed=1, target_sparsity=0.2)
        exp_cfg = self.synth_experiment(
            tmp_path, "exp", synth=synth, models=list(MODEL_KINDS), train={"rank": rank}
        )
        out = tmp_path / "report"
        assert cli_main(["experiment", "--config", str(exp_cfg), "--out", str(out)]) == 1
        rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]
        errors = {row["model"]: row["error"] for row in rows if row["run"] == 1}
        assert sorted(errors) == sorted(MODEL_KINDS)
        for kind, error in errors.items():
            assert error.startswith(f"training failed: {kind}'s factor set"), error
            assert "MAX_DENSE_CELLS" in error
        for kind in MODEL_KINDS:
            capsys.readouterr()
            assert cli_main(["train", "--config", str(exp_cfg), "--models", kind,
                             "--out", str(tmp_path / "ckpt")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "MAX_DENSE_CELLS" in err, kind

    def singular_als_experiment(self, tmp_path):
        """OTC and OMC at rank 8 with a ridge too small to keep ALS's normal
        equations solvable on a 20 x 12 x 3 synth."""
        synth = dict(n_users=20, n_curators=12, n_topics=3, seed=1, bias_strength=0.1,
                     target_sparsity=0.2)
        return self.synth_experiment(
            tmp_path, "exp", synth=synth, negative_probability=0.05,
            models=["OTC", "OMC"], train={"rank": 8, "lam": 1e-16},
        )

    def test_singular_als_is_a_training_failed_row(self, tmp_path):
        out = tmp_path / "report"
        code = cli_main(["experiment", "--config", str(self.singular_als_experiment(tmp_path)),
                         "--out", str(out)])
        assert code == 1
        rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]
        errors = {row["model"]: row["error"] for row in rows if row["run"] == 1}
        message = "ALS solve is singular at lam=1e-16; raise lam"
        assert errors["OTC"] == f"training failed: {message}"
        assert re.fullmatch(rf"training failed: topic \d+: {message}", errors["OMC"])

    @pytest.mark.parametrize("kind", ["OTC", "OMC"])
    def test_train_singular_als_exits_2(self, tmp_path, capsys, kind):
        exp_cfg = self.singular_als_experiment(tmp_path)
        out = tmp_path / "ckpt"
        assert cli_main(["train", "--config", str(exp_cfg), "--models", kind,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.rstrip().endswith("raise lam")

    def scaled_checkpoint(self, tmp_path, exp_cfg):
        """An OTC checkpoint whose user and curator factors are scaled by
        1e200, so its scores overflow to infinities."""
        assert cli_main(["train", "--config", str(exp_cfg), "--out", str(tmp_path)]) == 0
        ckpt = tmp_path / "otc_checkpoint.json"
        model = load_checkpoint(ckpt)
        f = model.factors
        scaled = FactorModel(f.u_users * 1e200, f.u_curators * 1e200, f.u_topics)
        save_checkpoint(replace(model, factors=scaled), ckpt)
        return ckpt

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scope", ["test", "full"])
    def test_evaluate_non_finite_scores_exits_2(self, tmp_path, capsys, scope):
        exp_cfg = self.synth_experiment(tmp_path, "exp", fairness_scope=scope)
        ckpt = self.scaled_checkpoint(tmp_path, exp_cfg)
        capsys.readouterr()
        code = cli_main(["evaluate", "--config", str(exp_cfg), "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "non-finite scores" in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scope", ["test", "full"])
    def test_experiment_non_finite_scores_is_an_error_row(self, tmp_path, monkeypatch, scope):
        exp_cfg = self.synth_experiment(tmp_path, "exp", fairness_scope=scope)
        scaled = load_checkpoint(self.scaled_checkpoint(tmp_path, exp_cfg))
        monkeypatch.setattr(harness, "train_model", lambda *args: scaled)
        out = tmp_path / "report"
        assert cli_main(["experiment", "--config", str(exp_cfg), "--out", str(out)]) == 1
        (row,) = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]
        assert row["mad"] is None and row["ks"] is None
        assert row["error"].startswith("fairness: group ") and "non-finite scores" in row["error"]

    @pytest.mark.parametrize("problem", ["missing", "truncated", "other shape"])
    def test_evaluate_bad_checkpoint_exits_2(self, tmp_path, capsys, problem):
        exp_cfg = self.synth_experiment(tmp_path, "exp")
        ckpt = tmp_path / "otc_checkpoint.json"
        if problem != "missing":
            trained_on = exp_cfg if problem == "truncated" else self.synth_experiment(
                tmp_path, "other", n_users=20
            )
            assert cli_main(["train", "--config", str(trained_on), "--out", str(tmp_path)]) == 0
        if problem == "truncated":
            ckpt.write_text(ckpt.read_text(encoding="utf-8")[:200], encoding="utf-8")
        capsys.readouterr()
        code = cli_main(["evaluate", "--config", str(exp_cfg), "--checkpoint", str(ckpt)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("models, code, message", [
        ("FT", 2, "does not match the checkpoint's OTC model"),
        ("FT,RTC", 2, "single kind"),
        ("OTC", 0, None),
    ], ids=["wrong-kind", "two-kinds", "matching-kind"])
    def test_evaluate_checks_model_kind(self, tmp_path, capsys, models, code, message):
        exp_cfg = self.synth_experiment(tmp_path, "exp")
        assert cli_main(["train", "--config", str(exp_cfg), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        ckpt = str(tmp_path / "otc_checkpoint.json")
        got = cli_main(["evaluate", "--config", str(exp_cfg), "--models", models,
                        "--checkpoint", ckpt])
        captured = capsys.readouterr()
        assert got == code
        if message is None:
            assert json.loads(captured.out)["model"] == "OTC"
        else:
            assert captured.err.startswith("error:") and message in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("command, block", [
        ("experiment", "train"),
        ("experiment", "synth"),
        ("experiment", "model_overrides"),
        ("synth", "bare synth"),
    ])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, command, block):
        if block == "bare synth":
            path = self.synth_config(tmp_path)
            doc = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps(dict(doc, rnak=3)), encoding="utf-8")
        else:
            path = self.synth_experiment(tmp_path, "exp")
            doc = json.loads(path.read_text(encoding="utf-8"))
            if block == "model_overrides":
                doc["model_overrides"] = {"OTC": {"rnak": 3}}
            else:
                doc[block]["rnak"] = 3
            path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rnak" in err

    # the bad JSON value of each top-level field and the type error it gives
    TOP_LEVEL = {
        "repeats": ("1", "int, got str"),
        "models": (5, "tuple[str, ...], got int"),
        "train": (None, "TrainConfig, got NoneType"),
        "model_overrides": (["OTC"], "dict, got list"),
    }

    @pytest.mark.parametrize("command, block, field, label", [
        ("experiment", None, "repeats", "config"),
        ("experiment", "train", "rank", "train"),
        ("experiment", "synth", "n_users", "synth"),
        ("experiment", "model_overrides", "rank", "model_overrides['OTC']"),
        ("synth", "bare synth", "n_users", "synth"),
        ("experiment", None, "models", "config"),
        ("experiment", None, "train", "config"),
        ("experiment", None, "model_overrides", "config"),
    ])
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, command, block, field, label):
        expected = "int, got str"
        if block == "bare synth":
            path = self.synth_config(tmp_path)
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc[field] = "20"
        else:
            path = self.synth_experiment(tmp_path, "exp")
            doc = json.loads(path.read_text(encoding="utf-8"))
            if block == "model_overrides":
                doc[block] = {"OTC": {field: "3"}}
            elif block is None:
                doc[field], expected = self.TOP_LEVEL[field]
            else:
                doc[block][field] = "20"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {label} field {field!r} must be {expected}")

    @pytest.mark.parametrize("command, problem, message", [
        ("experiment", "config not JSON", "config .*experiment.json is not JSON"),
        ("experiment", "config missing", "cannot read config .*absent.json"),
        ("synth", "config not JSON", "config .*experiment.json is not JSON"),
        ("synth", "config missing", "cannot read config .*absent.json"),
        ("synth", "config not an object", "synth must be a JSON object"),
        ("experiment", "interactions_csv missing", "cannot read .*interactions.csv"),
        ("experiment", "sensitive_csv missing", "cannot read .*sensitive.csv"),
        ("experiment", "CSV not UTF-8", "interactions.csv is not UTF-8"),
    ], ids=["experiment-not-json", "experiment-no-config", "synth-not-json", "synth-no-config",
            "synth-not-object", "no-interactions", "no-sensitive", "not-utf8"])
    def test_file_error_exits_2(self, tmp_path, capsys, command, problem, message):
        interactions, sensitive = write_toy_dataset(tmp_path)
        path = self.experiment_config(tmp_path, tmp_path)
        if problem == "config not JSON":
            path.write_text('{"repeats": 1,', encoding="utf-8")
        elif problem == "config missing":
            path = tmp_path / "absent.json"
        elif problem == "config not an object":
            path.write_text("5", encoding="utf-8")
        elif problem == "CSV not UTF-8":
            interactions.write_bytes(b"user_id,curator_id,topic_id\nu\xff,c0,t0\n")
        else:
            (interactions if problem.startswith("interactions") else sensitive).unlink()
        code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert re.search(message, err), err

    def test_oracle_subcommand_exits_zero(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "fairtensor", "oracle"],
            capture_output=True,
            text=True,
            timeout=300,
            env=src_env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = [l for l in proc.stdout.strip().splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)


# Every config field gets each of these; a field that only sets run length
# skips the huge ones, which would run long rather than fail.
HOSTILE_VALUES = [None, True, "x", -1, 0, 1.5, 10**6, 10**12, 2**70,
                  math.nan, math.inf, -math.inf, [], {}]
HUGE_VALUES = (10**6, 10**12, 2**70)
RUN_LENGTH_FIELDS = ("repeats", "max_iters")
SWEEP_BASE = {
    "synth": dict(n_users=20, n_curators=12, n_topics=3, true_rank=2,
                  bias_strength=0.2, target_sparsity=0.2, seed=3),
    "negative_probability": 0.05, "repeats": 1, "k": 3, "intervals": 10,
    "models": list(MODEL_KINDS), "train": {"rank": 4, "max_iters": 3},
}
SWEEP_FIELDS = [
    *((f.name,) for f in fields(ExperimentConfig)),
    *(("synth", f.name) for f in fields(SynthConfig)),
    *(("train", f.name) for f in fields(TrainConfig)),
    *(("model_overrides", "FM", f.name) for f in fields(TrainConfig)),
]


class TestHostileConfigSweep:
    """Every config field set to each hostile value, through ``fairtensor
    experiment`` in-process on a tiny synth: the run exits 0 or 1, or 2 with
    an ``error:`` line, and no exception escapes ``main``."""

    @pytest.mark.parametrize("path", SWEEP_FIELDS, ids=".".join)
    def test_field_takes_every_hostile_value(self, tmp_path, capsys, path):
        values = [v for v in HOSTILE_VALUES
                  if not (path[-1] in RUN_LENGTH_FIELDS and v in HUGE_VALUES)]
        bad = []
        for value in values:
            doc = json.loads(json.dumps(SWEEP_BASE))
            node = doc
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            code = cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if code not in (0, 1, 2) or (code == 2 and not err.startswith("error:")):
                bad.append(f"{value!r}: exit {code}, {err[:200]!r}")
        assert not bad, bad



def checkpoint_paths(node, path=()):
    """Every key path of a checkpoint document, into the first item of each
    nonempty list: the fields and sub-fields that a sweep sets."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from checkpoint_paths(value, (*path, key))
    elif isinstance(node, list) and node:
        yield (*path, 0)
        yield from checkpoint_paths(node[0], (*path, 0))


class TestHostileCheckpointSweep:
    """Every field of a trained checkpoint set to each hostile value, through
    ``fairtensor evaluate`` in-process on the config sweep's tiny synth: the
    run exits 0, or 2 with an ``error:`` line, and no exception escapes
    ``main``."""

    @pytest.mark.parametrize("kind", ["OTC", "FM"])
    def test_every_field_takes_every_hostile_value(self, tmp_path, capsys, kind):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**SWEEP_BASE, "models": [kind]}), encoding="utf-8")
        assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        checkpoint = tmp_path / f"{kind.lower()}_checkpoint.json"
        trained = json.loads(checkpoint.read_text(encoding="utf-8"))
        paths = list(checkpoint_paths(trained))
        assert len(paths) >= 30
        capsys.readouterr()
        bad = []
        for path in paths:
            for value in HOSTILE_VALUES:
                doc = json.loads(json.dumps(trained))
                node = doc
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                checkpoint.write_text(json.dumps(doc), encoding="utf-8")
                code = cli_main(["evaluate", "--config", str(cfg),
                                 "--checkpoint", str(checkpoint)])
                err = capsys.readouterr().err
                if code not in (0, 2) or (code == 2 and not err.startswith("error:")):
                    bad.append(f"{path} = {value!r}: exit {code}, {err[:200]!r}")
        assert not bad, bad

def test_package_has_no_assert():
    """Checks that guard results must raise: ``python -O`` strips asserts."""
    package = Path(harness.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(package.glob("*.py"))) >= 8
    assert not found, f"assert statements in fairtensor: {found}"
