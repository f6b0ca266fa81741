import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fairtensor.cli import main as cli_main
from fairtensor.data import SynthConfig
from fairtensor.errors import ConfigError
from fairtensor.harness import (
    ExperimentConfig,
    evaluate_model,
    prepare_run,
    run_experiment,
    run_oracles,
)
from fairtensor.models import TrainConfig, load_checkpoint, train_model


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

    def test_oracle_subcommand_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fairtensor", "oracle"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = [l for l in proc.stdout.strip().splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)
