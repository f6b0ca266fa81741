"""Tests of the benchmark itself: metric coverage, the correctness gate, the contract.

Run with ``python -m pytest -q fairbench`` from the repository root.  The
workload runs use a tiny 40 x 24 x 3 shape with an iteration cap of 3, so
they check wiring, not performance.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"fairbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench = _load("run")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SYNTH = dict(
    n_users=40, n_curators=24, n_topics=3, true_rank=3, group_ratio=0.5, target_sparsity=0.3
)


def tiny(name):
    return replace(bench.WORKLOADS[name], synth=TINY_SYNTH, max_iters=3)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def good_report(models=("OTC", "FT")):
    rows = [
        dict(model=m, run=1, seed=1, p_at_k=0.5, r_at_k=0.25, f1_at_k=1 / 3,
             mad=0.01 if m == "FT" else 0.2, ks=0.01 if m == "FT" else 0.2, error=None)
        for m in models
    ]
    return {"rows": rows}


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = bench.run_one(tiny(name), seed=3, seconds=0.1, trace=0, root=ROOT)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert units(result["metrics"]) == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= bench.DATASETS * len(bench.WORKLOADS[name].models)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    result = bench.run_one(tiny(name), seed=3, seconds=0.1, trace=1, root=ROOT)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units(result["metrics"]) == want
    assert result["correct"], result


def test_planted_error_row_is_a_failure(monkeypatch):
    real = bench.run_experiment_child

    def plant(ds, root, work, tag):
        res, report = real(ds, root, work, tag)
        report["rows"][0]["error"] = "training failed: planted"
        return res, report

    monkeypatch.setattr(bench, "run_experiment_child", plant)
    result = bench.run_one(tiny("tensor-train"), seed=3, seconds=0.1, trace=1, root=ROOT)
    assert not result["correct"]
    assert result["failed"] == 1


def test_traced_untraced_mismatch_is_a_failure(monkeypatch):
    real = bench.layers_call

    def perturb(args, root, log_dir, tag):
        doc = real(args, root, log_dir, tag)
        if args[0] == "trace":
            row = doc["rows"][-1]
            row["ks"] = math.nextafter(row["ks"], math.inf)  # one bit
        return doc

    monkeypatch.setattr(bench, "layers_call", perturb)
    result = bench.run_one(tiny("tensor-train"), seed=3, seconds=0.1, trace=1, root=ROOT)
    assert not result["correct"]
    assert result["failed"] == 1


def test_gate_rules_on_reports():
    wl = replace(bench.WORKLOADS["tensor-train"], models=("OTC", "FT"))
    assert bench.row_failures(good_report(), wl) == {}
    assert set(bench.row_failures(None, wl)) == {("OTC", 1), ("FT", 1)}

    broken = good_report()
    broken["rows"][1]["ks"] = 0.3  # KS(FT) above KS(OTC)
    assert set(bench.row_failures(broken, wl)) == {("OTC", 1), ("FT", 1)}

    incomplete = good_report()
    incomplete["rows"][0]["mad"] = None
    assert set(bench.row_failures(incomplete, wl)) == {("OTC", 1)}

    ref = good_report()
    same = json.loads(json.dumps(ref))
    assert bench.mismatched_rows(ref, same["rows"]) == {}
    same["rows"][0]["p_at_k"] = math.nextafter(0.5, 0.0)
    assert set(bench.mismatched_rows(ref, same["rows"])) == {("OTC", 1)}


def test_host_scale_uses_the_two_references_around_each_child():
    scales = bench.host_scales([0.2, 0.6, 0.4])
    assert scales == pytest.approx([bench.HOST_REF_S / 0.4, bench.HOST_REF_S / 0.5])


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(bench.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    mapping = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
    assert set(mapping) == {m["name"] for m in BENCH["per_layer"]}
    e2e = set(bounds)
    for entry in mapping.values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["workloads"]) <= set(bench.WORKLOADS)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "fairbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable if c == "python3" else c for c in BENCH["command"]]
    proc = subprocess.run(
        [*cmd, "--workload", "eval-full", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
