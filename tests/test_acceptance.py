"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion;
each test also prints an explicit PASS line with the measured numbers.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from fairtensor.data import (
    SensitiveMap,
    SynthConfig,
    calibrate_bias_strength,
    negative_sample,
    positive_group_counts,
    split,
    synth_generate,
)
from fairtensor.harness import ExperimentConfig, run_experiment
from fairtensor.metrics import (
    GroupedScores,
    f1_at_k,
    ks,
    mad,
    precision_at_k,
    recall_at_k,
)
from fairtensor.models import (
    TrainConfig,
    ortho_penalty,
    parity_penalty,
    predict_cells,
    train_model,
)
from fairtensor.tensor_core import (
    FactorModel,
    ObservationTensor,
    cp_entries,
    masked_gradient,
    masked_loss,
)

PAPER_SHAPE = (589, 252, 10)
PAPER_SPARSITY = 0.01136
PAPER_POSITIVE_RATIO = 11612 / 5255  # ~2.21 : 1
PAPER_NEGATIVE_PROBABILITY = 0.00113


def announce(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def fully_observed(dense):
    n, m, kk = dense.shape
    users, curators, topics = np.meshgrid(
        np.arange(n), np.arange(m), np.arange(kk), indexing="ij"
    )
    return ObservationTensor(
        n, m, kk, users.ravel(), curators.ravel(), topics.ravel(), dense.ravel()
    )


def brute_force_loss(u1, u2, u3, dense, lam):
    n, m, kk = dense.shape
    sse = 0.0
    for i in range(n):
        for j in range(m):
            for k in range(kk):
                pred = sum(u1[i, r] * u2[j, r] * u3[k, r] for r in range(u1.shape[1]))
                sse += (dense[i, j, k] - pred) ** 2
    reg = sum(float(np.sum(u * u)) for u in (u1, u2, u3))
    return 0.5 * sse + 0.5 * lam * reg


def fd_gradient(fn, arrays, step=1e-6):
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for t in range(flat.size):
            orig = flat[t]
            flat[t] = orig + step
            up = fn()
            flat[t] = orig - step
            down = fn()
            flat[t] = orig
            gflat[t] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def rel_err(analytic, numeric):
    num = np.sqrt(sum(float(np.sum((a - b) ** 2)) for a, b in zip(analytic, numeric)))
    den = np.sqrt(sum(float(np.sum(b * b)) for b in numeric))
    return num / max(den, 1e-12)


def test_criterion_1_kernel_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    cases = 0
    for n, m, kk in itertools.product(range(1, 5), repeat=3):
        for rank in range(1, 4):
            u1, u2, u3 = rng.random((n, rank)), rng.random((m, rank)), rng.random((kk, rank))
            dense = rng.random((n, m, kk))
            lam = 0.25
            got = masked_loss(FactorModel(u1, u2, u3), fully_observed(dense), lam)
            want = brute_force_loss(u1, u2, u3, dense, lam)
            worst = max(worst, abs(got - want) / abs(want))
            cases += 1
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 1.0
    announce(1, f"kernel loss matches brute force on {cases} cases, "
                f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_masked = worst_parity = worst_ortho = 0.0
    for _ in range(20):
        n, m, kk = (int(x) for x in rng.integers(2, 6, size=3))
        rank = int(rng.integers(1, 5))
        u1, u2, u3 = rng.random((n, rank)), rng.random((m, rank)), rng.random((kk, rank))
        total = n * m * kk
        keep = rng.random(total) < 0.6
        if not keep.any():
            keep[0] = True
        flat = np.flatnonzero(keep)
        obs = ObservationTensor(
            n, m, kk, flat // (m * kk), (flat // kk) % m, flat % kk, rng.random(flat.size)
        )
        lam = float(rng.random() * 0.5)

        analytic = masked_gradient(FactorModel(u1, u2, u3), obs, lam)
        numeric = fd_gradient(
            lambda: masked_loss(FactorModel(u1, u2, u3), obs, lam), [u1, u2, u3]
        )
        worst_masked = max(worst_masked, rel_err(analytic, numeric))

        groups = rng.integers(0, 2, size=m)
        groups[obs.curators[0]] = 0
        groups[obs.curators[-1]] = 1
        cell_groups = groups[obs.curators]
        if np.any(cell_groups == 0) and np.any(cell_groups == 1):
            gamma = 2.0
            _, grads = parity_penalty(FactorModel(u1, u2, u3), obs, groups, gamma)
            numeric = fd_gradient(
                lambda: parity_penalty(FactorModel(u1, u2, u3), obs, groups, gamma)[0],
                [u1, u2, u3],
            )
            worst_parity = max(worst_parity, rel_err(grads, numeric))

        s = np.zeros((m, 2))
        s[groups == 0, 0] = 1.0
        s[groups == 1, 1] = 1.0
        mu = 3.0
        _, go = ortho_penalty(u2, s, mu)
        numeric = fd_gradient(lambda: ortho_penalty(u2, s, mu)[0], [u2])
        worst_ortho = max(worst_ortho, rel_err([go], numeric))
    elapsed = time.perf_counter() - started
    assert worst_masked < 1e-5
    assert worst_parity < 1e-5
    assert worst_ortho < 1e-5
    assert elapsed < 10.0
    announce(2, f"gradients vs finite differences: masked {worst_masked:.2e}, "
                f"parity {worst_parity:.2e}, ortho {worst_ortho:.2e}, {elapsed:.2f}s")


def test_criterion_3_als_monotonicity_and_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(303)

    # monotonicity on a sparse random instance
    n, m, kk = 8, 7, 5
    total = n * m * kk
    flat = np.flatnonzero(rng.random(total) < 0.5)
    obs = ObservationTensor(
        n, m, kk, flat // (m * kk), (flat // kk) % m, flat % kk, rng.random(flat.size)
    )
    model = train_model("OTC", obs, TrainConfig(rank=3, lam=0.05, max_iters=80, tol=0.0, seed=1))
    worst_step = float(np.diff(model.loss_trace).max())
    assert worst_step <= 1e-9

    # rank-2 recovery on a fully observed 6x6x4 tensor
    dense = np.einsum(
        "ir,jr,kr->ijk",
        rng.standard_normal((6, 2)),
        rng.standard_normal((6, 2)),
        rng.standard_normal((4, 2)),
    )
    full = fully_observed(dense)
    fitted = train_model(
        "OTC", full, TrainConfig(rank=2, lam=1e-6, max_iters=2000, tol=1e-14, seed=2)
    )
    resid = full.values - predict_cells(fitted, full.users, full.curators, full.topics)
    rmse = float(np.sqrt(np.mean(resid**2)))
    elapsed = time.perf_counter() - started
    assert rmse < 1e-3
    assert elapsed < 30.0
    announce(3, f"ALS worst loss increase {worst_step:.2e}, recovery rmse {rmse:.2e}, "
                f"{elapsed:.2f}s")


def test_criterion_4_ft_structural_invariants():
    cfg = SynthConfig(
        n_users=60, n_curators=30, n_topics=3, true_rank=3,
        group_ratio=0.5, bias_strength=0.09, target_sparsity=0.08, seed=11,
    )
    positives, smap, _ = synth_generate(cfg)
    ds = split(negative_sample(positives, 0.008, 13), 0.7, 13)
    model = train_model(
        "FT", ds.train,
        TrainConfig(rank=6, lam=0.01, ortho_weight=1.0, learning_rate=0.005,
                    max_iters=300, tol=0.0, seed=5),
        smap,
    )
    f = model.factors
    sens = list(f.sensitive_cols)
    ns = list(f.nonsensitive_cols)

    assert np.array_equal(f.u_curators[:, sens], smap.matrix)

    u_ns = f.u_curators[:, ns]
    resid = float(np.linalg.norm(smap.matrix.T @ u_ns))
    bound = 1e-9 * float(np.linalg.norm(u_ns))
    assert resid <= bound

    probe = ds.test
    before = predict_cells(model, probe.users, probe.curators, probe.topics)
    tampered_u2 = f.u_curators.copy()
    tampered_u2[:, sens] = 777.0
    tampered = replace(
        model,
        factors=FactorModel(f.u_users, tampered_u2, f.u_topics, sensitive_cols=f.sensitive_cols),
    )
    after = predict_cells(tampered, probe.users, probe.curators, probe.topics)
    assert np.array_equal(before, after)
    announce(4, f"sensitive columns frozen to the one-hot features, "
                f"projection residual {resid:.2e} <= {bound:.2e}, "
                f"predictions bit-identical under sensitive-column overwrite")


def test_criterion_5_metric_hand_cases():
    assert ks(GroupedScores([0.0, 0.0], [1.0, 1.0]), 50) == 0.98
    assert ks(GroupedScores([0.0, 1.0], [1.0, 1.0]), 50) == 0.49
    assert ks(GroupedScores([0.4, 0.6], [0.4, 0.6]), 50) == 0.0

    assert mad(GroupedScores([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])) == 1.0
    assert mad(GroupedScores([5.0], [5.0])) == 0.0
    assert mad(GroupedScores([0.0, 0.0], [1.0])) == 1.0

    assert precision_at_k({"u": ["a", "b"]}, {"u": {"a", "b"}}, 2) == 1.0
    assert precision_at_k({"u": ["a", "b"]}, {"u": {"c"}}, 2) == 0.0
    assert precision_at_k(
        {"u": ["a"], "v": ["a", "b"]}, {"u": {"a", "x"}, "v": {"a", "b"}}, 2
    ) == 0.75
    assert recall_at_k({"u": ["a", "b"]}, {"u": {"a", "b", "c", "d"}}, 2) == 0.5
    assert recall_at_k({"u": ["a", "b"]}, {"u": {"a", "b"}}, 2) == 1.0

    assert f1_at_k(0.5, 0.5) == 0.5
    assert f1_at_k(0.0, 0.0) == 0.0
    f1 = f1_at_k(0.0958, 0.4384)
    assert abs(f1 - 0.1572) <= 5e-4
    announce(5, f"KS hand cases exact (0.98, 0.49); F1(0.0958, 0.4384) = {f1:.5f}")


def paper_shaped_config():
    n, m, kk = PAPER_SHAPE
    base = SynthConfig(
        n_users=n, n_curators=m, n_topics=kk, true_rank=4,
        group_ratio=0.5, bias_strength=0.0, target_sparsity=PAPER_SPARSITY, seed=42,
    )
    bias = calibrate_bias_strength(base, PAPER_POSITIVE_RATIO, rel_tol=0.02)
    return replace(base, bias_strength=bias)


def test_criterion_6_table1_qualitative_ordering():
    started = time.perf_counter()
    synth = paper_shaped_config()

    obs, smap, _ = synth_generate(synth)
    n0, n1 = positive_group_counts(obs, smap)
    ratio = n0 / n1
    assert abs(ratio - PAPER_POSITIVE_RATIO) <= 0.1 * PAPER_POSITIVE_RATIO

    cfg = ExperimentConfig(
        synth=synth,
        negative_probability=PAPER_NEGATIVE_PROBABILITY,
        train_fraction=0.7,
        repeats=3,
        k=15,
        intervals=50,
        train=TrainConfig(rank=20),
        base_seed=0,
    )
    report = run_experiment(cfg)
    assert report.complete()
    means = report.model_means()
    ks_of = {m: means[m]["ks"] for m in means}
    mad_of = {m: means[m]["mad"] for m in means}
    f1_of = {m: means[m]["f1_at_k"] for m in means}

    assert ks_of["FT"] < ks_of["RTC"] < ks_of["OTC"]
    assert ks_of["FM"] < ks_of["OMC"]
    assert mad_of["FT"] < mad_of["OTC"]
    assert f1_of["FT"] >= 0.75 * f1_of["OTC"]
    elapsed = time.perf_counter() - started
    assert elapsed < 15 * 60
    announce(6, "mean KS FT {FT:.4f} < RTC {RTC:.4f} < OTC {OTC:.4f}; "
                "FM {FM:.4f} < OMC {OMC:.4f}; ".format(**ks_of)
             + f"mean MAD FT {mad_of['FT']:.4f} < OTC {mad_of['OTC']:.4f}; "
               f"F1 ratio {f1_of['FT'] / f1_of['OTC']:.3f}; "
               f"positives ratio {ratio:.2f}; {elapsed:.0f}s")


def test_criterion_7_protocol_reproducibility(tmp_path):
    cfg = ExperimentConfig(
        synth=SynthConfig(
            n_users=40, n_curators=24, n_topics=3, true_rank=3,
            group_ratio=0.5, bias_strength=0.1, target_sparsity=0.06, seed=7,
        ),
        negative_probability=0.01,
        repeats=2,
        k=5,
        models=("OTC", "FT"),
        train=TrainConfig(rank=5, max_iters=60, seed=0),
        base_seed=3,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=out_a)
    run_experiment(cfg, out_dir=out_b)
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    # negative-sample count on the paper-shaped tensor
    n, m, kk = PAPER_SHAPE
    total = n * m * kk
    rng = np.random.default_rng(77)
    flat = np.sort(rng.choice(total, size=16867, replace=False))
    positives = ObservationTensor(
        n, m, kk, flat // (m * kk), (flat // kk) % m, flat % kk, np.ones(flat.size)
    )
    sampled = negative_sample(positives, PAPER_NEGATIVE_PROBABILITY, seed=5)
    negatives = sampled.n_entries - positives.n_entries
    expected = PAPER_NEGATIVE_PROBABILITY * (total - 16867)
    sigma = math.sqrt(expected * (1 - PAPER_NEGATIVE_PROBABILITY))
    assert abs(negatives - expected) <= 3 * sigma
    announce(7, f"reports byte-identical; {negatives} negatives vs expected "
                f"{expected:.0f} (3 sigma = {3 * sigma:.0f})")


def test_criterion_8_oracle_subcommand(src_env):
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
    announce(8, "oracle subcommand ran 5 checks and exited 0")
