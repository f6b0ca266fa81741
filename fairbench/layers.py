"""Layer probes of the fairtensor benchmark; ``run.py`` runs each in a fresh process.

Subcommands (each prints one JSON object as its last line):

  calibrate  per synth seed, the ``bias_strength`` that gives the paper's
             positive ratio; and the numerical libraries' versions
  setup      seconds to ``import fairtensor`` and finish ``prepare_run(cfg, 1)``
  trace      replay ``run_experiment``'s calls module by module (``data``,
             ``models``, ``harness``), timing each training and evaluation
             call from outside with ``time.perf_counter``; then run
             ``run_experiment`` untraced over the same span, for the
             tracing overhead; then time fixed-size calls into the
             ``tensor_core``, ``models``, ``metrics``, ``data`` and
             ``harness`` kernels, round after round until the budget is
             spent, and report the median of each

Nothing inside the program is instrumented.  Kernel byte counts are the
minimum an implementation must move at the kernel's interface: its index
vectors, the factor rows gathered for each cell, its per-cell inputs, the
factor matrices it reads or writes whole, and its outputs, at 8 bytes per
element; intermediates are not counted.
"""

import time

_STARTED = time.perf_counter()  # before numpy and fairtensor are imported

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from fairtensor import data, harness, metrics, models, tensor_core  # noqa: E402

TRACE_MIN_ROUNDS = 5
TRACE_MAX_ROUNDS = 200
BIG_CHUNK = 200_000  # the harness's full-scope prediction chunk
PROBE_PAIRS = 64  # (user, topic) pairs per score_curators / top_k sample
WORD = 8  # bytes per float64 / int64 element
PAPER_POSITIVE_RATIO = 11612 / 5255  # criterion 6's positive ratio, the calibration target
# the traced run trains kinds outside the workload for this many iterations,
# so that every per-kind layer metric exists on every workload
OFF_WORKLOAD_ITERS = 5


def libs() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        l3 = ""
    return {
        "numpy": np.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "l3_bytes": int(l3) if l3.isdigit() else None,
    }


def cmd_calibrate(args) -> dict:
    synth = data.SynthConfig(**json.loads(args.synth))
    return {
        "bias_strength": [
            data.calibrate_bias_strength(
                replace(synth, seed=seed), PAPER_POSITIVE_RATIO, rel_tol=0.02
            )
            for seed in args.seeds
        ],
        "libs": libs(),
    }


def cmd_setup(args) -> dict:
    cfg = harness.ExperimentConfig.from_json_file(args.config)
    harness.prepare_run(cfg, 1)
    return {"setup_s": time.perf_counter() - _STARTED}


def timed(fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


def stopped_on_tol(trace, tol: float) -> bool:
    """The trainers' relative-change stop rule, applied to a loss trace's end."""
    if len(trace) < 2:
        return False
    prev, cur = trace[-2], trace[-1]
    return abs(prev - cur) <= tol * max(abs(prev), 1e-12)


def training_counts(model: models.TrainedModel) -> tuple[int, int, int]:
    """(iterations, problems trained, problems stopped on tol); matrix kinds
    count each nonempty topic slice as one problem."""
    traces = [model.loss_trace] if model.factors is not None else [
        t for t in model.slice_traces if t
    ]
    iters = sum(len(t) - 1 for t in traces)
    converged = sum(stopped_on_tol(t, model.config.tol) for t in traces)
    return iters, len(traces), converged


def kind_metrics(kind: str, model, train_s: float, eval_s: float) -> dict:
    iters, problems, converged = training_counts(model)
    return {
        f"models.train_s.{kind}": (train_s, "s"),
        f"models.iters.{kind}": (iters, "count"),
        f"models.iter_ms.{kind}": (1e3 * train_s / max(iters, 1), "ms"),
        f"models.converged_frac.{kind}": (converged / problems, "ratio"),
        f"harness.evaluate_model_s.{kind}": (eval_s, "s"),
    }


def grouped(model, users, curators, topics, groups) -> metrics.GroupedScores:
    preds = models.predict_cells(model, users, curators, topics)
    g = groups[curators]
    return metrics.GroupedScores(preds[g == 0], preds[g == 1])


def kernel_suite(cfg, positives, sampled, ds, smap, trained, seed: int):
    """Named zero-argument calls at fixed sizes, with their bytes moved."""
    train, test = ds.train, ds.test
    n, m, kk = train.shape
    rank = models.TrainConfig().rank
    rng = np.random.default_rng(seed)
    fm = tensor_core.FactorModel(*(rng.uniform(0.0, 0.1, size=(d, rank)) for d in (n, m, kk)))
    resid = tensor_core.cp_entries(fm, train.users, train.curators, train.topics) - train.values
    lam = models.TrainConfig().lam
    parity_weight = models.TrainConfig().parity_weight

    e, e_big, f = train.n_entries, min(BIG_CHUNK, n * m * kk), (n + m + kk) * rank
    big_users, big_curators, big_topics = np.unravel_index(np.arange(e_big), (n, m, kk))
    all_users, all_curators, all_topics = (
        a.ravel() for a in np.meshgrid(np.arange(n), np.arange(m), np.arange(kk), indexing="ij")
    )
    tensor_model, matrix_model = trained["OTC"], trained["OMC"]
    test_scores = grouped(tensor_model, test.users, test.curators, test.topics, smap.groups)
    full_scores = grouped(tensor_model, all_users, all_curators, all_topics, smap.groups)

    pairs = list(zip(rng.integers(0, n, PROBE_PAIRS).tolist(),
                     rng.integers(0, kk, PROBE_PAIRS).tolist()))
    pos = train.values == 1.0
    excludes = [
        train.curators[pos & (train.users == u) & (train.topics == t)].tolist() for u, t in pairs
    ]
    k = cfg.k

    def score_pairs():
        for u, t in pairs:
            models.score_curators(tensor_model, u, t)

    def top_k_pairs():
        for (u, t), ex in zip(pairs, excludes):
            models.top_k(tensor_model, u, t, k, exclude=ex)

    gather = 3 + 3 * rank  # index vectors + gathered factor rows, per cell
    suite = {
        # name: (call, unit scale, unit, bytes or None)
        "tensor_core.cp_entries_ms": (
            lambda: tensor_core.cp_entries(fm, train.users, train.curators, train.topics),
            1e3, "ms", WORD * e * (gather + 1),
        ),
        "tensor_core.scatter_cell_gradient_ms": (
            lambda: tensor_core.scatter_cell_gradient(fm, train, resid),
            1e3, "ms", WORD * (e * (gather + 1) + f),
        ),
        "tensor_core.masked_loss_ms": (
            lambda: tensor_core.masked_loss(fm, train, lam),
            1e3, "ms", WORD * (e * (gather + 1) + f),
        ),
        "tensor_core.masked_gradient_ms": (
            lambda: tensor_core.masked_gradient(fm, train, lam),
            1e3, "ms", WORD * (e * (gather + 1) + 2 * f),
        ),
        "tensor_core.cp_entries_big_ms": (
            lambda: tensor_core.cp_entries(fm, big_users, big_curators, big_topics),
            1e3, "ms", WORD * e_big * (gather + 1),
        ),
        "models.parity_penalty_ms": (
            lambda: models.parity_penalty(fm, train, smap.groups, parity_weight),
            1e3, "ms", WORD * (e * gather + m + f),
        ),
        "models.predict_cells_ms.tensor": (
            lambda: models.predict_cells(tensor_model, big_users, big_curators, big_topics),
            1e3, "ms", WORD * e_big * (gather + 1),
        ),
        "models.predict_cells_ms.matrix": (
            lambda: models.predict_cells(matrix_model, big_users, big_curators, big_topics),
            1e3, "ms", WORD * e_big * (3 + 2 * rank + 1),
        ),
        "models.score_curators_us": (score_pairs, 1e6 / PROBE_PAIRS, "us", None),
        "models.top_k_us": (top_k_pairs, 1e6 / PROBE_PAIRS, "us", None),
        "metrics.ks_ms": (
            lambda: metrics.ks(test_scores, cfg.intervals),
            1e3, "ms", WORD * test.n_entries,
        ),
        "metrics.ks_full_ms": (
            lambda: metrics.ks(full_scores, cfg.intervals),
            1e3, "ms", WORD * all_users.size,
        ),
        "data.synth_generate_ms": (lambda: data.synth_generate(cfg.synth), 1e3, "ms", None),
        "data.negative_sample_ms": (
            lambda: data.negative_sample(positives, cfg.negative_probability, seed),
            1e3, "ms", None,
        ),
        "data.split_ms": (
            lambda: data.split(sampled, cfg.train_fraction, seed),
            1e3, "ms", None,
        ),
        "harness.prepare_run_ms": (lambda: harness.prepare_run(cfg, 1), 1e3, "ms", None),
    }
    return suite


def cmd_trace(args) -> dict:
    cfg = harness.ExperimentConfig.from_json_file(args.config)
    out: dict = {}

    # run_experiment's order: load source, sample, split, then each sorted kind
    # (the data calls are timed as kernels below, as medians of many calls)
    replay_started = time.perf_counter()
    positives, smap, _ = data.synth_generate(cfg.synth)
    run = 1
    seed = cfg.base_seed + run
    sampled = data.negative_sample(positives, cfg.negative_probability, seed)
    ds = data.split(sampled, cfg.train_fraction, seed)
    rows, trained = [], {}
    for kind in sorted(cfg.models):
        tc = cfg.train_config_for(kind, seed)
        model, train_s = timed(models.train_model, kind, ds.train, tc, smap)
        values, eval_s = timed(
            harness.evaluate_model, model, ds, smap, cfg.k, cfg.intervals,
            cfg.fairness_scope, cfg.rank_scope,
        )
        rows.append({"model": kind, "run": run, "seed": seed, **values})
        trained[kind] = model
        out.update(kind_metrics(kind, model, train_s, eval_s))
    traced_s = time.perf_counter() - replay_started
    # the same work untraced, in this process and over the same span, so the
    # difference leaves out interpreter start-up, imports and report writing;
    # it runs second, so first-call costs fall on the traced side
    _, untraced_s = timed(harness.run_experiment, cfg)
    out["trace_overhead_s"] = (traced_s - untraced_s, "s")

    # kinds outside the workload: a short run on the same split, so that every
    # per-kind layer metric exists on every workload
    for kind in sorted(set(models.MODEL_KINDS) - set(cfg.models)):
        tc = replace(cfg.train_config_for(kind, seed), max_iters=OFF_WORKLOAD_ITERS)
        model, train_s = timed(models.train_model, kind, ds.train, tc, smap)
        _, eval_s = timed(
            harness.evaluate_model, model, ds, smap, cfg.k, cfg.intervals,
            cfg.fairness_scope, cfg.rank_scope,
        )
        trained[kind] = model
        out.update(kind_metrics(kind, model, train_s, eval_s))

    # the report's quality and fairness, which the gate requires to be
    # bit-identical to the untraced run's, tracked beside the timings
    for name, unit in (("f1_at_k", "ratio"), ("ks", "score"), ("mad", "score")):
        out[f"quality.{name}"] = (statistics.fmean(row[name] for row in rows), unit)
    out["data.train_entries"] = (ds.train.n_entries, "count")
    out["data.test_entries"] = (ds.test.n_entries, "count")

    suite = kernel_suite(cfg, positives, sampled, ds, smap, trained, seed)
    samples: dict[str, list[float]] = {name: [] for name in suite}
    deadline = _STARTED + args.seconds  # kernel rounds fill this process's budget
    rounds = 0
    while rounds < TRACE_MIN_ROUNDS or (
        rounds < TRACE_MAX_ROUNDS and time.perf_counter() < deadline
    ):
        for name, (call, scale, _, _) in suite.items():
            _, dt = timed(call)
            samples[name].append(dt * scale)
        rounds += 1
    for name, (_, _, unit, nbytes) in suite.items():
        out[name] = (statistics.median(samples[name]), unit)
        if nbytes is not None:
            out[name.replace("_ms", "_bytes", 1)] = (nbytes, "B")

    return {
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out.items()},
        "rows": rows,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "kernel_rounds": rounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("calibrate")
    p.add_argument("--synth", required=True, help="SynthConfig as JSON")
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="synth seeds")
    p.set_defaults(handler=cmd_calibrate)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=cmd_setup)
    p = sub.add_parser("trace")
    p.add_argument("--config", required=True)
    p.add_argument("--seconds", type=float, required=True, help="budget of this process")
    p.set_defaults(handler=cmd_trace)
    args = parser.parse_args(argv)
    print(json.dumps(args.handler(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
