"""fairtensor benchmark: paper-shaped experiment runs, end to end and per layer.

Usage (from the repository root)::

    python3 fairbench/run.py --workload tensor-train --seed 42 --seconds 36 --trace 0
    python3 fairbench/run.py --workload all    # every workload, untraced then traced

With ``--trace 0`` the benchmark measures what a researcher sees: it times
``python -m fairtensor experiment`` on the workload's config in fresh child
processes, one at a time from a single client (a closed loop), until
``--seconds`` have passed, and reports medians.  The children cycle over
``DATASETS`` synthetic datasets derived from ``--seed``, so one run's median
does not hang on one dataset's convergence.  ``setup_s`` is measured in
separate fresh processes that import fairtensor and finish ``prepare_run``,
``SETUP_PER_CHILD`` after each experiment child, so both medians sample the
same stretch of a shared machine's load.

A shared host's speed swings by tens of percent from minute to minute, more
than the bounds a change is judged by.  So ``fairbench/hostref.py``, fixed
work that does not import fairtensor, is timed in a fresh process before the
first child and after each child's setup probes.  Each child's and probe's
time is divided by the mean of the two reference times around it and
multiplied by ``HOST_REF_S``: ``run_s`` and ``setup_s`` are seconds on a host
where the reference takes ``HOST_REF_S``.  The raw medians are printed beside
them.

With ``--trace 1`` it runs the experiment once untraced on the seed's first
dataset, then runs ``fairbench/layers.py trace`` in a fresh process, which
calls each module's public functions in ``run_experiment`` order and times
them from outside, then runs ``run_experiment`` itself untraced for the
tracing overhead, and then times fixed-size kernel calls.

Every run is checked: a child that crashed, a report with an error or a
missing metric, two reports of one dataset that differ, a traced run whose
metrics differ by one bit from the untraced report, or a break of the paper's
fairness ordering counts the affected (model, run) rows as failed.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is nonzero when any row failed.
Only the standard library is used here, so no numerical library is loaded
into the measuring process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS_SCRIPT = Path(__file__).resolve().parent / "layers.py"
HOST_REF_SCRIPT = Path(__file__).resolve().parent / "hostref.py"

# criterion 6 of the acceptance suite: the paper's Table 1 shape and protocol
PAPER_SYNTH = dict(
    n_users=589,
    n_curators=252,
    n_topics=10,
    true_rank=4,
    group_ratio=0.5,
    target_sparsity=0.01136,
)
PROTOCOL = dict(negative_probability=0.00113, train_fraction=0.7, repeats=1, k=15, intervals=50)
RANK = 20
DEFAULT_SEED = 42  # criterion 6's synth seed; its base_seed, 0, is 42 ^ 42

# One run measures this many datasets: dataset j of seed s has synth seed
# s + j * DATASET_STRIDE.  OMC's per-slice stopping makes a matrix-train
# child's time differ by up to a quarter between datasets; cycling over three
# evens that out.
DATASETS = 3
DATASET_STRIDE = 100_003

# One BLAS thread in every child on both commits: rank-20 products are too
# small to gain from threads, and the cores are shared with the parent.
BLAS_THREADS = 1
# setup_s probes after every experiment child.  One probe's time varies by
# about a quarter around its median, so the median of one run needs many.
SETUP_PER_CHILD = 2
# run_s and setup_s are rescaled to a host on which hostref.py's timed work
# takes this long; it took 0.33-0.58 s on the machine of baseline.json's env
HOST_REF_S = 0.4
CHILD_TIMEOUT_S = 170.0
METRIC_FIELDS = ("p_at_k", "r_at_k", "f1_at_k", "mad", "ks")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which models run, how long and how scored.

    ``ordered_pairs`` lists the (fair, ordinary) model pairs whose KS
    ordering the paper claims and that this workload gates on.
    """

    name: str
    models: tuple[str, ...]
    max_iters: int
    fairness_scope: str
    rank_scope: str
    ordered_pairs: tuple[tuple[str, str], ...]
    synth: dict = field(default_factory=lambda: dict(PAPER_SYNTH))

    def experiment_config(self, synth_seed: int, bias_strength: float) -> dict:
        """The ``ExperimentConfig`` JSON of this workload for one dataset."""
        return dict(
            synth=dict(self.synth, bias_strength=bias_strength, seed=synth_seed),
            **PROTOCOL,
            models=list(self.models),
            train=dict(rank=RANK, max_iters=self.max_iters),
            base_seed=synth_seed ^ DEFAULT_SEED,
            fairness_scope=self.fairness_scope,
            rank_scope=self.rank_scope,
        )


ALL_KINDS = ("OTC", "RTC", "FT", "OMC", "RMC", "FM")
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tensor-train", ("OTC", "RTC", "FT"), 50, "test", "user_topic", (("FT", "OTC"),)),
        # KS(FM) < KS(OMC) on test cells is not gated: at caps 100 and 200 it
        # failed on about half of the seeds tried (see CHANGES.md).  The cap is
        # half tensor-train's because a child runs 10 slices per kind: at 50 a
        # run held only 4-5 children, too few for a steady median.  The OMC
        # slices that stop on tol stop after 2 iterations at either cap.
        Workload("matrix-train", ("OMC", "RMC", "FM"), 25, "test", "user_topic", ()),
        Workload("eval-full", ALL_KINDS, 5, "full", "user", (("FT", "OTC"), ("FM", "OMC"))),
    )
}


class BenchError(Exception):
    """A step outside the measured (model, run) rows could not complete."""


# ---------------------------------------------------------------------------
# child processes


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FAIRTENSOR_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    threads = str(BLAS_THREADS)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], root: Path, log_dir: Path, tag: str) -> ChildResult:
    """Run one child to completion; wall time and peak RSS are its own."""
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(root), cwd=root)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - started > CHILD_TIMEOUT_S:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def script_call(script: Path, args: list[str], root: Path, log_dir: Path, tag: str) -> dict:
    """Run one of the benchmark's scripts and parse the JSON object on its
    last stdout line."""
    res = run_child([sys.executable, str(script), *args], root, log_dir, tag)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise BenchError(
            f"{script.name} {' '.join(args[:1])} exited {res.returncode}: "
            f"{res.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def layers_call(args: list[str], root: Path, log_dir: Path, tag: str) -> dict:
    return script_call(LAYERS_SCRIPT, args, root, log_dir, tag)


def host_ref_s(root: Path, log_dir: Path, tag: str) -> float:
    return script_call(HOST_REF_SCRIPT, [], root, log_dir, tag)["ref_s"]


@dataclass(frozen=True)
class Dataset:
    config: dict
    path: Path


def calibrated_datasets(
    wl: Workload, synth_seeds: list[int], root: Path, work: Path
) -> tuple[list[Dataset], dict]:
    """Calibrate each dataset's bias outside any timed region; write its config.

    Also returns the versions of the numerical libraries the children load.
    """
    doc = layers_call(
        ["calibrate", "--synth", json.dumps(dict(wl.synth, bias_strength=0.0)),
         "--seeds", *map(str, synth_seeds)],
        root, work, "calibrate",
    )
    datasets = []
    for synth_seed, bias in zip(synth_seeds, doc["bias_strength"]):
        cfg = wl.experiment_config(synth_seed, bias)
        path = work / f"config{synth_seed}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        datasets.append(Dataset(cfg, path))
    return datasets, doc["libs"]


def run_experiment_child(
    ds: Dataset, root: Path, work: Path, tag: str
) -> tuple[ChildResult, dict | None]:
    """One ``fairtensor experiment`` child and its parsed report.

    The report is None when the child wrote none or crashed; exit code 1,
    the CLI's answer to an incomplete report, keeps the report so that its
    rows are judged one by one.
    """
    out_dir = work / tag
    res = run_child(
        [sys.executable, "-m", "fairtensor", "experiment", "--config", str(ds.path),
         "--out", str(out_dir)],
        root, work, tag,
    )
    if res.returncode not in (0, 1):
        return res, None
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    return res, report


# ---------------------------------------------------------------------------
# correctness gate


def row_key(row: dict) -> tuple[str, int]:
    return row["model"], row["run"]


def row_failures(report: dict | None, wl: Workload) -> dict[tuple[str, int], str]:
    """Failed (model, run) rows of one report, each with its reason.

    A missing report fails every expected row.  A row fails when it is
    absent, carries an error or lacks a metric; both rows of a gated pair
    fail when KS(fair model) >= KS(ordinary model) in the same run.
    """
    runs = range(1, PROTOCOL["repeats"] + 1)
    expected = [(m, r) for m in wl.models for r in runs]
    if report is None:
        return {key: "no report (child crashed)" for key in expected}
    rows = {row_key(row): row for row in report.get("rows", [])}
    failed = {}
    for key in expected:
        row = rows.get(key)
        if row is None:
            failed[key] = "row missing from report"
        elif row.get("error"):
            failed[key] = f"error row: {row['error']}"
        elif any(row.get(f) is None for f in METRIC_FIELDS):
            failed[key] = "incomplete row"
    for fair, plain in wl.ordered_pairs:
        for run in runs:
            if (fair, run) in failed or (plain, run) in failed:
                continue
            ks_fair, ks_plain = rows[(fair, run)]["ks"], rows[(plain, run)]["ks"]
            if not ks_fair < ks_plain:
                why = (f"fairness ordering broken: KS({fair})={ks_fair!r}"
                       f" >= KS({plain})={ks_plain!r}")
                failed[(fair, run)] = failed[(plain, run)] = why
    return failed


def mismatched_rows(reference: dict, rows: list[dict]) -> dict[tuple[str, int], str]:
    """Rows whose five metrics differ by even one bit from ``reference``'s."""
    ref = {row_key(row): row for row in reference.get("rows", [])}
    failed = {}
    for row in rows:
        want = ref.get(row_key(row))
        if want is None:
            failed[row_key(row)] = "row absent from the reference report"
            continue
        diff = [f for f in METRIC_FIELDS if row.get(f) != want.get(f)]
        if diff:
            failed[row_key(row)] = f"differs in {', '.join(diff)}"
    return failed


def pair_ks(report: dict | None) -> str:
    """KS of each (fair, ordinary) pair in a report, gated or not."""
    if report is None:
        return "no report"
    ks = {row["model"]: row["ks"] for row in report["rows"] if row["run"] == 1}
    return ", ".join(
        f"KS({fair})={ks[fair]:.6g} vs KS({plain})={ks[plain]:.6g}"
        for fair, plain in (("FT", "OTC"), ("FM", "OMC"))
        if ks.get(fair) is not None and ks.get(plain) is not None
    )


# ---------------------------------------------------------------------------
# environment


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int, datasets: list[Dataset], libs: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l3_bytes": libs.get("l3_bytes"),
        "python": platform.python_version(),
        "numpy": libs.get("numpy"),
        "openblas": libs.get("openblas"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(root),
        "seed": seed,
        "datasets": [
            {"synth_seed": d.config["synth"]["seed"], "base_seed": d.config["base_seed"],
             "bias_strength": d.config["synth"]["bias_strength"]}
            for d in datasets
        ],
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class RunOutcome:
    metrics: dict
    attempted: int
    failed: dict  # (child tag, model, run) -> reason
    env: dict
    notes: list[str]
    detail: dict


def host_scales(refs: list[float]) -> list[float]:
    """Per child, ``HOST_REF_S`` over the mean of the two reference times
    that bracket it and its setup probes."""
    return [2.0 * HOST_REF_S / (a + b) for a, b in zip(refs, refs[1:])]


def measure_untraced(wl: Workload, seed: int, seconds: float, root: Path, work: Path) -> RunOutcome:
    datasets, libs = calibrated_datasets(
        wl, [seed + j * DATASET_STRIDE for j in range(DATASETS)], root, work
    )
    deadline = time.perf_counter() + seconds
    refs = [host_ref_s(root, work, "hostref0")]  # refs[i], refs[i + 1] bracket child i
    children: list[ChildResult] = []
    setups: list[list[float]] = []  # the setup probes after each child
    failed: dict = {}
    first_report: dict = {}  # dataset index -> its first report
    notes = []
    # start no child that would most likely end past the deadline
    while len(children) < DATASETS or (
        time.perf_counter() + 0.5 * statistics.median(c.wall_s for c in children) < deadline
    ):
        i = len(children)
        tag = f"experiment{i}"
        res, report = run_experiment_child(datasets[i % DATASETS], root, work, tag)
        children.append(res)
        setups.append([
            layers_call(["setup", "--config", str(datasets[i % DATASETS].path)], root, work,
                        f"setup{i}-{j}")["setup_s"]
            for j in range(SETUP_PER_CHILD)
        ])
        refs.append(host_ref_s(root, work, f"hostref{i + 1}"))
        for (model, run), why in row_failures(report, wl).items():
            failed[(tag, model, run)] = why
        if report is None:
            continue
        reference = first_report.setdefault(i % DATASETS, report)
        if reference is report:
            notes.append(f"dataset {i % DATASETS}: {pair_ks(report)}")
        for (model, run), why in mismatched_rows(reference, report["rows"]).items():
            failed.setdefault((tag, model, run), f"nondeterministic: {why}")

    walls = [c.wall_s for c in children]
    scales = host_scales(refs)
    setup_walls = [s for probes in setups for s in probes]
    metrics = {
        "run_s": metric(statistics.median(w * k for w, k in zip(walls, scales)), "s"),
        "setup_s": metric(
            statistics.median(s * k for probes, k in zip(setups, scales) for s in probes), "s"
        ),
        "peak_rss_mb": metric(statistics.median(c.peak_rss_mb for c in children), "MB"),
    }
    notes.append(
        f"run_s: median of {len(walls)} children; setup_s: median of {len(setup_walls)} probes; "
        f"unscaled medians {statistics.median(walls):.4g} s and "
        f"{statistics.median(setup_walls):.4g} s; host reference median "
        f"{statistics.median(refs):.4g} s, scaled to {HOST_REF_S} s"
    )
    detail = {
        "run_s_samples": walls,
        "setup_s_samples": setups,
        "host_ref_s_samples": refs,
        "peak_rss_mb_samples": [c.peak_rss_mb for c in children],
    }
    env = environment(root, seed, datasets, libs)
    return RunOutcome(metrics, len(children) * len(wl.models), failed, env, notes, detail)


def measure_traced(wl: Workload, seed: int, seconds: float, root: Path, work: Path) -> RunOutcome:
    started = time.perf_counter()
    (ds,), libs = calibrated_datasets(wl, [seed], root, work)
    res, report = run_experiment_child(ds, root, work, "untraced")
    budget = max(0.0, seconds - (time.perf_counter() - started))
    traced = layers_call(
        ["trace", "--config", str(ds.path), "--seconds", repr(budget)],
        root, work, "traced",
    )

    failed = {("untraced", m, r): why for (m, r), why in row_failures(report, wl).items()}
    if report is not None:
        for (model, run), why in mismatched_rows(report, traced["rows"]).items():
            failed.setdefault(("untraced", model, run), f"traced vs untraced: {why}")
    env = environment(root, seed, [ds], libs)
    detail = {"untraced_child_s": res.wall_s, "traced_s": traced["traced_s"],
              "untraced_s": traced["untraced_s"], "kernel_rounds": traced["kernel_rounds"]}
    return RunOutcome(traced["metrics"], len(wl.models), failed, env, [pair_ks(report)], detail)


# ---------------------------------------------------------------------------
# entry point


def run_one(wl: Workload, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """Measure one workload, print its summary and return the result object."""
    work_root = root / ".bench_work"
    work = work_root / f"{wl.name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    measure = measure_traced if trace else measure_untraced
    outcome = measure(wl, seed, seconds, root, work)
    result = {
        "correct": not outcome.failed,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "metrics": outcome.metrics,
    }

    print(f"== {wl.name} (trace {trace}) ==")
    for name, m in outcome.metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':40s} {frac:>16.6g} ratio"
          f"  ({result['failed']}/{result['attempted']} rows)")
    for note in outcome.notes:
        print(note)
    failures = [f"{t} {m} run {r}: {why}" for (t, m, r), why in sorted(outcome.failed.items())]
    for line in failures:
        print("FAILED " + line)
    print("env " + json.dumps(outcome.env, sort_keys=True))

    record = {"workload": wl.name, "trace": trace, "env": outcome.env, **result,
              "failures": failures, "detail": outcome.detail}
    (work_root / f"last-{wl.name}-t{trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if result["correct"]:
        shutil.rmtree(work)  # keep the logs of a failed run
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "fairtensor" / "__init__.py").is_file():
        print("error: run from the repository root; src/fairtensor is missing", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(wl, trace) for wl in WORKLOADS.values() for trace in (0, 1)]
    else:
        runs = [(WORKLOADS[args.workload], args.trace)]
    try:
        results = [run_one(wl, args.seed, args.seconds, trace, root) for wl, trace in runs]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{wl.name}.{name}": m for (wl, _), r in zip(runs, results)
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
