"""Print the job timeline of one experiment run: which worker ran each job, and when.

Usage (from any directory)::

    OPENBLAS_NUM_THREADS=1 python3 tools/job_timeline.py --config CONFIG.json
    python3 tools/job_timeline.py --config CONFIG.json --root ../parent-checkout

It imports ``fairtensor`` from ``<root>/src`` (default: this checkout) and
runs ``harness.run_experiment`` once on the experiment config, writing no
report.  Before the run it wraps ``harness._fit_problem`` and
``harness._evaluate_pair``, the two kinds of job, so that each job, in
whichever process runs it, appends its pid, pair (the kind and run of the
``harness._Pair`` record it takes), problem, start and end to a file that
the forked workers inherit.  Times are ``time.perf_counter`` readings, one
clock for every process on Linux, in seconds from just before the run.
Then it prints::

    job <worker> <kind>/<run> <problem index, or eval> <start_s> <end_s>
    ...                                     (one line per job, by start)
    worker <worker> busy_s <summed job time> jobs <count> finish_s <last end>
    ...                                     (one line per worker)
    span_s <last end minus first start>
    finish_gap_s <last worker's finish minus first worker's finish>
    even_split_s <summed job time divided by the workers>

``even_split_s`` is the span the jobs would take if the workers shared
their summed time evenly, so ``span_s`` minus it is the schedule's slack.

Workers are numbered by their first job's start.  The run forks as many
workers as ``harness._worker_count`` gives: two on two cores with
``OPENBLAS_NUM_THREADS=1``, one with it unset, which runs every job in this
process.  A config or run error prints ``error: <message>`` and exits 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(job, describe, log_fd: int, t0: float):
    """``job`` that appends one ``pid kind run problem start end`` line to
    ``log_fd``, from ``describe(*args)``'s (kind, run, problem), per call."""

    @functools.wraps(job)
    def wrapper(*args):
        start = time.perf_counter() - t0
        try:
            return job(*args)
        finally:
            end = time.perf_counter() - t0
            fields = (os.getpid(), *describe(*args), f"{start:.6f}", f"{end:.6f}")
            os.write(log_fd, (" ".join(map(str, fields)) + "\n").encode())  # one append

    return wrapper


def timeline(records: list[tuple]) -> list[str]:
    """The printed lines of ``(pid, kind, run, problem, start, end)`` records."""
    records = sorted(records, key=lambda r: r[4])
    workers = {pid: n for n, pid in enumerate(dict.fromkeys(r[0] for r in records))}
    lines = [f"job {workers[pid]} {kind}/{run} {problem} {start:.3f} {end:.3f}"
             for pid, kind, run, problem, start, end in records]
    finishes = []
    for pid, n in workers.items():
        own = [r for r in records if r[0] == pid]
        finishes.append(max(r[5] for r in own))
        busy = sum(r[5] - r[4] for r in own)
        lines.append(f"worker {n} busy_s {busy:.3f} jobs {len(own)} finish_s {finishes[-1]:.3f}")
    if records:
        lines.append(f"span_s {max(finishes) - records[0][4]:.3f}")
        lines.append(f"finish_gap_s {max(finishes) - min(finishes):.3f}")
        lines.append(f"even_split_s {sum(r[5] - r[4] for r in records) / len(workers):.3f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", type=Path, required=True, help="experiment config (JSON)")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ is imported (default: this one)")
    args = parser.parse_args(argv)
    src = args.root.resolve() / "src"
    if not (src / "fairtensor" / "__init__.py").is_file():
        print(f"error: {args.root} has no src/fairtensor", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from fairtensor import harness
    from fairtensor.errors import FairtensorError

    try:
        cfg = harness.ExperimentConfig.from_json_file(args.config)
    except FairtensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with tempfile.TemporaryFile(mode="a+b") as log:  # O_APPEND: whole lines from any process
        t0 = time.perf_counter()
        harness._fit_problem = timed(
            harness._fit_problem, lambda pair, smap, index: (pair.kind, pair.run, index),
            log.fileno(), t0)
        harness._evaluate_pair = timed(
            harness._evaluate_pair, lambda pair, *rest: (pair.kind, pair.run, "eval"),
            log.fileno(), t0)
        try:
            harness.run_experiment(cfg)
        except FairtensorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        log.seek(0)
        rows = [line.split() for line in log.read().decode().splitlines()]
    records = [(int(pid), kind, int(run), problem, float(start), float(end))
               for pid, kind, run, problem, start, end in rows]
    print("\n".join(timeline(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
