"""Print the sha256 of each benchmark workload's report files, for an identity check.

Usage (from any directory)::

    python3 tools/report_hashes.py --seeds 42 7
    python3 tools/report_hashes.py --root ../parent-checkout --seeds 42 7

For every workload of ``fairbench/run.py`` and every seed, this runs the
benchmark's own steps: ``calibrated_datasets`` writes the seed's first
dataset config and ``run_experiment_child`` runs ``fairtensor experiment`` on
it in a fresh child, with the benchmark's child environment and BLAS
threads.  It prints one line per report file::

    <workload> <seed> <report.csv|report.json> <sha256>

Run it on two checkouts and diff the output: a change that keeps every report
byte-identical prints the same lines.  ``fairbench/run.py`` and the package
are read from ``--root``; configs, logs and reports go to a temporary
directory.  The exit code is 1 when a child fails and 2 when a benchmark
step outside the children does.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ("report.csv", "report.json")


def load_module(path: Path, name: str) -> types.ModuleType:
    """Execute the source file ``path`` as module ``name``, writing no bytecode."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    sys.modules[name] = module  # dataclasses look their module up here
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def report_hashes(bench, workloads, seeds, root: Path, work: Path) -> tuple[list[str], list[str]]:
    """(one line per report file, one line per failed child) of each
    workload at each seed; a report a child did not write hashes as
    ``missing``."""
    lines, failures = [], []
    for wl in workloads:
        for seed in seeds:
            run_dir = work / f"{wl.name}-s{seed}"
            run_dir.mkdir(parents=True)
            (ds,), _ = bench.calibrated_datasets(wl, [seed], root, run_dir)
            res, _ = bench.run_experiment_child(ds, root, run_dir, "experiment")
            if res.returncode != 0:
                failures.append(f"{wl.name} seed {seed}: exit {res.returncode}: "
                                f"{res.stderr.strip()[-500:]}")
            for name in REPORTS:
                path = run_dir / "experiment" / name
                digest = "missing"
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{wl.name} {seed} {name} {digest}")
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose fairbench/ and src/ run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[42])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "fairtensor" / "__init__.py").is_file():
        print(f"error: {root} has no src/fairtensor", file=sys.stderr)
        return 2
    bench = load_module(root / "fairbench" / "run.py", "report_hashes_bench")
    with tempfile.TemporaryDirectory(prefix="report-hashes-") as work:
        try:
            lines, failures = report_hashes(
                bench, bench.WORKLOADS.values(), args.seeds, root, Path(work)
            )
        except bench.BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print("\n".join(lines))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
