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

With ``--against OTHER`` the same children also run on the checkout OTHER,
with OTHER's own ``fairbench/run.py``.  For every report whose hash differs
between the two, one more line per metric field gives the largest absolute
and relative difference over its rows and means, relative to OTHER's value::

    <workload> <seed> diff <field> abs <max abs> rel <max rel>

Only MAD may differ, and by at most ``1e-12 * |v| + 1e-15``, the tolerance of
MAD's summation order; any other difference exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ("report.csv", "report.json")
METRIC_FIELDS = ("p_at_k", "r_at_k", "f1_at_k", "mad", "ks")
MAD_REL, MAD_ABS = 1e-12, 1e-15  # |mad - v| <= MAD_REL * |v| + MAD_ABS


def load_module(path: Path, name: str) -> types.ModuleType:
    """Execute the source file ``path`` as module ``name``, writing no bytecode."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    sys.modules[name] = module  # dataclasses look their module up here
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def report_dir(work: Path, workload: str, seed: int) -> Path:
    """Where :func:`report_hashes` leaves one workload's reports at one seed."""
    return work / f"{workload}-s{seed}" / "experiment"


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
                path = report_dir(work, wl.name, seed) / name
                digest = "missing"
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{wl.name} {seed} {name} {digest}")
    return lines, failures


def _metric_values(doc: dict) -> dict:
    """{(model, run or "mean", field): value} of a report.json document."""
    values = {(row["model"], row["run"], f): row[f] for row in doc["rows"] for f in METRIC_FIELDS}
    for model, means in doc["means"].items():
        values.update({(model, "mean", f): means[f] for f in METRIC_FIELDS})
    return values


def _without_metrics(doc: dict) -> dict:
    rows = [{k: v for k, v in row.items() if k not in METRIC_FIELDS} for row in doc["rows"]]
    return {**doc, "rows": rows, "means": sorted(doc["means"])}


def metric_differences(path: Path, reference: Path) -> tuple[list[str], list[str]]:
    """(one ``diff <field> abs <x> rel <y>`` line per metric field, one line
    per difference beyond what MAD's summation order explains) of the
    report.json ``path`` against the report.json ``reference``."""
    doc, ref = (json.loads(p.read_text(encoding="utf-8")) for p in (path, reference))
    if _without_metrics(doc) != _without_metrics(ref):
        return [], ["the reports differ outside their metric values"]
    got, want = _metric_values(doc), _metric_values(ref)
    lines, problems = [], []
    for field in METRIC_FIELDS:
        worst_abs = worst_rel = 0.0
        for key in (k for k in want if k[2] == field):
            a, b = got[key], want[key]
            if (a is None) != (b is None):
                problems.append(f"{key[0]} {key[1]} {field}: {a} against {b}")
                continue
            if a is None or a == b:
                continue
            gap = abs(a - b)
            worst_abs = max(worst_abs, gap)
            worst_rel = max(worst_rel, gap / abs(b) if b else math.inf)
            if field != "mad" or gap > MAD_REL * abs(b) + MAD_ABS:
                problems.append(f"{key[0]} {key[1]} {field}: {a!r} against {b!r}")
        lines.append(f"diff {field} abs {worst_abs:.3e} rel {worst_rel:.3e}")
    return lines, problems


def compare(lines: list[str], other_lines: list[str], work: Path, other_work: Path):
    """(difference lines, problem lines) of every workload and seed whose
    report hashes differ between two :func:`report_hashes` runs."""
    out, problems = [], []
    pairs = {}
    for line, other in zip(lines, other_lines, strict=True):
        workload, seed, _, _ = line.split()
        pairs.setdefault((workload, int(seed)), []).append(line == other)
    for (workload, seed), same in pairs.items():
        if all(same):
            continue
        path = report_dir(work, workload, seed) / "report.json"
        reference = report_dir(other_work, workload, seed) / "report.json"
        if not (path.is_file() and reference.is_file()):
            problems.append(f"{workload} {seed}: a report is missing")
            continue
        diffs, bad = metric_differences(path, reference)
        out += [f"{workload} {seed} {line}" for line in diffs]
        problems += [f"{workload} {seed} {line}" for line in bad]
    return out, problems


def _has_package(root: Path) -> bool:
    if (root / "src" / "fairtensor" / "__init__.py").is_file():
        return True
    print(f"error: {root} has no src/fairtensor", file=sys.stderr)
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose fairbench/ and src/ run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[42])
    parser.add_argument("--against", type=Path, default=None,
                        help="second checkout whose reports the first's are compared with")
    args = parser.parse_args(argv)
    roots = [args.root.resolve()] + ([args.against.resolve()] if args.against else [])
    if not all(_has_package(root) for root in roots):
        return 2
    runs, failures = [], []
    with tempfile.TemporaryDirectory(prefix="report-hashes-") as work:
        for n, root in enumerate(roots):
            bench = load_module(root / "fairbench" / "run.py", f"report_hashes_bench{n}")
            try:
                lines, failed = report_hashes(
                    bench, bench.WORKLOADS.values(), args.seeds, root, Path(work) / str(n)
                )
            except bench.BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            runs.append(lines)
            failures += failed
        print("\n".join(runs[0]))
        if args.against:
            diffs, problems = compare(runs[0], runs[1], Path(work) / "0", Path(work) / "1")
            if diffs:
                print("\n".join(diffs))
            failures += problems
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
