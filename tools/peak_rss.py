"""Print the peak resident memory of one experiment run, split by process.

Usage (from any directory)::

    OPENBLAS_NUM_THREADS=1 python3 tools/peak_rss.py --config CONFIG.json
    python3 tools/peak_rss.py --config CONFIG.json --root ../parent-checkout

It imports ``fairtensor`` from ``<root>/src`` (default: this checkout), runs
``harness.run_experiment`` once on the experiment config, writing no report,
and prints two lines, in MiB as ``fairbench/run.py``'s ``peak_rss_mb``::

    self_mb <ru_maxrss of RUSAGE_SELF: this, the calling process>
    workers_mb <ru_maxrss of RUSAGE_CHILDREN: the largest worker it forked>

``fairbench/run.py`` reads the larger of the two for a whole ``fairtensor
experiment`` child; these lines say which process sets it.  The run forks
as many workers as ``harness._worker_count`` gives, one BLAS thread each in
the benchmark's setting above; at one worker it trains in this process and
``workers_mb`` is 0.  A config or run error prints ``error: <message>`` and
exits 2.
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peaks_mb() -> tuple[float, float]:
    """(this process's, its largest waited-for child's) peak RSS in MiB."""
    kib = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF,
                                                        resource.RUSAGE_CHILDREN)]
    return kib[0] / 1024.0, kib[1] / 1024.0  # Linux reports KiB


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
    from fairtensor.errors import FairtensorError
    from fairtensor.harness import ExperimentConfig, run_experiment

    try:
        run_experiment(ExperimentConfig.from_json_file(args.config))
    except FairtensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    self_mb, workers_mb = peaks_mb()
    print(f"self_mb {self_mb:.2f}\nworkers_mb {workers_mb:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
