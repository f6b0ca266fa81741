"""Run the benchmark once per seed and report each metric's spread.

Usage (from the repository root)::

    python3 fairbench/spread.py --workloads tensor-train,matrix-train,eval-full --seeds 1-10
    python3 fairbench/spread.py --workloads eval-full --seeds 1-5 --out spread.json

For every workload it runs ``BENCHMARK.json``'s command with ``--trace 0``
once per seed, then prints, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median, beside the metric's bound in
``BENCHMARK.json``.  A spread above its bound marks the metric ``OVER``: a
change to it smaller than the spread is unresolved.  Exits nonzero when a run
fails or a spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--out", default=None, help="also write the summary as JSON")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    summary: dict = {}
    for workload in args.workloads.split(","):
        samples: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stdout}{proc.stderr}")
                ok = False
                continue
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={samples[name][-1]:.6g}" for name in bounds), flush=True)
        summary[workload] = {}
        for name, values in samples.items():
            if len(values) < 2:
                continue
            s = summarize(values)
            over = s["spread"] > bounds[name]
            ok = ok and not over
            summary[workload][name] = s
            print(f"  {workload} {name}: median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} "
                  f"(bound {bounds[name]}){' OVER' if over else ''}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
