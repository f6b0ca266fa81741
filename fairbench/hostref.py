"""Host-speed reference of the fairtensor benchmark; ``run.py`` runs it in a fresh process.

The benchmark's machine is a few cores of a shared host whose speed swings by
tens of percent from minute to minute.  Timing this fixed work right before
and after each measured child tells how fast the host was at that moment, and
``run.py`` divides the child's time by it.  The work imitates the program's
three kinds of cost without importing it, so no change to the program can
change the reference:

  py     a pure-Python loop (the per-call overhead of the small trainers)
  small  gathers and products over ~13,000 cells at rank 20, which fit in
         cache (one training step's kernels)
  big    the same over 200,000 cells, a working set beyond the core's own
         caches, and a sort of the result (bulk prediction and KS)

Each part first runs a tenth of its work to warm up and is then timed.  The
last line of standard output is one JSON object with each part's seconds and
their sum, ``ref_s``.
"""

import json
import sys
import time

import numpy as np

RANK = 20
SHAPE = (589, 252, 10)  # the paper's users x curators x topics
SMALL_CELLS, BIG_CELLS = 13_000, 200_000
SMALL_REPS, BIG_REPS, PY_STEPS = 20, 4, 1_500_000


def py_part(steps: int) -> int:
    s = 0
    for i in range(steps):
        s += i * i
    return s


def main() -> int:
    rng = np.random.default_rng(0)
    factors = [rng.random((d, RANK)) for d in SHAPE]

    def cells(count):
        return [rng.integers(0, d, count) for d in SHAPE]

    small, big = cells(SMALL_CELLS), cells(BIG_CELLS)
    a, b, c = factors

    def cp(idx):
        u, v, w = idx
        return (a[u] * b[v] * c[w]).sum(axis=1)

    def small_part(reps):
        for _ in range(reps):
            pred = cp(small)
            grad = np.zeros_like(a)
            np.add.at(grad, small[0], b[small[1]] * pred[:, None])

    def big_part(reps):
        for _ in range(reps):
            np.sort(cp(big))

    parts = {"py": (py_part, PY_STEPS), "small": (small_part, SMALL_REPS),
             "big": (big_part, BIG_REPS)}
    out = {}
    for name, (fn, reps) in parts.items():
        fn(max(1, reps // 10))  # warm-up: page faults, allocator, caches
        started = time.perf_counter()
        fn(reps)
        out[name] = time.perf_counter() - started
    out["ref_s"] = sum(out.values())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
