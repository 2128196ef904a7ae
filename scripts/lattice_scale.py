#!/usr/bin/env python3
"""Time and memory of one ``prob.subset_entropies`` call, by layout.

    python scripts/lattice_scale.py [--max-m 16] [--seed 1]

Prints, per layout, the milliseconds per call (the fastest of three
timed runs, each of enough calls to last about 0.2 s) and the tracemalloc
peak of one call after a first call has built the layout's plan:

* seeded random binary sources with one terminal per variable, m = 6 up
  to ``--max-m``, one joint per call (what ``capacity`` computes);
* the transceiver layouts of the ``channel_bounds`` benchmark: m = 2
  ternary (``cb.t2``) and m = 3 binary (``cb.t3``) inputs and outputs,
  grouped as X_j = (T_j, Y_j) for one point and for a stack of 9 points
  (a noninteractive search's line scan), and grouped T_1..T_m, Y_1..Y_m
  for the converse's terms.
"""

import argparse
import pathlib
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from skacap.prob import subset_entropies


def per_call_ms(tensor, groups) -> float:
    t0 = time.perf_counter()
    subset_entropies(tensor, groups)
    once = time.perf_counter() - t0
    calls = max(1, int(0.2 / max(once, 1e-6)))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            subset_entropies(tensor, groups)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e3


def peak_kb(tensor, groups) -> float:
    subset_entropies(tensor, groups)
    tracemalloc.start()
    try:
        subset_entropies(tensor, groups)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def transceiver_layouts(rng, m: int, size: int):
    """(name, stack, groups) for an m-terminal transceiver joint with inputs
    T_j on axes 0..m-1 and outputs Y_j on axes m..2m-1."""
    cells = size ** (2 * m)
    pairs = [(1 << j) | (1 << (m + j)) for j in range(m)]
    split = [1 << j for j in range(2 * m)]
    for n in (1, 9):
        stack = rng.dirichlet(np.ones(cells), size=n).reshape((n,) + (size,) * (2 * m))
        yield f"(T_j, Y_j) groups, {n} point{'s' if n > 1 else ''}", stack, pairs
    yield "converse groups, 1 point", stack[:1], split


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-m", type=int, default=16)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    print(f"{'layout':<44} {'ms/call':>10} {'peak KB':>9}")
    for m in range(6, args.max_m + 1):
        tensor = rng.dirichlet(np.ones(1 << m)).reshape((1,) + (2,) * m)
        groups = [1 << i for i in range(m)]
        name = f"binary source, m = {m}"
        print(f"{name:<44} {per_call_ms(tensor, groups):10.3f} {peak_kb(tensor, groups):9.1f}")
    for label, m, size in (("cb.t2", 2, 3), ("cb.t3", 3, 2)):
        for what, stack, groups in transceiver_layouts(rng, m, size):
            name = f"{label} {what}"
            print(f"{name:<44} {per_call_ms(stack, groups):10.3f} {peak_kb(stack, groups):9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
