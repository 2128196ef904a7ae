#!/usr/bin/env python3
"""Work and time of ``bounds`` on seeded binary transceivers, by terminal count.

    python scripts/bounds_scale.py [--max-m 6] [--seed 1] [--restarts 8]

For m = 3 up to ``--max-m`` it builds a transceiver with one binary input
T_j and one binary output Y_j per terminal and channel rows drawn from a
flat Dirichlet (seeded by ``--seed`` and m), and runs ``sk_bounds`` on it
with A = all terminals and the CLI's default search (``--restarts``,
seed 0, grid 1/8).  Each m runs in a fresh interpreter, so its peak RSS
is its own.  Per m it prints the wall seconds of ``sk_bounds`` (imports
and model building excluded), the noninteractive objective's calls and
the rows they passed, the search's evaluations, the full LP solves (NI
search and converse together) and the peak RSS.  There is no work cap:
each m takes several times the one before it.
"""

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from skacap import omniscience, transceiver
from skacap.models import TransceiverModel
from skacap.optimize import InputOptimizerConfig
from skacap.prob import Alphabet, Dmc

COLUMNS = ("m", "wall_s", "calls", "rows", "evaluations", "lp_solves", "peak_rss_mb")


def binary_transceiver(m: int, seed: int) -> TransceiverModel:
    rng = np.random.default_rng([seed, m])
    b = Alphabet(2)
    return TransceiverModel(
        m=m,
        input_vars=tuple((j,) for j in range(m)),
        output_vars=tuple((m + j,) for j in range(m)),
        channel=Dmc(tuple((j, b) for j in range(m)), tuple((m + j, b) for j in range(m)),
                    rng.dirichlet(np.ones(2**m), size=2**m)),
    )


def measure(m: int, seed: int, restarts: int) -> dict:
    """Run ``sk_bounds`` once on the m-terminal model, counting its work."""
    counts = {"calls": 0, "rows": 0, "lp_solves": 0}
    ni_objective, lp_solve = transceiver._ni_objective, omniscience.lp_solve

    def counted_objective(lay, spec):
        objective = ni_objective(lay, spec)

        def score(stack):
            counts["calls"] += 1
            counts["rows"] += len(stack[0])
            return objective(stack)

        return score

    def counted_solve(lp):
        counts["lp_solves"] += 1
        return lp_solve(lp)

    transceiver._ni_objective = counted_objective
    omniscience.lp_solve = counted_solve
    t = binary_transceiver(m, seed)
    cfg = InputOptimizerConfig(restarts=restarts, seed=0, grid=8)
    t0 = time.perf_counter()
    out = transceiver.sk_bounds(t, (1 << m) - 1, cfg)
    wall = time.perf_counter() - t0
    return {
        "m": m,
        "wall_s": wall,
        **counts,
        "evaluations": out["noninteractive"].witness["evaluations"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-m", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--restarts", type=int, default=8)
    ap.add_argument("--one", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one is not None:
        print(json.dumps(measure(args.one, args.seed, args.restarts)))
        return 0
    print(" ".join(f"{c:>11}" for c in COLUMNS))
    for m in range(3, args.max_m + 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--one", str(m), "--seed", str(args.seed),
             "--restarts", str(args.restarts)],
            capture_output=True, text=True, check=True,
        )
        row = json.loads(proc.stdout)
        print(f"{m:>11} {row['wall_s']:>11.3f} " + " ".join(
            f"{row[c]:>11}" for c in COLUMNS[2:-1]) + f" {row['peak_rss_mb']:>11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
