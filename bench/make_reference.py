"""Rewrite bench/reference.json: the expected result of every catalog task.

    python3 bench/make_reference.py

Runs every variant of every group (``tasks.catalog``) once through the CLI
and records each task's exit code and compared values (``check.expected``)
plus the sha256 of each model file.  Run it only on a commit whose results
are trusted; the file then pins them for every later commit.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import check  # noqa: E402
import child  # noqa: E402
import tasks  # noqa: E402


def main() -> int:
    cli = child.import_program()
    clearers = child.cache_clearers()
    ref = {"models": {}, "tasks": {}}
    model_dir = child.OUT / "reference-models"
    for workload in tasks.WORKLOADS:
        t0 = time.monotonic()
        shutil.rmtree(model_dir, ignore_errors=True)
        variants = tasks.catalog(workload)
        ref["models"].update(tasks.write_models(variants, model_dir))
        for v in variants:
            for t in v.tasks:
                rc, out, _ = child.run_task(cli, t.argv(model_dir), clearers)
                if rc != 0:
                    print(f"warning: {t.id} exited {rc}", file=sys.stderr)
                ref["tasks"][t.id] = check.expected(rc, out)
        shutil.rmtree(model_dir, ignore_errors=True)
        print(f"{workload}: {len(variants)} variants in {time.monotonic() - t0:.0f} s")
    path = child.BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
