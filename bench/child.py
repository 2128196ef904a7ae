"""One workload run in one fresh interpreter (started by ``run.py``).

Set-up imports ``skacap.cli`` from the checkout's ``src`` and writes the
seeded model files.  Then one closed-loop caller runs the task list, one
in-process ``skacap.cli.main(argv)`` call after another with stdout
captured, pass after pass until ``--seconds`` are used.  It starts no
threads and no processes; the one ``--threads 2`` simulate task starts the
program's own two worker threads.

With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the reference bytes and the overhead baseline, the traced ones the
per-layer metrics.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

T_START = time.monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"


def import_program():
    """Import ``skacap.cli`` from this checkout's ``src``, nothing else."""
    sys.path.insert(0, str(SRC))
    import skacap.cli

    origin = Path(skacap.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"skacap imported from {origin}, not from {SRC}")
    return skacap.cli


def cache_clearers() -> list:
    """``cache_clear`` of every functools cache in the program's modules.

    Called before each task, so each task starts as cold as a fresh CLI
    process.
    """
    out = []
    for name, module in sorted(sys.modules.items()):
        if name == "skacap" or name.startswith("skacap."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear) and getattr(obj, "__module__", None) == name:
                    out.append(clear)
    return out


def run_task(cli, argv, clearers):
    """One CLI call; returns (exit code, stdout, seconds)."""
    for clear in clearers:
        clear()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed task, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    return rc, out.getvalue(), (t1 - t0) / 1e9


def setup(workload: str, seed: int, model_dir: Path) -> dict:
    import tasks

    t0 = time.perf_counter_ns()
    variants = tasks.select(workload, seed)
    digests = tasks.write_models(variants, model_dir)
    inputs_ms = (time.perf_counter_ns() - t0) / 1e6
    return {
        "variants": variants,
        "digests": digests,
        "inputs_ms": inputs_ms,
        "task_list_sha256": tasks.task_list_digest(variants),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="launcher's monotonic clock just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--limit", type=float, default=150.0,
                    help="start no pass that would end later than this many seconds")
    args = ap.parse_args(argv)

    t0 = time.perf_counter_ns()
    cli = import_program()
    import_ms = (time.perf_counter_ns() - t0) / 1e6
    model_dir = OUT / f"models-{args.workload}-{args.seed}-{'probe' if args.setup_only else 'run'}"
    shutil.rmtree(model_dir, ignore_errors=True)
    built = setup(args.workload, args.seed, model_dir)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    result = {
        "setup_s": setup_s,
        "import_ms": import_ms,
        "inputs_ms": built["inputs_ms"],
    }
    try:
        if not args.setup_only:
            result.update(measure(cli, args, built, model_dir))
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def measure(cli, args, built, model_dir: Path) -> dict:
    import check
    import stats
    import spans

    reference = json.loads((BENCH / "reference.json").read_text())
    task_list = [t for v in built["variants"] for t in v.tasks]
    bad_models = {
        name for name, digest in built["digests"].items()
        if reference["models"].get(name) != digest
    }
    argvs = [t.argv(model_dir) for t in task_list]
    clearers = cache_clearers()

    passes = []  # (traced, [(rc, stdout, seconds)], tracer or None)
    t_begin = time.monotonic()
    origin_ns = time.perf_counter_ns()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            runs = []
            for i, argv in enumerate(argvs):
                if tracer:
                    tracer.task = i
                runs.append(run_task(cli, argv, clearers))
        finally:
            if tracer:
                tracer.uninstall()
        passes.append((traced, runs, tracer))
        elapsed = time.monotonic() - t_begin
        per_pass = elapsed / len(passes)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and (elapsed + per_pass > args.seconds
                       or time.monotonic() - T_START + per_pass > args.limit):
            break

    # correctness: references, byte-identical repeats, thread-count invariance
    failures = []
    first = passes[0][1]
    for k, (traced, runs, _) in enumerate(passes):
        for task, (rc, out, _), (_, out0, _) in zip(task_list, runs, first):
            why = check.problems(reference["tasks"].get(task.id), rc, out)
            if task.model in bad_models:
                why.append("generated model differs from the reference model")
            if out != out0:
                why.append(f"report differs from the first pass ({'traced' if traced else 'untraced'})")
            if why:
                failures.append({"pass": k, "task": task.id, "problems": why})
        by_id = {t.id: out for t, (_, out, _) in zip(task_list, runs)}
        for tid, out in by_id.items():
            if tid.endswith("/threads2") and out != by_id.get(tid[:-1] + "1"):
                failures.append({"pass": k, "task": tid,
                                 "problems": ["--threads 2 report differs from --threads 1"]})
    attempted = len(passes) * len(task_list)

    # On a shared machine slow phases only ever add time, so each task's
    # latency is its fastest untraced run, and wall_s, the time to run the
    # task list once, is the sum of those.
    untraced = [runs for traced, runs, _ in passes if not traced]
    per_task = [min(runs[i][2] for runs in untraced) for i in range(len(task_list))]
    tail_ms, tail_pct, n_tasks = stats.tail([s * 1e3 for s in per_task])
    sim_s = sum(s for t, s in zip(task_list, per_task) if t.verb == "simulate")
    sim_blocks = sum(int(t.opts[t.opts.index("--blocks") + 1])
                     for t in task_list if t.verb == "simulate")
    out = {
        "task_list_sha256": built["task_list_sha256"],
        "tasks": len(task_list),
        "passes": len(passes),
        "attempted": attempted,
        "failed": len({(f["pass"], f["task"]) for f in failures}),
        "failures": failures[:50],
        "wall_s": sum(per_task),
        "task_ms_p50": stats.median(s * 1e3 for s in per_task),
        "task_ms_tail": tail_ms,
        "tail_percentile": tail_pct,
        "tail_tasks": n_tasks,
        "sim_blocks_per_s": sim_blocks / sim_s if sim_blocks else None,
        "per_task_ms": {t.id: s * 1e3 for t, s in zip(task_list, per_task)},
    }
    if args.trace:
        tracers = [tr for traced, _, tr in passes if traced]
        layers = [spans.layer_metrics(tr) for tr in tracers]
        unsteady = [k for k in spans.EXACT_COUNTS if len({m[k] for m in layers}) > 1]
        if unsteady:
            failures.append({"pass": None, "task": None,
                             "problems": [f"counts differ between traced passes: {unsteady}"]})
        traced_runs = [runs for traced, runs, _ in passes if traced]
        out["layers"] = {k: min(m[k] for m in layers) for k in spans.LAYER_METRICS}
        out["trace_overhead_s"] = sum(
            min(runs[i][2] for runs in traced_runs) for i in range(len(task_list))
        ) - out["wall_s"]
        out["spans_per_pass"] = len(tracers[0].spans)
        out["unwrapped"] = tracers[0].missing
        spans.write_spans(OUT / f"spans-{args.workload}-{args.seed}.csv.gz", tracers,
                          origin_ns)
    out["correct"] = not failures
    return out


if __name__ == "__main__":
    sys.exit(main())
