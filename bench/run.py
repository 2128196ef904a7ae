"""skacap benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload source_co --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads, metrics and bounds are
described in BENCHMARK.json.  The launcher starts, one after another and
each in a fresh interpreter:

* ``SETUP_PROBES`` set-up probes, which import ``skacap.cli`` and write the
  seeded model files, then exit;
* the workload process (``child.py``), which sets up the same way and then
  runs the task list for ``--seconds`` seconds.

``setup_s`` is the median over all of them.  The workload process runs
the task list pass after pass; a task's latency is its fastest run in the
run (on a shared machine, slow phases only ever add time), ``wall_s`` is
the sum of those, and ``task_ms_p50`` and ``task_ms_tail`` are order
statistics over the tasks.  BLAS threads are pinned to 1.

Human-readable lines go first; the last line of stdout is the JSON result.
Details (machine, settings, per-task latencies, failures) are also written
to ``bench/_out/result-<workload>-<seed>-<trace>.json``, and a traced run
writes its spans to ``bench/_out/spans-<workload>-<seed>.csv.gz``.

Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"

WORKLOADS = ("source_co", "channel_bounds", "pin_sim")
SETUP_PROBES = 4
BLAS_THREADS = 1
#: Every process of one run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **spans.LAYER_METRICS,
    "setup.import_ms": "ms",
    "setup.inputs_ms": "ms",
    "sim.blocks_per_s": "1/s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("SKACAP_THREADS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run child.py to completion; returns its JSON result line."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a child process")
    spawned = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--spawned-ns", str(spawned)], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "skacap" / "cli.py").is_file():
        sys.stderr.write(f"bench: no program sources under {ROOT / 'src'}\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = [spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        limit = deadline - time.monotonic() - 15.0
        res = spawn(args, ["--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--limit", f"{limit:.1f}"], deadline)
    except (RuntimeError, ValueError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1

    setups = probes + [res]
    res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    res["import_ms"] = statistics.median(s["import_ms"] for s in setups)
    res["inputs_ms"] = statistics.median(s["inputs_ms"] for s in setups)
    res["setup_samples_s"] = [s["setup_s"] for s in setups]
    res["machine"] = machine(args.seed)
    res.update(workload=args.workload, trace=args.trace, seconds=args.seconds)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(res, indent=1, sort_keys=True))

    m = res["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{res['tasks']} tasks x {res['passes']} passes  "
          f"task list sha256 {res['task_list_sha256'][:16]}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in m.items()))
    print(f"  setup_s            {res['setup_s']:.4f} s  (median of {len(setups)} starts; "
          f"import {res['import_ms']:.1f} ms, inputs {res['inputs_ms']:.1f} ms)")
    print(f"  wall_s             {res['wall_s']:.4f} s")
    print(f"  task_ms_p50        {res['task_ms_p50']:.3f} ms")
    print(f"  task_ms_tail       {res['task_ms_tail']:.3f} ms  "
          f"(p{res['tail_percentile']:.1f} of {res['tail_tasks']} tasks, 10 beyond)")
    print(f"  fail_frac          {res['failed'] / res['attempted']:.4f}  "
          f"({res['failed']} of {res['attempted']} task runs)")
    print(f"  peak_rss_mb        {res['peak_rss_mb']:.1f} MB")
    if res["sim_blocks_per_s"] is not None:
        print(f"  sim_blocks_per_s   {res['sim_blocks_per_s']:.1f} 1/s")
    for f in res["failures"][:10]:
        print(f"  FAILED pass {f['pass']} task {f['task']}: {'; '.join(f['problems'])}")

    if args.trace:
        layers = dict(res["layers"])
        layers["setup.import_ms"] = res["import_ms"]
        layers["setup.inputs_ms"] = res["inputs_ms"]
        layers["trace.overhead_s"] = res["trace_overhead_s"]
        layers["sim.blocks_per_s"] = res["sim_blocks_per_s"] or 0.0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        print(f"  spans per traced pass {res['spans_per_pass']}; "
              f"tracing overhead {res['trace_overhead_s']:.4f} s")
        if res["unwrapped"]:
            print(f"  not found, so not traced: {', '.join(res['unwrapped'])}")
        for name, mv in metrics.items():
            print(f"  {name:30s} {mv['value']:.6g} {mv['unit']}")
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
