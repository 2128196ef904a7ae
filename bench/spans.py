"""Span recorder for the traced run, installed from outside the program.

``Tracer.install`` replaces each function in ``WRAPS`` by a wrapper at the
name through which its caller looks it up (``skacap.omniscience.lp_solve``
and ``skacap.transceiver.lp_solve`` are wrapped separately, for example),
and ``uninstall`` puts the originals back.  A wrapper records one span:
name, lookup site, start, end, parent span and task index.  Spans stay in
memory until the run writes them out.  Counts come from the objects the
wrapped calls return, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# span record fields
ID, NAME, SITE, START, END, PARENT, TASK = range(7)


def _lp_solve(tr, args, res):
    lp = args[0]
    tr.counts["linprog.pivots"] += res.iterations
    tr.maxima["linprog.max_rows"] = max(
        tr.maxima.get("linprog.max_rows", 0), lp.a_ge.shape[0] + lp.a_eq.shape[0]
    )


def _search(tr, args, res):
    tr.counts["optimize.evaluations"] += res.evaluations
    tr.counts["optimize.converged"] += bool(res.converged)


def _edge_capacity(tr, args, res):
    tr.counts["polytree.ba_iterations"] += res.iterations


def _to_transceiver(tr, args, res):
    tr.maxima["models.channel_cells"] = max(
        tr.maxima.get("models.channel_cells", 0), int(res.channel.rows.size)
    )


def _family(tr, args, res):
    tr.counts["omniscience.family_members"] += len(res.members)


def _run_sim(tr, args, res):
    tr.counts["sim.blocks"] += res.blocks
    tr.counts["sim.failed_blocks"] += res.failed_blocks
    tr.counts["sim.decode_failures"] += sum(res.decode_failures.values())


def _build_code(tr, args, res):
    tr.counts["sim.table_patterns"] += len(res[2])


#: (module, attribute at the lookup site, span name, count hook)
WRAPS = (
    ("skacap.cli", "main", "cli.main", None),
    ("skacap.cli", "parse_model", "modelio.parse_model", None),
    ("skacap.prob", "JointPMF.__post_init__", "prob.JointPMF", None),
    ("skacap.models", "compose", "prob.compose", None),
    ("skacap.transceiver", "compose", "prob.compose", None),
    ("skacap.transceiver", "product_pmf", "prob.product_pmf", None),
    ("skacap.transceiver", "extend_with_channel", "prob.extend_with_channel", None),
    ("skacap.polytree", "polytree_to_transceiver", "models.polytree_to_transceiver",
     _to_transceiver),
    ("skacap.transceiver", "emulated_to_source", "models.emulated_to_source", None),
    ("skacap.polytree", "emulated_to_source", "models.emulated_to_source", None),
    ("skacap.cli", "constraint_family", "omniscience.constraint_family", _family),
    ("skacap.omniscience", "constraint_family", "omniscience.constraint_family", _family),
    ("skacap.cli", "sk_capacity", "omniscience.sk_capacity", None),
    ("skacap.cli", "pk_capacity", "omniscience.pk_capacity", None),
    ("skacap.cli", "sk_capacity_dual", "omniscience.sk_capacity_dual", None),
    ("skacap.omniscience", "sk_capacity", "omniscience.sk_capacity", None),
    ("skacap.omniscience", "pk_capacity", "omniscience.pk_capacity", None),
    ("skacap.omniscience", "rco", "omniscience.rco", None),
    ("skacap.transceiver", "sk_capacity", "omniscience.sk_capacity", None),
    ("skacap.transceiver", "pk_capacity", "omniscience.pk_capacity", None),
    ("skacap.omniscience", "EntropyCache.__init__", "omniscience.EntropyCache", None),
    ("skacap.omniscience", "EntropyCache.subset_entropy", "omniscience.subset_entropy",
     None),
    ("skacap.omniscience", "lp_solve", "linprog.lp_solve", _lp_solve),
    ("skacap.transceiver", "lp_solve", "linprog.lp_solve", _lp_solve),
    ("skacap.transceiver", "maximize_product_simplices",
     "optimize.maximize_product_simplices", _search),
    ("skacap.polytree", "maximize_product_simplices",
     "optimize.maximize_product_simplices", _search),
    ("skacap.cli", "sk_bounds", "transceiver.sk_bounds", None),
    ("skacap.transceiver", "lower_bound_sk", "transceiver.lower_bound_sk", None),
    ("skacap.transceiver", "lower_bound_pk", "transceiver.lower_bound_pk", None),
    ("skacap.transceiver", "emulate", "transceiver.emulate", None),
    ("skacap.transceiver", "constant_emulation", "transceiver.constant_emulation", None),
    ("skacap.transceiver", "_ni_search", "transceiver._ni_search", None),
    ("skacap.transceiver", "_product_input", "transceiver._product_input", None),
    ("skacap.transceiver", "upper_bound_sk", "transceiver.upper_bound_sk", None),
    ("skacap.transceiver", "_min_lambda", "transceiver._min_lambda", None),
    ("skacap.transceiver", "wsk_upper_by_pk", "transceiver.wsk_upper_by_pk", None),
    ("skacap.cli", "polytree_capacity", "polytree.polytree_capacity", None),
    ("skacap.cli", "wiretapped_polytree_bounds", "polytree.wiretapped_polytree_bounds",
     None),
    ("skacap.polytree", "edge_capacity", "polytree.edge_capacity", _edge_capacity),
    ("skacap.polytree", "wiretapped_edge_lower", "polytree.wiretapped_edge_lower", None),
    ("skacap.cli", "run_sim", "sim.run_sim", _run_sim),
    ("skacap.sim", "_prepare", "sim._prepare", None),
    ("skacap.sim", "_build_code", "sim._build_code", _build_code),
    ("skacap.sim", "_run_block", "sim._run_block", None),
    ("skacap.sim", "_uniformity_pvalue", "sim._uniformity_pvalue", None),
)

_OMNISCIENCE_SELF = (
    "omniscience.sk_capacity",
    "omniscience.pk_capacity",
    "omniscience.sk_capacity_dual",
    "omniscience.rco",
    "omniscience.constraint_family",
)

#: Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "cli.self_ms": "ms",
    "modelio.parse_calls": "count",
    "modelio.parse_ms": "ms",
    "prob.jointpmf_builds": "count",
    "prob.compose_calls": "count",
    "prob.compose_ms": "ms",
    "models.to_transceiver_ms": "ms",
    "models.channel_cells": "count",
    "models.emulated_sources": "count",
    "omniscience.entropy_caches": "count",
    "omniscience.entropy_queries": "count",
    "omniscience.entropy_ms": "ms",
    "omniscience.family_members": "count",
    "omniscience.self_ms": "ms",
    "linprog.solves": "count",
    "linprog.pivots": "count",
    "linprog.pivots_per_solve": "count",
    "linprog.ms": "ms",
    "linprog.ms_per_solve": "ms",
    "linprog.max_rows": "count",
    "optimize.searches": "count",
    "optimize.evaluations": "count",
    "optimize.ms_per_evaluation": "ms",
    "optimize.converged_frac": "fraction",
    "transceiver.upper_ms": "ms",
    "transceiver.self_ms": "ms",
    "polytree.ba_edges": "count",
    "polytree.ba_iterations": "count",
    "polytree.ba_ms": "ms",
    "polytree.wiretap_lower_ms": "ms",
    "polytree.wiretap_upper_ms": "ms",
    "sim.blocks": "count",
    "sim.us_per_block": "us",
    "sim.table_build_ms": "ms",
    "sim.table_patterns": "count",
    "sim.decode_failures": "count",
    "sim.agree_frac": "fraction",
    "sim.uniformity_ms": "ms",
}

#: Metrics that count work: a traced run checks that they repeat exactly.
EXACT_COUNTS = tuple(k for k, unit in LAYER_METRICS.items() if unit == "count")


class Tracer:
    """Spans and counts of one traced pass over the task list."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.task = -1
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, site: str, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack  # worker threads hang off the main span
            rec = [next(self._ids), name, site, time.perf_counter_ns(), 0,
                   outer[-1][ID] if outer else -1, self.task]
            stack.append(rec)
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
                self.spans.append(rec)
            if hook is not None:
                hook(self, args, res)
            return res

        return wrapper

    def install(self):
        for module, attr, name, hook in WRAPS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            site = f"{module}.{attr}"
            setattr(owner, leaf, self.wrap(original, name, site, hook))
            self._installed.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by child spans (ns).

    Children may overlap (worker threads), so the covered part is the
    union of their intervals, clipped to the parent's.
    """
    children = defaultdict(list)
    for rec in spans:
        children[rec[PARENT]].append((rec[START], rec[END]))
    out = {}
    for rec in spans:
        start, end = rec[START], rec[END]
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(rec[ID], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[rec[ID]] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The ``LAYER_METRICS`` of one traced pass."""
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    selfs = self_times(tracer.spans)
    for rec in tracer.spans:
        calls[rec[NAME]] += 1
        total[rec[NAME]] += rec[END] - rec[START]
        own[rec[NAME]] += selfs[rec[ID]]

    def ms(ns):
        return ns / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    c, mx = tracer.counts, tracer.maxima
    solves = calls["linprog.lp_solve"]
    searches = calls["optimize.maximize_product_simplices"]
    blocks = c["sim.blocks"]
    lower = total["polytree.wiretapped_edge_lower"]
    return {
        "cli.self_ms": ms(own["cli.main"]),
        "modelio.parse_calls": calls["modelio.parse_model"],
        "modelio.parse_ms": ms(total["modelio.parse_model"]),
        "prob.jointpmf_builds": calls["prob.JointPMF"],
        "prob.compose_calls": calls["prob.compose"],
        "prob.compose_ms": ms(total["prob.compose"]),
        "models.to_transceiver_ms": ms(total["models.polytree_to_transceiver"]),
        "models.channel_cells": mx.get("models.channel_cells", 0),
        "models.emulated_sources": calls["models.emulated_to_source"],
        "omniscience.entropy_caches": calls["omniscience.EntropyCache"],
        "omniscience.entropy_queries": calls["omniscience.subset_entropy"],
        "omniscience.entropy_ms": ms(
            total["omniscience.EntropyCache"] + total["omniscience.subset_entropy"]
        ),
        "omniscience.family_members": c["omniscience.family_members"],
        "omniscience.self_ms": ms(sum(own[n] for n in _OMNISCIENCE_SELF)),
        "linprog.solves": solves,
        "linprog.pivots": c["linprog.pivots"],
        "linprog.pivots_per_solve": ratio(c["linprog.pivots"], solves),
        "linprog.ms": ms(total["linprog.lp_solve"]),
        "linprog.ms_per_solve": ratio(ms(total["linprog.lp_solve"]), solves),
        "linprog.max_rows": mx.get("linprog.max_rows", 0),
        "optimize.searches": searches,
        "optimize.evaluations": c["optimize.evaluations"],
        "optimize.ms_per_evaluation": ratio(
            ms(total["optimize.maximize_product_simplices"]), c["optimize.evaluations"]
        ),
        "optimize.converged_frac": ratio(c["optimize.converged"], searches),
        "transceiver.upper_ms": ms(total["transceiver.upper_bound_sk"]),
        "transceiver.self_ms": ms(
            sum(v for n, v in own.items() if n.startswith("transceiver."))
        ),
        "polytree.ba_edges": calls["polytree.edge_capacity"],
        "polytree.ba_iterations": c["polytree.ba_iterations"],
        "polytree.ba_ms": ms(total["polytree.edge_capacity"]),
        "polytree.wiretap_lower_ms": ms(lower),
        "polytree.wiretap_upper_ms": ms(total["polytree.wiretapped_polytree_bounds"] - lower),
        "sim.blocks": blocks,
        "sim.us_per_block": ratio(total["sim._run_block"] / 1e3, blocks),
        "sim.table_build_ms": ms(total["sim._build_code"]),
        "sim.table_patterns": c["sim.table_patterns"],
        "sim.decode_failures": c["sim.decode_failures"],
        "sim.agree_frac": 1.0 - ratio(c["sim.failed_blocks"], blocks) if blocks else 0.0,
        "sim.uniformity_ms": ms(total["sim._uniformity_pvalue"]),
    }


def write_spans(path: Path, tracers: list[Tracer], origin_ns: int):
    """All spans as gzipped CSV: pass, id, name, site, start, end, parent, task."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass,id,name,site,start_ns,end_ns,parent,task\n")
        for k, tr in enumerate(tracers):
            for rec in tr.spans:
                fh.write(
                    f"{k},{rec[ID]},{rec[NAME]},{rec[SITE]},{rec[START] - origin_ns},"
                    f"{rec[END] - origin_ns},{rec[PARENT]},{rec[TASK]}\n"
                )
