"""Seeded model files and CLI task lists for the three benchmark workloads.

A workload is a fixed list of groups.  A group has a number of slots and
a pool of ``slots + SPARE`` variants; a variant is one generated model plus
the CLI tasks run on it.  The reference file holds the expected results of
every variant, so any workload seed can be checked.  The workload seed
draws the slots' variants from each pool without replacement: the same
seed gives the same task list, and different seeds give different models.
Leaving only ``SPARE`` variants of a pool out keeps the work of a task
list, and its latency order statistics, close to the same from seed to
seed.

Generation uses only numpy and the standard library.  The program under
test sees nothing but the model files written here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SPARE = 1

WORKLOADS = ("source_co", "channel_bounds", "pin_sim")


@dataclass(frozen=True)
class Task:
    """One ``skacap`` CLI call: ``verb model_path *opts``."""

    id: str
    model: str
    verb: str
    opts: tuple[str, ...]

    def argv(self, model_dir: Path) -> list[str]:
        return [self.verb, str(model_dir / self.model), *self.opts]


@dataclass(frozen=True)
class Variant:
    group: str
    index: int
    doc: dict
    tasks: tuple[Task, ...]

    @property
    def model(self) -> str:
        return _model_name(self.group, self.index)


def _model_name(group: str, index: int) -> str:
    return f"{group}-{index}.json"


def _rng(group: str, index: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{group}#{index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _floats(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _stochastic_rows(rng, n_rows: int, n_cols: int) -> np.ndarray:
    rows = rng.dirichlet(np.ones(n_cols), size=n_rows)
    return rows / rows.sum(axis=1, keepdims=True)


def _bsc(p: float) -> list:
    return [[1.0 - p, p], [p, 1.0 - p]]


def _random_tree(rng, n_edges: int) -> list[tuple[int, int]]:
    """Random directed tree on n_edges + 1 terminals (0-based)."""
    edges = []
    for node in range(1, n_edges + 1):
        parent = int(rng.integers(0, node))
        edges.append((parent, node) if rng.random() < 0.5 else (node, parent))
    return edges


def _polytree_doc(m: int, edges, channels, wiretaps=None) -> dict:
    out = []
    for i, ((a, b), ch) in enumerate(zip(edges, channels)):
        entry = {"from": a + 1, "to": b + 1, "channel": _floats(ch)}
        if wiretaps is not None:
            entry["wiretap"] = _floats(wiretaps[i])
        out.append(entry)
    return {"kind": "polytree", "terminals": m, "edges": out}


def _terminals(ts) -> str:
    return ",".join(str(t) for t in ts)


# ---------------------------------------------------------------------------
# source_co: CO-LP capacities of random binary sources, m = 6..12
# ---------------------------------------------------------------------------

SOURCE_SLOTS = ((6, 4), (7, 6), (8, 5), (9, 4), (10, 3), (11, 1), (12, 1))


def _source_variant(group: str, index: int, m: int) -> Variant:
    rng = _rng(group, index)
    pmf = rng.dirichlet(np.full(1 << m, 0.5))
    doc = {
        "kind": "source",
        "terminals": m,
        "variables": [{"id": j, "size": 2, "owner": j + 1} for j in range(m)],
        "pmf": _floats(pmf / pmf.sum()),
    }
    pair = sorted(int(t) + 1 for t in rng.choice(m, size=2, replace=False))
    d = int(rng.integers(1, m + 1))
    everyone = list(range(1, m + 1))
    model = _model_name(group, index)
    tasks = (
        Task(f"{group}#{index}/all", model, "capacity",
             ("--A", _terminals(everyone)) + (("--dual",) if m <= 10 else ())),
        Task(f"{group}#{index}/pair", model, "capacity", ("--A", _terminals(pair))),
        Task(f"{group}#{index}/pk", model, "capacity",
             ("--A", _terminals(t for t in everyone if t != d), "--D", str(d))),
    )
    return Variant(group, index, doc, tasks)


# ---------------------------------------------------------------------------
# channel_bounds: transceiver sandwiches and wiretapped BSC paths
# ---------------------------------------------------------------------------

#: Random restarts for the generated transceivers (the CLI default is 8).
#: With fewer restarts each task is cheaper, so a pass holds more models.
RANDOM_RESTARTS = 1


def _transceiver_doc(m, in_sizes, out_sizes, rows) -> dict:
    inputs = [{"id": j, "size": in_sizes[j], "terminal": j + 1} for j in range(m)]
    outputs = [{"id": m + j, "size": out_sizes[j], "terminal": j + 1} for j in range(m)]
    return {"kind": "transceiver", "terminals": m, "inputs": inputs,
            "outputs": outputs, "rows": _floats(rows)}


def _bsc_sample_variant(group: str, index: int) -> Variant:
    # The sample_models/transceiver_bsc.json channel: 1 -> 2 through BSC(0.11).
    doc = {
        "kind": "transceiver",
        "terminals": 2,
        "inputs": [{"id": 0, "size": 2, "terminal": 1}, {"id": 1, "size": 1, "terminal": 2}],
        "outputs": [{"id": 2, "size": 2, "terminal": 2}, {"id": 3, "size": 1, "terminal": 1}],
        "rows": _bsc(0.11),
    }
    model = _model_name(group, index)
    task = Task(f"{group}#{index}/bounds", model, "bounds",
                ("--A", "1,2", "--seed", str(index)))
    return Variant(group, index, doc, (task,))


def _random_transceiver_variant(group: str, index: int, m: int, size: int,
                                pair: bool) -> Variant:
    rng = _rng(group, index)
    rows = _stochastic_rows(rng, size ** m, size ** m)
    doc = _transceiver_doc(m, [size] * m, [size] * m, rows)
    a = (sorted(int(t) + 1 for t in rng.choice(m, size=2, replace=False))
         if pair else range(1, m + 1))
    model = _model_name(group, index)
    task = Task(f"{group}#{index}/bounds", model, "bounds",
                ("--A", _terminals(a), "--restarts", str(RANDOM_RESTARTS),
                 "--seed", str(index)))
    return Variant(group, index, doc, (task,))


def flatten_pin(m: int, edges, channels) -> dict:
    """Transceiver file of a PIN: the Kronecker product of its edge channels.

    Inputs are the edge inputs in edge order, then a size-1 input for each
    terminal that sends on no edge; outputs likewise for received edges.
    """
    senders = {a for a, _ in edges}
    receivers = {b for _, b in edges}
    inputs = [{"id": i, "size": 2, "terminal": a + 1} for i, (a, _) in enumerate(edges)]
    inputs += [{"id": 0, "size": 1, "terminal": j + 1} for j in range(m) if j not in senders]
    outputs = [{"id": 0, "size": 2, "terminal": b + 1} for _, b in edges]
    outputs += [{"id": 0, "size": 1, "terminal": j + 1} for j in range(m) if j not in receivers]
    for vid, entry in enumerate(inputs + outputs):
        entry["id"] = vid
    rows = np.ones((1, 1))
    for ch in channels:
        rows = np.kron(rows, np.asarray(ch, dtype=float))
    return {"kind": "transceiver", "terminals": m, "inputs": inputs,
            "outputs": outputs, "rows": _floats(rows)}


def _pin_variant(group: str, index: int, m: int, pair: bool) -> Variant:
    rng = _rng(group, index)
    edges = _random_tree(rng, m - 1)
    channels = [_bsc(float(p)) for p in rng.uniform(0.05, 0.25, size=m - 1)]
    doc = flatten_pin(m, edges, channels)
    a = (sorted(int(t) + 1 for t in rng.choice(m, size=2, replace=False))
         if pair else range(1, m + 1))
    model = _model_name(group, index)
    task = Task(f"{group}#{index}/bounds", model, "bounds",
                ("--A", _terminals(a), "--restarts", str(RANDOM_RESTARTS),
                 "--seed", str(index)))
    return Variant(group, index, doc, (task,))


def _wiretap_path_variant(group: str, index: int, n_edges: int) -> Variant:
    rng = _rng(group, index)
    edges = [(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(n_edges)]
    doc = _polytree_doc(n_edges + 1, edges, [_bsc(0.1)] * n_edges, [_bsc(0.3)] * n_edges)
    model = _model_name(group, index)
    task = Task(f"{group}#{index}/wiretap", model, "polytree",
                ("--wiretap", "--seed", str(index)))
    return Variant(group, index, doc, (task,))


# ---------------------------------------------------------------------------
# pin_sim: protocol simulation on BSC polytrees, and Blahut-Arimoto trees
# ---------------------------------------------------------------------------

#: (slots, block length n, blocks, decoder weight cap per edge).  The
#: weight cap ceil(2 n p) + 2 fixes the decode-table size, so each variant
#: draws its crossovers inside the band of p in [0.05, 0.1] that keeps that
#: cap.  The n = 24, cap-7 group is bound by the decode-table build, the
#: 3000- and 5000-block groups by the per-block kernel.
SIM_GROUPS = (
    (2, 16, 3000, (4, 5)),
    (3, 16, 500, (4, 5, 6, 5, 4, 5)),
    (3, 20, 500, (6, 5, 6, 5)),
    (1, 20, 5000, (5, 6)),
    (3, 24, 200, (7, 6)),
    (3, 24, 200, (5, 5, 6, 5, 5, 5)),
)

SIM_DELTA = 0.25
SIM_MARGIN = 2


def _binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _crossover_band(n: int, w_max: int) -> tuple[float, float]:
    lo = max(0.05, (w_max - 3) / (2 * n))
    hi = min(0.1, (w_max - 2) / (2 * n))
    if not lo < hi:
        raise ValueError(f"no crossover in [0.05, 0.1] has weight cap {w_max} at n = {n}")
    return lo, hi


def _sim_opts(n: int, blocks: int, key_len: int, seed: int, threads: int):
    rate = (key_len + 0.5) / n  # floor(n * rate) == key_len exactly
    return ("--n", str(n), "--blocks", str(blocks), "--rate", repr(rate),
            "--delta", repr(SIM_DELTA), "--s", str(SIM_MARGIN),
            "--seed", str(seed), "--threads", str(threads))


def _sim_model(rng, n: int, caps) -> tuple[dict, int]:
    """BSC polytree with one crossover per cap band, and a feasible key length."""
    edges = _random_tree(rng, len(caps))
    ps, budget = [], n
    for w in caps:
        lo, hi = _crossover_band(n, w)
        ps.append(float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))))
        parity = math.ceil(n * _binary_entropy(hi) * (1 + SIM_DELTA))
        budget = min(budget, n - parity - SIM_MARGIN)
    if budget < 2:
        raise ValueError(f"no feasible key length at n = {n}, caps {caps}")
    return _polytree_doc(len(caps) + 1, edges, [_bsc(p) for p in ps]), budget - 1


def _sim_variant(group: str, index: int, n: int, blocks: int, caps) -> Variant:
    rng = _rng(group, index)
    doc, key_len = _sim_model(rng, n, caps)
    seed = int(rng.integers(0, 2**31))
    model = _model_name(group, index)
    task = Task(f"{group}#{index}/simulate", model, "simulate",
                _sim_opts(n, blocks, key_len, seed, 1))
    return Variant(group, index, doc, (task,))


THREADS_CONFIG = (16, 1000, (5, 5))


def _threads_variant(group: str, index: int) -> Variant:
    """The same simulation at --threads 2 and --threads 1."""
    n, blocks, caps = THREADS_CONFIG
    rng = _rng(group, index)
    doc, key_len = _sim_model(rng, n, caps)
    seed = int(rng.integers(0, 2**31))
    model = _model_name(group, index)
    tasks = tuple(
        Task(f"{group}#{index}/threads{k}", model, "simulate",
             _sim_opts(n, blocks, key_len, seed, k))
        for k in (2, 1)
    )
    return Variant(group, index, doc, tasks)


#: Blahut-Arimoto gap tolerance.  At the CLI default 1e-9 one edge of the
#: ps.ba8 pool stalls at a gap of 2.3e-7 and hits the 100,000-iteration
#: cap (exit 2); at 1e-6 every edge of both pools converges.
BA_TOL = 1e-6


def _ba_variant(group: str, index: int, size: int) -> Variant:
    rng = _rng(group, index)
    edges = _random_tree(rng, 10)
    channels = [_stochastic_rows(rng, size, size) for _ in edges]
    doc = _polytree_doc(11, edges, channels)
    model = _model_name(group, index)
    task = Task(f"{group}#{index}/ba", model, "polytree", ("--tol", repr(BA_TOL)))
    return Variant(group, index, doc, (task,))


# ---------------------------------------------------------------------------
# Catalog and seeded selection
# ---------------------------------------------------------------------------


def groups(workload: str) -> list[tuple[str, int, Callable[[str, int], Variant]]]:
    """(group, slots, variant factory) in task-list order."""
    if workload == "source_co":
        return [(f"co.m{m}", count, lambda g, k, m=m: _source_variant(g, k, m))
                for m, count in SOURCE_SLOTS]
    if workload == "channel_bounds":
        out = [("cb.bsc", 1, _bsc_sample_variant),
               ("cb.t2", 3, lambda g, k: _random_transceiver_variant(g, k, 2, 3, False)),
               ("cb.t3all", 2, lambda g, k: _random_transceiver_variant(g, k, 3, 2, False)),
               ("cb.t3pair", 1, lambda g, k: _random_transceiver_variant(g, k, 3, 2, True))]
        for m in (3, 4):
            out.append((f"cb.pin{m}all", 2, lambda g, k, m=m: _pin_variant(g, k, m, False)))
            out.append((f"cb.pin{m}pair", 1, lambda g, k, m=m: _pin_variant(g, k, m, True)))
        for n_edges, count in ((2, 7), (3, 6), (4, 6), (5, 5), (6, 5), (7, 1)):
            out.append((f"cb.wt{n_edges}", count,
                        lambda g, k, e=n_edges: _wiretap_path_variant(g, k, e)))
        return out
    if workload == "pin_sim":
        out = [(f"ps.sim{j}", count,
                lambda g, k, n=n, b=blocks, c=caps: _sim_variant(g, k, n, b, c))
               for j, (count, n, blocks, caps) in enumerate(SIM_GROUPS)]
        out.append(("ps.threads", 1, _threads_variant))
        out += [(f"ps.ba{size}", 7, lambda g, k, size=size: _ba_variant(g, k, size))
                for size in (4, 8)]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def catalog(workload: str) -> list[Variant]:
    """Every variant of every group: what the reference file covers."""
    return [make(g, k) for g, count, make in groups(workload)
            for k in range(count + SPARE)]


def select(workload: str, seed: int) -> list[Variant]:
    """The seeded draw: distinct variants for the slots of each group."""
    pick = random.Random(f"{workload}:{seed}")
    return [make(g, k) for g, count, make in groups(workload)
            for k in sorted(pick.sample(range(count + SPARE), count))]


def model_bytes(variant: Variant) -> bytes:
    return json.dumps(variant.doc, sort_keys=True).encode()


def write_models(variants: list[Variant], model_dir: Path) -> dict[str, str]:
    """Write each variant's model file; returns model name -> sha256."""
    model_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for v in variants:
        raw = model_bytes(v)
        (model_dir / v.model).write_bytes(raw)
        digests[v.model] = hashlib.sha256(raw).hexdigest()
    return digests


def task_list_digest(variants: list[Variant]) -> str:
    """sha256 over every task's argv and model bytes, in run order."""
    h = hashlib.sha256()
    for v in variants:
        h.update(model_bytes(v))
        for t in v.tasks:
            h.update(json.dumps([t.id, t.verb, *t.opts]).encode())
    return h.hexdigest()
