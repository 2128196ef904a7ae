"""Model-file parsing and canonical serialization.

Files are UTF-8 JSON with a top-level ``"kind"`` of ``"source"``,
``"transceiver"`` or ``"polytree"``.  Terminals are 1-based in files and
0-based in code.  Canonical output sorts keys and prints floats with 17
significant digits, so parse -> serialize is byte-stable.

Schemas (variable order in the flat arrays is the listed order):

source::

    {"kind": "source", "terminals": m,
     "variables": [{"id": 0, "size": 2, "owner": 1}, ...],   # owner in 1..m or "eve"
     "pmf": [ ... ]}                                          # row-major

transceiver::

    {"kind": "transceiver", "terminals": m,
     "inputs":  [{"id": 0, "size": 2, "terminal": 1}, ...],
     "outputs": [{"id": 2, "size": 2, "terminal": 2}, ...],
     "eve": {"id": 9, "size": 2},                             # optional
     "rows": [[...], ...]}   # one row per joint input, columns over outputs then eve

polytree::

    {"kind": "polytree", "terminals": m,
     "edges": [{"from": 1, "to": 2, "channel": [[...], ...],
                "wiretap": [[...], ...]}, ...]}               # wiretap optional
"""

from __future__ import annotations

import json
from typing import Any, Union

import numpy as np

from .errors import ModelError
from .models import Polytree, SourceModel, TransceiverModel, edge
from .prob import Alphabet, Dmc, JointPMF

Model = Union[SourceModel, TransceiverModel, Polytree]


def _fail(path: str, msg: str):
    raise ModelError(f"{path}: {msg}")


def _get(obj: dict, key: str, typ, path: str):
    if key not in obj:
        _fail(path, f"missing required field {key!r}")
    val = obj[key]
    if typ is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            _fail(f"{path}.{key}", f"expected a number, got {type(val).__name__}")
        return float(val)
    if not isinstance(val, typ) or isinstance(val, bool):
        _fail(f"{path}.{key}", f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def _numbers(val, path: str) -> np.ndarray:
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected an array of numbers")
    if not np.all(np.isfinite(arr)):
        _fail(path, "expected finite numbers, got NaN or Infinity")
    return arr


def _var_entry(entry: Any, i: int, path: str, owner_key: str) -> tuple[int, int, Any]:
    p = f"{path}[{i}]"
    if not isinstance(entry, dict):
        _fail(p, "expected an object")
    vid = _get(entry, "id", int, p)
    size = _get(entry, "size", int, p)
    if size < 1:
        _fail(p, f"size must be >= 1, got {size}")
    owner = entry.get(owner_key)
    return vid, size, owner


def parse_model(text: bytes | str) -> Model:
    """Parse a model file; raises ModelError with a field-level message."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(f"model file is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("$", "top level must be an object")
    kind = _get(doc, "kind", str, "$")
    if kind == "source":
        return _parse_source(doc)
    if kind == "transceiver":
        return _parse_transceiver(doc)
    if kind == "polytree":
        return _parse_polytree(doc)
    _fail("$.kind", f"unknown kind {kind!r}")


def _parse_source(doc: dict) -> SourceModel:
    m = _get(doc, "terminals", int, "$")
    variables = _get(doc, "variables", list, "$")
    if not variables:
        _fail("$.variables", "need at least one variable")
    vl = []
    owners: dict[int, set[int]] = {j: set() for j in range(m)}
    eve_var = None
    for i, entry in enumerate(variables):
        vid, size, owner = _var_entry(entry, i, "$.variables", "owner")
        vl.append((vid, Alphabet(size)))
        if owner == "eve":
            if eve_var is not None:
                _fail(f"$.variables[{i}]", "more than one eve variable")
            eve_var = vid
        elif isinstance(owner, int) and not isinstance(owner, bool) and 1 <= owner <= m:
            owners[owner - 1].add(vid)
        else:
            _fail(f"$.variables[{i}].owner", f"expected 1..{m} or 'eve', got {owner!r}")
    pmf_flat = _numbers(_get(doc, "pmf", list, "$"), "$.pmf")
    try:
        pmf = JointPMF(tuple(vl), pmf_flat)
        groups = tuple(frozenset(owners[j]) for j in range(m))
        return SourceModel(pmf=pmf, terminal_vars=groups, eve_var=eve_var)
    except ModelError as exc:
        raise ModelError(f"$.pmf: {exc}") from exc


def _parse_transceiver(doc: dict) -> TransceiverModel:
    m = _get(doc, "terminals", int, "$")
    in_groups: dict[int, list[int]] = {j: [] for j in range(m)}
    out_groups: dict[int, list[int]] = {j: [] for j in range(m)}
    in_vl, out_vl = [], []
    for key, groups, vl in (("inputs", in_groups, in_vl), ("outputs", out_groups, out_vl)):
        entries = _get(doc, key, list, "$")
        if not entries:
            _fail(f"$.{key}", "need at least one variable")
        for i, entry in enumerate(entries):
            vid, size, term = _var_entry(entry, i, f"$.{key}", "terminal")
            if not isinstance(term, int) or isinstance(term, bool) or not 1 <= term <= m:
                _fail(f"$.{key}[{i}].terminal", f"expected 1..{m}, got {term!r}")
            vl.append((vid, Alphabet(size)))
            groups[term - 1].append(vid)
    eve_var = None
    if "eve" in doc:
        ev = _get(doc, "eve", dict, "$")
        eve_var = (_get(ev, "id", int, "$.eve"), Alphabet(_get(ev, "size", int, "$.eve")))
        out_vl.append(eve_var)
        eve_var = eve_var[0]
    rows = _numbers(_get(doc, "rows", list, "$"), "$.rows")
    for j in range(m):
        if not in_groups[j]:
            _fail("$.inputs", f"terminal {j + 1} has no input variable")
        if not out_groups[j]:
            _fail("$.outputs", f"terminal {j + 1} has no output variable")
    try:
        channel = Dmc(tuple(in_vl), tuple(out_vl), rows)
        return TransceiverModel(
            m=m,
            input_vars=tuple(tuple(in_groups[j]) for j in range(m)),
            output_vars=tuple(tuple(out_groups[j]) for j in range(m)),
            channel=channel,
            eve_var=eve_var,
        )
    except ModelError as exc:
        raise ModelError(f"$.rows: {exc}") from exc


def _parse_polytree(doc: dict) -> Polytree:
    m = _get(doc, "terminals", int, "$")
    entries = _get(doc, "edges", list, "$")
    edges = []
    for i, entry in enumerate(entries):
        p = f"$.edges[{i}]"
        if not isinstance(entry, dict):
            _fail(p, "expected an object")
        frm = _get(entry, "from", int, p)
        to = _get(entry, "to", int, p)
        if not (1 <= frm <= m and 1 <= to <= m):
            _fail(p, f"edge {frm}->{to} outside 1..{m}")
        rows = _numbers(_get(entry, "channel", list, p), f"{p}.channel")
        wt = None
        if "wiretap" in entry:
            wt = _numbers(entry["wiretap"], f"{p}.wiretap")
        try:
            edges.append(edge(frm - 1, to - 1, rows, wt))
        except ModelError as exc:
            raise ModelError(f"{p}: {exc}") from exc
    try:
        return Polytree(m=m, edges=tuple(edges))
    except ModelError as exc:
        raise ModelError(f"$.edges: {exc}") from exc


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _canon(value) -> str:
    if isinstance(value, dict):
        items = sorted(value.items())
        body = ",".join(f"{json.dumps(k)}:{_canon(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise ModelError(f"cannot serialize {type(value).__name__}")


def dumps_canonical(doc: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, 17-significant-digit floats."""
    return (_canon(doc) + "\n").encode("utf-8")


def model_to_doc(model: Model) -> dict:
    if isinstance(model, SourceModel):
        variables = []
        owner_of = {}
        for j, g in enumerate(model.terminal_vars):
            for v in g:
                owner_of[v] = j + 1
        for vid, alph in model.pmf.vars:
            owner = "eve" if vid == model.eve_var else owner_of[vid]
            variables.append({"id": vid, "size": alph.size, "owner": owner})
        return {
            "kind": "source",
            "terminals": model.m,
            "variables": variables,
            "pmf": [float(x) for x in model.pmf.probs],
        }
    if isinstance(model, TransceiverModel):
        if model.eve_var is not None and model.channel.out_ids[-1] != model.eve_var:
            raise ModelError("serialization requires the eve variable to be last")
        term_of_in = {v: j + 1 for j, g in enumerate(model.input_vars) for v in g}
        term_of_out = {v: j + 1 for j, g in enumerate(model.output_vars) for v in g}
        doc = {
            "kind": "transceiver",
            "terminals": model.m,
            "inputs": [
                {"id": vid, "size": a.size, "terminal": term_of_in[vid]}
                for vid, a in model.channel.in_vars
            ],
            "outputs": [
                {"id": vid, "size": a.size, "terminal": term_of_out[vid]}
                for vid, a in model.channel.out_vars
                if vid != model.eve_var
            ],
            "rows": [[float(x) for x in row] for row in model.channel.rows],
        }
        if model.eve_var is not None:
            size = dict(model.channel.out_vars)[model.eve_var].size
            doc["eve"] = {"id": model.eve_var, "size": size}
        return doc
    if isinstance(model, Polytree):
        edges = []
        for e in model.edges:
            entry = {
                "from": e.sender + 1,
                "to": e.receiver + 1,
                "channel": [[float(x) for x in row] for row in e.channel.rows],
            }
            if e.wiretap is not None:
                entry["wiretap"] = [[float(x) for x in row] for row in e.wiretap.rows]
            edges.append(entry)
        return {"kind": "polytree", "terminals": model.m, "edges": edges}
    raise ModelError(f"unknown model type {type(model).__name__}")


def serialize_model(model: Model) -> bytes:
    """Canonical byte serialization; inverse of parse_model."""
    return dumps_canonical(model_to_doc(model))
