"""Reference values of CLI reports, and the check of a task against them.

Only what a report promises is compared: every ``value`` and ``kind`` of a
capacity report, plus the simulator's ``eps_hat``, ``failed_blocks``,
``decode_failures`` and ``noninteractive_capacity``.  Witnesses (rate
vectors, lambda, optimizer points, evaluation counts) are not compared: a
program that reaches another optimal vertex is still correct.
"""

from __future__ import annotations

import json

#: Numbers agree when |got - ref| <= TOL * max(1, |ref|).
TOL = 1e-9

_SIM_KEYS = ("eps_hat", "failed_blocks", "noninteractive_capacity")


def observables(report: dict) -> dict:
    """Flat ``path -> value`` map of the compared fields of a CLI report."""
    out: dict = {}

    def walk(node, path):
        if isinstance(node, dict):
            if "value" in node and "kind" in node:
                out[f"{path}.value"] = node["value"]
                out[f"{path}.kind"] = node["kind"]
                return  # the witness below is not compared
            for key, sub in node.items():
                walk(sub, f"{path}.{key}")
        elif isinstance(node, list):
            for i, sub in enumerate(node):
                walk(sub, f"{path}[{i}]")

    result = report["result"]
    if report.get("command") == "simulate":
        for key in _SIM_KEYS:
            out[f"result.{key}"] = result[key]
        for edge, count in result["decode_failures"].items():
            out[f"result.decode_failures.{edge}"] = count
    else:
        walk(result, "result")
    return out


def expected(exit_code: int, stdout: str) -> dict:
    """The reference entry of one task run."""
    values = observables(json.loads(stdout)) if exit_code == 0 else {}
    return {"exit": exit_code, "values": values}


def _same(ref, got) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool) or isinstance(ref, str):
        return ref == got
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return abs(got - ref) <= TOL * max(1.0, abs(ref))
    return ref == got


def problems(ref: dict | None, exit_code, stdout: str) -> list[str]:
    """Why a task run disagrees with its reference entry; empty when it agrees."""
    if ref is None:
        return ["no reference entry"]
    if exit_code != ref["exit"]:
        return [f"exit code {exit_code!r}, expected {ref['exit']}"]
    if exit_code != 0:
        return []
    try:
        got = observables(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    out = []
    for key in sorted(set(ref["values"]) | set(got)):
        if key not in got:
            out.append(f"{key} missing")
        elif key not in ref["values"]:
            out.append(f"{key} unexpected")
        elif not _same(ref["values"][key], got[key]):
            out.append(f"{key} = {got[key]!r}, expected {ref['values'][key]!r}")
    return out
