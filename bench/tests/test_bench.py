"""Tests of the benchmark's own code (tail rule, self time, reference check,
seeded inputs, metric tables)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import tasks  # noqa: E402


# -- task_ms_tail: the highest percentile with >= 10 samples beyond it ------


def test_tail_leaves_exactly_ten_beyond():
    xs = list(range(1, 41))  # 40 distinct samples
    value, pct, n = stats.tail(xs)
    assert (value, pct, n) == (30, 75.0, 40)
    assert sum(x > value for x in xs) == 10


def test_tail_steps_down_past_ties():
    xs = [1.0] * 5 + [2.0] * 10 + [3.0] * 6  # rank 11 is a 2.0 with only 6 beyond
    value, pct, n = stats.tail(xs)
    assert value == 1.0 and pct == pytest.approx(100 * 5 / 21) and n == 21
    assert sum(x > value for x in xs) >= 10


def test_tail_needs_more_than_ten_samples():
    assert stats.tail(range(11))[0] == 0
    with pytest.raises(ValueError):
        stats.tail(range(10))


# -- self time: a span minus the union of its children ---------------------


def _rec(i, name, start, end, parent):
    return [i, name, "site", start, end, parent, 0]


def test_self_time_of_nested_spans():
    recs = [
        _rec(0, "root", 0, 100, -1),
        _rec(1, "a", 10, 40, 0),
        _rec(2, "a.child", 15, 25, 1),
        _rec(3, "b", 50, 60, 0),
    ]
    got = spans.self_times(recs)
    assert got == {0: 100 - 30 - 10, 1: 30 - 10, 2: 10, 3: 10}


def test_self_time_counts_overlapping_children_once():
    # two worker-thread children overlap on [30, 40] and one pokes past the end
    recs = [
        _rec(0, "run", 0, 100, -1),
        _rec(1, "blk", 20, 40, 0),
        _rec(2, "blk", 30, 60, 0),
        _rec(3, "blk", 90, 120, 0),
    ]
    assert spans.self_times(recs)[0] == 100 - 40 - 10


def test_tracer_wraps_and_restores():
    import types

    mod = types.ModuleType("m")
    calls = []

    def inner(x):
        calls.append(x)
        return x * 2

    mod.inner = inner
    tr = spans.Tracer()
    mod.inner = tr.wrap(inner, "layer.inner", "m.inner")
    outer = tr.wrap(lambda: mod.inner(3) + mod.inner(4), "layer.outer", "m.outer")
    assert outer() == 14 and calls == [3, 4]
    by_name = {r[spans.NAME]: r for r in tr.spans}
    assert len(tr.spans) == 3
    assert by_name["layer.inner"][spans.PARENT] == by_name["layer.outer"][spans.ID]


# -- reference check -------------------------------------------------------


REPORT = {
    "command": "bounds",
    "result": {
        "lower_bounds": [{"value": 0.5, "kind": "lower_bound", "witness": {"x": [1]}}],
        "noninteractive": {"value": 0.5, "kind": "exact", "method": "m"},
        "upper_bound": {"value": 0.75, "kind": "upper_bound",
                        "witness": {"family": [{"value": 9.0}]}},
    },
}


def _ref():
    return check.expected(0, json.dumps(REPORT))


def test_reference_accepts_the_same_report_and_ignores_witnesses():
    other = json.loads(json.dumps(REPORT))
    other["result"]["lower_bounds"][0]["witness"] = {"x": [2, 3]}
    other["result"]["noninteractive"]["value"] += 1e-12
    assert check.problems(_ref(), 0, json.dumps(other)) == []
    assert set(_ref()["values"]) == {
        "result.lower_bounds[0].value", "result.lower_bounds[0].kind",
        "result.noninteractive.value", "result.noninteractive.kind",
        "result.upper_bound.value", "result.upper_bound.kind",
    }


def test_reference_flags_a_perturbed_value():
    other = json.loads(json.dumps(REPORT))
    other["result"]["upper_bound"]["value"] += 1e-8
    assert check.problems(_ref(), 0, json.dumps(other)) == [
        "result.upper_bound.value = 0.75000001, expected 0.75"
    ]


def test_reference_flags_a_changed_kind():
    other = json.loads(json.dumps(REPORT))
    other["result"]["noninteractive"]["kind"] = "lower_bound"
    assert len(check.problems(_ref(), 0, json.dumps(other))) == 1


def test_reference_flags_a_wrong_exit_code():
    assert check.problems(_ref(), 4, "") == ["exit code 4, expected 0"]
    assert check.problems(_ref(), "MemoryError: x", "") != []
    assert check.problems(None, 0, json.dumps(REPORT)) == ["no reference entry"]


def test_simulate_observables():
    rep = {"command": "simulate", "result": {
        "eps_hat": 0.25, "failed_blocks": 5, "decode_failures": {"1->2": 3},
        "noninteractive_capacity": 0.5, "uniformity_p": 0.3, "key_len": 4}}
    assert check.observables(rep) == {
        "result.eps_hat": 0.25, "result.failed_blocks": 5,
        "result.decode_failures.1->2": 3, "result.noninteractive_capacity": 0.5,
    }


# -- seeded inputs ---------------------------------------------------------


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_same_seed_gives_identical_task_lists(workload):
    a, b = tasks.select(workload, 7), tasks.select(workload, 7)
    assert tasks.task_list_digest(a) == tasks.task_list_digest(b)
    assert [t for v in a for t in v.tasks] == [t for v in b for t in v.tasks]


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_another_seed_gives_other_models(workload):
    a, b = tasks.select(workload, 1), tasks.select(workload, 2)
    assert tasks.task_list_digest(a) != tasks.task_list_digest(b)
    assert {tasks.model_bytes(v) for v in a} != {tasks.model_bytes(v) for v in b}


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_every_selectable_task_has_a_reference(workload):
    ref = json.loads((BENCH / "reference.json").read_text())
    for v in tasks.catalog(workload):
        assert ref["models"][v.model] == tasks.hashlib.sha256(tasks.model_bytes(v)).hexdigest()
        for t in v.tasks:
            assert ref["tasks"][t.id]["exit"] == 0, t.id


def test_flattened_pin_matches_the_program():
    src = BENCH.parent / "src"
    if not src.is_dir():
        pytest.skip("program sources not present")
    sys.path.insert(0, str(src))
    from skacap.modelio import parse_model
    from skacap.models import Polytree, edge, polytree_to_transceiver

    edges = [(1, 0), (1, 2), (3, 1)]
    chans = [tasks._bsc(p) for p in (0.1, 0.2, 0.15)]
    mine = parse_model(json.dumps(tasks.flatten_pin(4, edges, chans)))
    theirs = polytree_to_transceiver(
        Polytree(4, tuple(edge(a, b, c) for (a, b), c in zip(edges, chans))))
    assert mine.input_vars == theirs.input_vars
    assert mine.output_vars == theirs.output_vars
    assert mine.channel.rows == pytest.approx(theirs.channel.rows, abs=1e-15)


# -- metric tables ---------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(tasks.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_every_predicted_metric_is_reported():
    import run

    doc = json.loads((BENCH / "predictions.json").read_text())
    named = {m for p in doc["predictions"] for m in p["metrics"]}
    assert named <= set(run.PER_LAYER)
    assert {m for p in doc["predictions"] for m in p["moves"]} <= set(run.END_TO_END)
    assert set(run.PER_LAYER) - named == {"trace.overhead_s"}
