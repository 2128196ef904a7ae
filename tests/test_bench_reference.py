"""Every catalog task of the three benchmark workloads reports what
``bench/reference.json`` holds.

The benchmark checks its reference values only when it runs.  This test
runs every catalog task in process, one ``cli.main`` call each as the
benchmark's workload process does, and checks each report with the
benchmark's own check, so a change that moves a reported value past the
reference tolerance (a new summation order, say) fails the suite.  The
benchmark's modules are loaded from ``bench/`` and only read.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from skacap import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tasks, child, check = load("tasks"), load("child"), load("check")


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_every_catalog_task_matches_the_reference(workload, tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    variants = tasks.catalog(workload)
    for name, digest in tasks.write_models(variants, tmp_path).items():
        assert reference["models"][name] == digest, name
    clearers = child.cache_clearers()
    failures = {}
    for variant in variants:
        for task in variant.tasks:
            rc, out, _ = child.run_task(cli, task.argv(tmp_path), clearers)
            why = check.problems(reference["tasks"].get(task.id), rc, out)
            if why:
                failures[task.id] = why
    assert not failures
