"""The traced benchmark's hooks still run against the program.

``bench/spans.py`` wraps package functions by name and reads attributes of
the objects they take and return.  Without this test a rename or a dropped
attribute shows up only when a traced benchmark run fails.
"""

import importlib.util
import pathlib

from skacap import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SAMPLES = ROOT / "sample_models"

#: The README's ``capacity --dual``, ``bounds`` and ``simulate`` examples,
#: the last at 200 blocks and without its CSV file.
RUNS = (
    ("capacity", str(SAMPLES / "source_bsc_pair.json"), "--A", "1,2", "--dual"),
    ("bounds", str(SAMPLES / "transceiver_bsc.json"), "--A", "1,2",
     "--restarts", "8", "--seed", "1"),
    ("simulate", str(SAMPLES / "polytree_sim.json"), "--n", "24", "--blocks", "200",
     "--rate", "0.2", "--delta", "0.5", "--s", "8", "--seed", "7"),
)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_match_untraced_and_count_the_lp(capsys):
    spans = load_spans()
    untraced = []
    for argv in RUNS:
        assert cli.main(list(argv)) == 0
        untraced.append(capsys.readouterr().out)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = []
        for argv in RUNS:
            assert cli.main(list(argv)) == 0
            traced.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = spans.layer_metrics(tracer)
    assert metrics["linprog.solves"] > 0
    assert metrics["linprog.max_rows"] > 0
    assert metrics["sim.blocks"] > 0
    assert metrics["sim.table_patterns"] > 0
    ran = {span[1] for span in tracer.spans}
    for name in ("sim.run_sim", "sim._prepare", "sim._build_code", "sim._uniformity_pvalue"):
        assert name in ran
