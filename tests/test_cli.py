import json
import pathlib
import re
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest
from conftest import child_env, run_skacap

from skacap import cli
from skacap.modelio import serialize_model
from skacap.models import Polytree, SourceModel, edge, polytree_to_transceiver
from skacap.prob import Alphabet, JointPMF, binary_entropy, bsc_matrix

SCHEMA = json.loads(
    (pathlib.Path(__file__).parents[1] / "src" / "skacap" / "report.schema.json").read_text()
)


def run_cli(*argv, env=None):
    return run_skacap(*argv, env=env)


def write_model(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_bytes(serialize_model(model))
    return str(path)


def correlated_bits_source():
    pmf = JointPMF(((0, Alphabet(2)), (1, Alphabet(2))), [0.5, 0.0, 0.0, 0.5])
    return SourceModel(pmf, (frozenset({0}), frozenset({1})))


def three_terminal_source():
    rng = np.random.default_rng(0)
    pair = np.array([0.5, 0.0, 0.0, 0.5]).reshape(2, 2)
    flat = (pair[:, :, None] * np.array([0.5, 0.5])[None, None, :]).ravel()
    vl = tuple((i, Alphabet(2)) for i in range(3))
    return SourceModel(JointPMF(vl, flat), tuple(frozenset({i}) for i in range(3)))


def bsc_path_polytree():
    return Polytree(3, (edge(0, 1, bsc_matrix(0.11)), edge(1, 2, bsc_matrix(0.2))))


def validate_schema(stdout: str) -> dict:
    doc = json.loads(stdout)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_capacity_correlated_bits(tmp_path):
    path = write_model(tmp_path, correlated_bits_source())
    proc = run_cli("capacity", path, "--A", "1,2")
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    assert doc["result"]["sk_capacity"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_capacity_rejects_overlapping_a_d(tmp_path):
    path = write_model(tmp_path, correlated_bits_source())
    proc = run_cli("capacity", path, "--A", "1,2", "--D", "2")
    assert proc.returncode == 2
    assert "intersect" in proc.stderr


def test_capacity_pk_three_terminals(tmp_path):
    path = write_model(tmp_path, three_terminal_source())
    proc = run_cli("capacity", path, "--A", "1,2", "--D", "3")
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    assert doc["result"]["pk_capacity"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_capacity_dual_flag(tmp_path):
    path = write_model(tmp_path, correlated_bits_source())
    proc = run_cli("capacity", path, "--A", "1,2", "--dual")
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    assert "lambda" in doc["result"]["sk_capacity_dual"]["witness"]


def test_capacity_schema_error_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "source", "terminals": 1}')
    proc = run_cli("capacity", str(path), "--A", "1")
    assert proc.returncode == 2
    assert "missing required field" in proc.stderr


def test_bounds_single_bsc_edge(tmp_path):
    t = polytree_to_transceiver(Polytree(2, (edge(0, 1, bsc_matrix(0.11)),)))
    path = write_model(tmp_path, t)
    proc = run_cli("bounds", path, "--A", "1,2", "--restarts", "2", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    res = doc["result"]
    expect = 0.500084041835
    assert res["noninteractive"]["value"] == pytest.approx(expect, abs=1e-6)
    assert max(l["value"] for l in res["lower_bounds"]) <= res["noninteractive"]["value"] + 1e-7
    assert res["noninteractive"]["value"] <= res["upper_bound"]["value"] + 1e-7


def test_bounds_identity_channel(tmp_path):
    t = polytree_to_transceiver(Polytree(2, (edge(0, 1, np.eye(2)),)))
    path = write_model(tmp_path, t)
    proc = run_cli("bounds", path, "--A", "1,2", "--restarts", "2")
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    for key in ("noninteractive", "upper_bound"):
        assert doc["result"][key]["value"] == pytest.approx(1.0, abs=1e-6)


def test_bounds_constant_channel_zero(tmp_path):
    rows = np.tile(np.array([1.0, 0.0]), (2, 1))
    t = polytree_to_transceiver(Polytree(2, (edge(0, 1, rows),)))
    path = write_model(tmp_path, t)
    proc = run_cli("bounds", path, "--A", "1,2", "--restarts", "1")
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    assert doc["result"]["noninteractive"]["value"] == pytest.approx(0.0, abs=1e-9)
    assert doc["result"]["upper_bound"]["value"] == pytest.approx(0.0, abs=1e-7)


def test_polytree_path_and_non_tree_exit_2(tmp_path):
    path = write_model(tmp_path, bsc_path_polytree())
    proc = run_cli("polytree", path)
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    assert doc["result"]["capacity"]["value"] == pytest.approx(0.278071905113, abs=1e-8)

    bad = json.loads((tmp_path / "model.json").read_text())
    bad["edges"].append({"from": 3, "to": 1, "channel": [[1.0, 0.0], [0.0, 1.0]]})
    bad_path = tmp_path / "cycle.json"
    bad_path.write_text(json.dumps(bad))
    proc = run_cli("polytree", str(bad_path))
    assert proc.returncode == 2
    assert "not a tree" in proc.stderr


def test_polytree_wiretap_long_paths_exit_0(tmp_path):
    # the edge-cut bounds build no dense model, so path length is no limit
    want = binary_entropy(0.3) - binary_entropy(0.1)  # BSC(0.1) then BSC(0.25)
    for k in (12, 40):
        g = Polytree(
            k + 1,
            tuple(
                edge(i, i + 1, bsc_matrix(0.1), wiretap_rows=bsc_matrix(0.25))
                for i in range(k)
            ),
        )
        path = write_model(tmp_path, g, name=f"path{k}.json")
        start = time.monotonic()
        proc = run_cli("polytree", path, "--wiretap", "--restarts", "1")
        assert time.monotonic() - start < 30
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        doc = validate_schema(proc.stdout)
        assert doc["result"]["lower"]["value"] == pytest.approx(want, abs=1e-9)
        assert doc["result"]["upper"]["value"] == pytest.approx(want, abs=1e-9)


def test_transceiver_over_cell_cap_exit_2(tmp_path):
    # declared alphabets of 8192 x 4096 cells; refused before rows are read
    doc = {
        "kind": "transceiver", "terminals": 2,
        "inputs": [{"id": 0, "size": 8192, "terminal": 1},
                   {"id": 1, "size": 1, "terminal": 2}],
        "outputs": [{"id": 2, "size": 1, "terminal": 1},
                    {"id": 3, "size": 4096, "terminal": 2}],
        "rows": [],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))
    start = time.monotonic()
    proc = run_cli("bounds", str(path), "--A", "1,2")
    assert time.monotonic() - start < 30
    assert proc.returncode == 2, proc.stderr
    assert "channel has 33554432 cells, cap is 16777216" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_threads_must_be_positive(tmp_path):
    path = write_model(tmp_path, correlated_bits_source())
    proc = run_cli("validate", path, "--threads", "0")
    assert proc.returncode == 2
    assert "--threads" in proc.stderr
    assert run_cli("validate", path, "--threads", "3").returncode == 0


def test_polytree_wiretap_pair(tmp_path):
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.1), wiretap_rows=np.eye(2)),))
    path = write_model(tmp_path, g)
    proc = run_cli("polytree", path, "--wiretap", "--restarts", "2")
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    assert doc["result"]["lower"]["value"] == pytest.approx(0.0, abs=1e-8)
    assert doc["result"]["upper"]["value"] == pytest.approx(0.0, abs=1e-8)


def test_simulate_noiseless_and_csv(tmp_path):
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.0)),))
    path = write_model(tmp_path, g)
    csv_path = tmp_path / "blocks.csv"
    proc = run_cli(
        "simulate", path, "--n", "24", "--blocks", "40", "--rate", "1.0",
        "--delta", "0.5", "--s", "0", "--seed", "3", "--csv", str(csv_path),
    )
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    assert doc["result"]["eps_hat"] == 0.0
    assert doc["result"]["key_rate"] == 1.0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "block_id,decode_ok_1->2,agree"
    assert len(lines) == 41


def test_simulate_infeasible_rate_exit_5(tmp_path):
    # budget arithmetic: r = ceil(24 h(0.2) 1.25) = 22, so 24 - 22 - 8 < 0
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.2)),))
    path = write_model(tmp_path, g)
    proc = run_cli(
        "simulate", path, "--n", "24", "--blocks", "10", "--rate", "0.99",
        "--delta", "0.25", "--s", "8",
    )
    assert proc.returncode == 5
    err = json.loads(proc.stderr)
    assert err["max_feasible_rate"] == 0.0

    # same request on a clean channel: max = (24 - 9 - 8)/24 = 7/24
    g2 = Polytree(2, (edge(0, 1, bsc_matrix(0.05)),))
    path2 = write_model(tmp_path, g2, name="clean.json")
    proc = run_cli(
        "simulate", path2, "--n", "24", "--blocks", "10", "--rate", "0.99",
        "--delta", "0.25", "--s", "8",
    )
    assert proc.returncode == 5
    err = json.loads(proc.stderr)
    assert err["max_feasible_rate"] == pytest.approx(7 / 24)


def test_simulate_reports_capacity_alongside(tmp_path):
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.05)),))
    path = write_model(tmp_path, g)
    proc = run_cli(
        "simulate", path, "--n", "24", "--blocks", "50", "--rate", "0.2",
        "--delta", "0.5", "--s", "8", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    doc = validate_schema(proc.stdout)
    assert doc["result"]["noninteractive_capacity"] == pytest.approx(
        0.713603042884, abs=1e-8
    )
    assert doc["result"]["key_rate"] < doc["result"]["noninteractive_capacity"]


def test_validate_verb(tmp_path):
    path = write_model(tmp_path, bsc_path_polytree())
    proc = run_cli("validate", path)
    assert proc.returncode == 0
    doc = validate_schema(proc.stdout)
    assert doc["result"] == {"valid": True, "kind": "polytree"}


def test_seeded_commands_bit_reproducible(tmp_path):
    g = Polytree(3, (edge(0, 1, bsc_matrix(0.05)), edge(1, 2, bsc_matrix(0.05))))
    path = write_model(tmp_path, g)
    argv = [
        "simulate", path, "--n", "24", "--blocks", "120", "--rate", "0.2",
        "--delta", "0.5", "--s", "8", "--seed", "21",
    ]
    first = run_cli(*argv)
    second = run_cli(*argv)
    one_thread = run_cli(*argv, "--threads", "1")
    four_threads = run_cli(*argv, "--threads", "4")
    env_threads = run_cli(*argv, env={"SKACAP_THREADS": "4"})
    assert first.returncode == 0
    assert first.stdout == second.stdout
    outs = {first.stdout}
    for proc in (one_thread, four_threads):
        # --threads appears nowhere in the payload: identical output required
        assert proc.stdout == first.stdout
    assert env_threads.stdout == first.stdout


def test_import_leaves_scipy_stats_out():
    # scipy.stats is most of the start-up time; only a simulation needs it
    code = "import sys, skacap.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_polytree_ba_iteration_cap_exit_6(tmp_path):
    # Input 3's divergence from the optimal output law equals the capacity
    # (0.8 bit) while its optimal weight is 0, so Blahut-Arimoto's gap only
    # shrinks like 1/k^2: about 1e-10 at the 100,000-iteration cap.
    a = 0.15639185363452918
    rows = [[0.8, 0.2, 0.0], [0.0, 0.2, 0.8], [a, 1 - 2 * a, a]]
    doc = {"kind": "polytree", "terminals": 2,
           "edges": [{"from": 1, "to": 2, "channel": rows}]}
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("polytree", str(path), "--tol", "1e-12")
    assert proc.returncode == 6, proc.stderr
    assert "100000-iteration cap" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert run_cli("polytree", str(path), "--tol", "1e-6").returncode == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
@pytest.mark.parametrize("wiretap", [False, True], ids=["ba", "wiretap"])
def test_polytree_tol_must_be_positive_and_finite(tmp_path, tol, wiretap):
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.1), wiretap_rows=bsc_matrix(0.3)),))
    path = write_model(tmp_path, g)
    argv = ["polytree", path, f"--tol={tol}"] + (["--wiretap"] if wiretap else [])
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "tolerance must be positive and finite" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "transceiver_bsc.json", "--A", "1,2", "--grid", "0"],
        ["bounds", "transceiver_bsc.json", "--A", "1,2", "--seed", "-1"],
        ["simulate", "polytree_sim.json", "--n", "24", "--blocks", "4", "--rate", "inf"],
        ["simulate", "polytree_sim.json", "--n", "24", "--blocks", "4", "--rate", "0.2",
         "--delta", "inf"],
        ["simulate", "polytree_sim.json", "--n", "24", "--blocks", "4", "--rate", "0.2",
         "--delta", "nan"],
    ],
    ids=["grid-0", "seed-negative", "rate-inf", "delta-inf", "delta-nan"],
)
def test_bad_numeric_flags_exit_2(argv):
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    proc = run_cli(argv[0], str(samples / argv[1]), *argv[2:])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_exit_codes_match_cli():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Exit codes:", 1)[1].split("\n\n")[1]
    documented = {int(code) for code in re.findall(r"^\|\s*(\d+)\s*\|", table, re.M)}
    constants = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert documented == constants


def _parallel_edges_file(tmp_path):
    doc = {"kind": "polytree", "terminals": 2, "edges": [
        {"from": 1, "to": 2, "channel": [[1.0, 0.0], [0.0, 1.0]]},
        {"from": 2, "to": 1, "channel": [[1.0, 0.0], [0.0, 1.0]]},
    ]}
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["capacity", "source_bsc_pair.json", "--A", "1,2", "--D", "1"],
         "A and D intersect: terminals [1]"),
        (["simulate", "polytree_sim.json", "--A", "1,9", "--n", "24", "--blocks", "4",
          "--rate", "0.2"],
         "A references unknown terminals: [9]"),
        (["validate", None], "parallel edges between terminals (1, 2)"),
    ],
    ids=["a-d-intersect", "unknown-terminal", "parallel-edges"],
)
def test_terminal_numbers_in_errors_are_one_based(tmp_path, argv, message):
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    model = _parallel_edges_file(tmp_path) if argv[1] is None else str(samples / argv[1])
    proc = run_cli(argv[0], model, *argv[2:])
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
