import argparse
import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import child_env, run_skacap

from skacap import cli, linprog, omniscience, optimize, sim, transceiver
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


def test_capacity_dual_computes_the_subset_entropies_once(monkeypatch, capsys):
    calls = []

    def counted(model):
        calls.append(model)
        return source_entropies(model)

    source_entropies = omniscience.source_entropies
    monkeypatch.setattr(omniscience, "source_entropies", counted)
    monkeypatch.setattr(cli, "source_entropies", counted)
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    argv = ["capacity", str(samples / "source_three_terminals.json"), "--A", "1,2,3", "--dual"]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert set(result) == {"sk_capacity", "sk_capacity_dual"}


def test_each_full_solve_factors_once_and_each_spec_is_enumerated_once(
    monkeypatch, capsys, tmp_path
):
    # lp_solve hands its factors to the basis pool, which never factors
    # again; constraint_family enumerates each spec once per command
    factor, solve, family = linprog._factor, omniscience.lp_solve, omniscience.constraint_family
    factors, solves, specs = [], [], []

    def counted_factor(*args):
        factors.append(1)
        return factor(*args)

    def counted_solve(lp):
        solves.append(1)
        return solve(lp)

    def counted_family(spec):
        specs.append(spec)
        return family(spec)

    monkeypatch.setattr(linprog, "_factor", counted_factor)
    monkeypatch.setattr(omniscience, "lp_solve", counted_solve)
    for module in (cli, omniscience, transceiver):
        monkeypatch.setattr(module, "constraint_family", counted_family)
    rng = np.random.default_rng(12)
    pmf = JointPMF(tuple((i, Alphabet(2)) for i in range(4)), rng.dirichlet(np.ones(16)))
    path = write_model(tmp_path, SourceModel(pmf, tuple(frozenset({i}) for i in range(4))))
    t = polytree_to_transceiver(bsc_path_polytree())
    cfg = optimize.InputOptimizerConfig(restarts=4, seed=3)
    for run in (lambda: cli.main(["capacity", path, "--A", "1,2,4", "--dual"]),
                lambda: transceiver.sk_bounds(t, 0b111, cfg)):
        family.cache_clear()
        factors.clear(), solves.clear(), specs.clear()
        run()
        assert solves and len(factors) == len(solves)
        assert family.cache_info().misses == len(set(specs)) < len(specs)
    assert len(set(specs)) == 2  # the NI spec and the converse's 2m-terminal spec
    assert json.loads(capsys.readouterr().out)["result"]["sk_capacity_dual"]


@pytest.mark.parametrize("m", [26, 40])
def test_capacity_refuses_an_oversized_subset_entropy_table(m, tmp_path, capsys):
    # size-1 variables: a one-cell joint but 2^m subset entropies.  The
    # family over D^c = {1, 2} used to be found among all 2^m masks: 4.75 s
    # at m = 26 before a 549 MB table, and no end at m = 40
    doc = {"kind": "source", "terminals": m, "pmf": [1.0],
           "variables": [{"id": i, "size": 1, "owner": i + 1} for i in range(m)]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    d = ",".join(str(j) for j in range(3, m + 1))
    t0 = time.perf_counter()
    assert cli.main(["capacity", str(path), "--A", "1,2", "--D", d]) == cli.EXIT_MODEL
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert f"subset-entropy table has {1 << m} cells, cap is {1 << 24}" in err


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


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("polytree",),
    ("polytree", "--wiretap"),
    ("simulate", "--n", "8", "--blocks", "2", "--rate", "0.1"),
], ids=["validate", "polytree", "polytree-wiretap", "simulate"])
def test_one_terminal_polytree_exit_2(tmp_path, argv):
    # it used to pass validate and then end in a traceback (exit 1) in the solvers
    path = tmp_path / "one.json"
    path.write_text('{"kind": "polytree", "terminals": 1, "edges": []}')
    proc = run_cli(argv[0], str(path), *argv[1:])
    assert proc.returncode == 2
    assert "at least two terminals" in proc.stderr


def test_bounds_with_a_lone_key_terminal_exit_2():
    # it used to run the whole noninteractive search and then exit 3 on an
    # infeasible cover LP; now it is refused up front, in capacity's words
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    bounds = run_cli("bounds", str(samples / "transceiver_bsc.json"), "--A", "2")
    capacity = run_cli("capacity", str(samples / "source_bsc_pair.json"), "--A", "2")
    assert bounds.returncode == capacity.returncode == 2
    assert bounds.stdout == ""
    assert bounds.stderr == capacity.stderr
    assert "at least two terminals" in bounds.stderr


@pytest.mark.parametrize("sample,spoil,argv", [
    ("source_bsc_pair.json", lambda d: d["pmf"].__setitem__(1, float("nan")),
     ("capacity", "--A", "1,2")),
    ("transceiver_bsc.json", lambda d: d["rows"][0].__setitem__(0, float("nan")),
     ("bounds", "--A", "1,2")),
    ("polytree_path.json", lambda d: d["edges"][0]["channel"][0].__setitem__(0, float("nan")),
     ("polytree",)),
], ids=["source", "transceiver", "polytree"])
def test_non_finite_model_numbers_exit_2(tmp_path, sample, spoil, argv):
    # a NaN used to pass every check: a source ran to exit 4, a polytree to
    # the Blahut-Arimoto cap (exit 6)
    doc = json.loads((pathlib.Path(__file__).parents[1] / "sample_models" / sample).read_text())
    spoil(doc)
    path = tmp_path / sample
    path.write_text(json.dumps(doc))
    proc = run_cli(argv[0], str(path), *argv[1:])
    assert proc.returncode == 2, proc.stderr
    assert "expected finite numbers" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_simulate_unwritable_csv_exit_2_before_simulating(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(sim, "_run_blocks", lambda *args: ran.append(args))
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    rc = cli.main([
        "simulate", str(samples / "polytree_sim.json"), "--n", "16", "--blocks", "10",
        "--rate", "0.1", "--csv", str(tmp_path / "no_such_dir" / "x.csv"),
    ])
    assert rc == cli.EXIT_MODEL
    assert ran == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write CSV file: ")
    assert "no_such_dir" in err
    assert "Traceback" not in err


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


def test_polytree_tangent_edge_beside_a_weaker_edge_exit_0(tmp_path):
    # the tangent channel above, alone, exits 6 at --tol 1e-12; beside a
    # BSC(0.11) edge (0.5 bit) its value passes a bound on the minimum, so it
    # stops early, whichever edge comes first
    a = 0.15639185363452918
    tangent = [[0.8, 0.2, 0.0], [0.0, 0.2, 0.8], [a, 1 - 2 * a, a]]
    bsc = [[0.89, 0.11], [0.11, 0.89]]
    for first, second in ((tangent, bsc), (bsc, tangent)):
        doc = {"kind": "polytree", "terminals": 3,
               "edges": [{"from": 1, "to": 2, "channel": first},
                         {"from": 2, "to": 3, "channel": second}]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("polytree", str(path), "--tol", "1e-12")
        assert proc.returncode == 0, proc.stderr
        cap = validate_schema(proc.stdout)["result"]["capacity"]
        assert cap["kind"] == "exact"
        assert cap["value"] == pytest.approx(1 - binary_entropy(0.11), abs=1e-12)
        stops = [e["stopped"] for e in cap["witness"]["edges"]]
        assert stops == (["bound", "gap"] if first is tangent else ["gap", "bound"])


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


def test_bounds_grid_below_two_is_refused_by_name():
    # a grid step of 1/1 lies past every simplex midpoint: the parser
    # refuses it in the flag's own terms, before a config is built
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    proc = run_cli("bounds", str(samples / "transceiver_bsc.json"), "--A", "1,2", "--grid", "1")
    assert proc.returncode == 2, proc.stderr
    assert "argument --grid: expected an integer >= 2, got '1'" in proc.stderr
    assert "grid_resolution" not in proc.stderr


def test_simulate_blocks_past_the_cap_exit_2():
    # refused by SimConfig, before a decode table is built or a block drawn
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    proc = run_cli("simulate", str(samples / "polytree_sim.json"), "--n", "24",
                   "--blocks", str(2**32 + 1), "--rate", "0.2")
    assert proc.returncode == 2, proc.stderr
    assert str(2**32) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bounds_restarts_past_the_cap_exit_2():
    # refused by InputOptimizerConfig, before a restart is spawned: 3e7
    # seed sequences used to end in a MemoryError under a 1 GB limit
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    proc = run_cli("bounds", str(samples / "transceiver_bsc.json"), "--A", "1,2",
                   "--restarts", "30000000")
    assert proc.returncode == 2, proc.stderr
    assert str(optimize.MAX_RESTARTS) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_exit_codes_match_cli():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Exit codes:", 1)[1].split("\n\n")[1]
    documented = {int(code) for code in re.findall(r"^\|\s*(\d+)\s*\|", table, re.M)}
    constants = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert documented == constants


def test_readme_exit_2_row_covers_usage_and_csv_errors(tmp_path, capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Exit codes:", 1)[1].split("\n\n")[1]
    row = re.search(r"^\|\s*2\s*\|(.*)$", table, re.M).group(1)
    assert "usage error" in row
    assert "`--csv`" in row
    with pytest.raises(SystemExit) as usage:
        cli.main(["validate"])
    assert usage.value.code == cli.EXIT_MODEL
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    argv = ["simulate", str(samples / "polytree_sim.json"), "--n", "16", "--blocks", "1",
            "--rate", "0.1", "--csv", str(tmp_path)]  # a directory
    assert cli.main(argv) == cli.EXIT_MODEL


# The front end: main() builds only the named verb's parser, and falls back
# to the full parser when argv does not start with a verb, has arguments the
# verb does not know, or has an argument starting with "--=".  Both must give
# the same namespaces, bytes and exit codes.

def _outcome(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _subparser(parser, verb):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[verb]


def _echo(args):
    return args


@pytest.fixture
def echo_handlers(monkeypatch):
    """Every verb's handler returns its namespace, so main returns what it parsed."""
    monkeypatch.setattr(cli, "VERBS", {
        name: (help_line, add_args, _echo) for name, (help_line, add_args, _) in cli.VERBS.items()
    })


def _counting_parsers(monkeypatch):
    """The prog of every ArgumentParser built from now on, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


_SAMPLE_ARGV = {
    "capacity": ["--A", "1,2", "--D", "3", "--dual"],
    "bounds": ["--A", "1,2", "--restarts", "2", "--seed", "5", "--grid", "4"],
    "polytree": ["--wiretap", "--tol", "1e-6"],
    "simulate": ["--n", "16", "--blocks", "2", "--rate", "0.1", "--csv", "x.csv"],
    "validate": ["--threads", "2"],
}


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_main_builds_only_the_named_verbs_parser(verb, tmp_path, monkeypatch, capsys):
    full_dests = [a.dest for a in _subparser(cli.build_parser(), verb)._actions]
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def recording_add_argument(self, *args, **kwargs):
        action = add_argument(self, *args, **kwargs)
        added.append((self.prog, action.dest))
        return action

    built = _counting_parsers(monkeypatch)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording_add_argument)
    code, _, err = _outcome(capsys, lambda: cli.main(
        [verb, str(tmp_path / "missing.json"), *_SAMPLE_ARGV[verb]]
    ))
    assert code == cli.EXIT_MODEL
    assert err.startswith("error: cannot read model file")
    assert built == [f"skacap {verb}"]
    assert [dest for prog, dest in added if prog == f"skacap {verb}"] == full_dests
    assert {prog for prog, _ in added} == {f"skacap {verb}"}


@pytest.mark.parametrize("argv", [
    ["bounds", "m.json", "--A", "1,2"],
    ["capacity", "-h"],
    ["validate"],
    ["bounds", "m.json", "--A", "1,2", "--grid", "1"],
    ["polytree", "m.json", "--t", "1e-6"],
    ["simulate", "--n", "16", "--blocks", "2", "--rate", "0.1", "--", "m.json"],
], ids=lambda argv: " ".join(argv))
def test_a_known_verb_builds_exactly_one_parser(argv, echo_handlers, monkeypatch, capsys):
    built = _counting_parsers(monkeypatch)
    _outcome(capsys, lambda: cli.main(argv))
    assert built == [f"skacap {argv[0]}"]


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_one_verb_parser_gives_the_full_parsers_namespace(verb):
    argv = [verb, "m.json", *_SAMPLE_ARGV[verb]]
    lean = vars(cli._parse(argv))
    assert lean == vars(cli.build_parser().parse_args(argv))
    assert lean["verb"] == verb


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["--help"],
        ["--version"],
        ["--version", "capacity"],
        *([verb, "-h"] for verb in cli.VERBS),
        ["frobnicate", "m.json"],
        [],
        ["capacity", "m.json"],
        ["validate"],
        ["simulate", "m.json", "--n", "16", "--blocks", "2"],
        ["capacity", "m.json", "--A", "1,2", "--bogus"],
        ["validate", "m.json", "extra"],
        ["validate", "m.json", "--threads", "0"],
        ["bounds", "m.json", "--A", "1,2", "--grid", "x"],
        # "--" forms
        ["--", "bounds", "m.json", "--A", "1,2"],
        ["bounds", "--", "m.json", "--A", "1,2"],
        ["bounds", "--A", "1,2", "--", "m.json"],
        ["bounds", "m.json", "--A", "1,2", "--"],
        ["bounds", "m.json", "--", "--A", "1,2"],
        ["validate", "--", "-m.json"],
        # abbreviations, one of them ambiguous
        ["capacity", "m.json", "--A", "1,2", "--du"],
        ["bounds", "m.json", "--A", "1,2", "--res", "3"],
        ["polytree", "m.json", "--t", "1e-6"],
        # --version after a verb is not the verb's option
        ["capacity", "m.json", "--A", "1,2", "--version"],
        ["bounds", "m.json", "--A", "1,2", "--vers"],
        ["validate", "--version"],
        # repeated options: the last one wins
        ["bounds", "m.json", "--A", "1", "--A=1,2", "--restarts", "2", "--restarts", "3"],
        # options before the model
        ["bounds", "--A", "1,2", "--grid", "3", "m.json"],
        ["simulate", "--n", "16", "--blocks", "2", "--rate", "0.1", "m.json"],
        # -h after other arguments, also after an unknown one
        ["bounds", "m.json", "--A", "1,2", "-h"],
        ["capacity", "m.json", "--bogus", "-h"],
        ["validate", "m.json", "extra", "--help"],
        ["bounds", "m.json", "--A", "1,2", "--grid", "1"],
        # the top-level parser refuses "--=" as ambiguous before the verb's parser runs
        ["validate", "m.json", "--=x"],
        ["capacity", "-h", "--="],
    ],
    ids=lambda argv: " ".join(argv) or "no-verb",
)
def test_main_parses_like_the_full_parser(argv, echo_handlers, capsys):
    want = _outcome(capsys, lambda: cli.build_parser().parse_args(argv))
    assert _outcome(capsys, lambda: cli.main(argv)) == want


_TOKENS = [
    *cli.VERBS, "m.json", "1,2", "3", "-1", "1e-6", "x", "-", "--", "---", "-h", "--help", "--he",
    "-hx", "--version", "--vers", "--v", "--=x", "--=", "--bogus", "-x", "--A", "--A=1", "--D",
    "--d", "--dual", "--du", "--restarts", "--res", "--r", "--seed", "--grid", "--grid=1",
    "--tol", "--t", "--wiretap", "--threads", "--th", "--threads=0", "--n", "--blocks",
    "--rate", "--delta", "--s", "--csv", "--help=1", "--vers=1",
]


def _parsed(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(cli.VERBS)), st.lists(st.sampled_from(_TOKENS), max_size=7))
def test_one_verb_parse_equals_the_full_parse_on_random_lines(verb, rest):
    argv = [verb, *rest]
    want = _parsed(cli.build_parser().parse_args, argv)
    assert _parsed(cli._parse, argv) == want


@pytest.mark.parametrize(
    "argv",
    [["capacity", "m.json", "--A", "1,2", "--bogus"], ["validate", "-h"], ["--version"], []],
    ids=["unrecognized", "verb-help", "version", "no-verb"],
)
def test_main_without_argv_reads_sys_argv(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["skacap", *argv])
    want = _outcome(capsys, lambda: cli.build_parser().parse_args(None))
    assert _outcome(capsys, lambda: cli.main(None)) == want
    assert want[0] in (0, 2)


def _round12(obj):
    """The report's rounding as its own walk: the reference for the writer."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e-310,
                     -2.2250738585072014e-308, 1e16, 12345678901234567.0, 1e22, 1.7e308]),
    st.floats(min_value=1e16, max_value=1e308),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
)
_LEAVES = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é€😀\u2028", "\"quoted\""]),
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), kids, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_report_writer_equals_json_dumps_of_the_rounded_report(obj):
    assert cli._json(obj) == json.dumps(_round12(obj), sort_keys=True, indent=2)


@pytest.mark.parametrize("n, rate, max_rate", [("24", "0.99", 7 / 24), ("8", "0.1", None)],
                         ids=["rate-past-the-budget", "no-key-bit"])
def test_rate_infeasible_stderr_is_the_compact_json_line(n, rate, max_rate, tmp_path, capsys):
    path = write_model(tmp_path, Polytree(2, (edge(0, 1, bsc_matrix(0.05)),)))
    code = cli.main(["simulate", path, "--n", n, "--blocks", "10", "--rate", rate])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_RATE and out == ""
    msg = json.loads(err)
    assert msg["max_feasible_rate"] == (None if max_rate is None else pytest.approx(max_rate))
    assert err == json.dumps(_round12(msg)) + "\n"
    assert list(msg) == ["error", "max_feasible_rate"]


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
        (["capacity", "source_three_terminals.json", "--A", "1,2", "--D", "3,9,12"],
         "D references unknown terminals: [9, 12]"),
        (["validate", None], "parallel edges between terminals (1, 2)"),
    ],
    ids=["a-d-intersect", "unknown-terminal", "unknown-compromised-terminal", "parallel-edges"],
)
def test_terminal_numbers_in_errors_are_one_based(tmp_path, argv, message):
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    model = _parallel_edges_file(tmp_path) if argv[1] is None else str(samples / argv[1])
    proc = run_cli(argv[0], model, *argv[2:])
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("a, message", [
    ("1,9", "A references unknown terminals: [9]"),
    ("1", "key agreement needs at least two terminals in A (a lone terminal has no counterpart)"),
], ids=["unknown-terminal", "lone-terminal"])
def test_verbs_refuse_a_bad_key_set_in_one_wording(a, message):
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    procs = [
        run_cli("capacity", str(samples / "source_three_terminals.json"), "--A", a),
        run_cli("bounds", str(samples / "transceiver_bsc.json"), "--A", a),
        run_cli("simulate", str(samples / "polytree_sim.json"), "--A", a,
                "--n", "16", "--blocks", "10", "--rate", "0.1"),
    ]
    assert [p.returncode for p in procs] == [2, 2, 2]
    assert {p.stderr for p in procs} == {f"error: {message}\n"}


HUGE_TERMINAL_LISTS = [
    ("capacity", "source_bsc_pair.json", "--A", "1,400000001"),
    ("capacity", "source_bsc_pair.json", "--A", "1,100000000001"),
    ("capacity", "source_bsc_pair.json", "--A", "1", "--D", "100000000001"),
    ("bounds", "transceiver_bsc.json", "--A", "1,100000000001"),
    ("simulate", "polytree_sim.json", "--n", "16", "--blocks", "10", "--rate", "0.1",
     "--A", "1,3000001"),
]


@pytest.mark.parametrize("argv", HUGE_TERMINAL_LISTS,
                         ids=["capacity-A", "capacity-A-1e11", "capacity-D", "bounds", "simulate"])
def test_terminal_numbers_past_m_exit_2_at_once(argv):
    # a terminal number used to become a bitmask as wide as itself: hundreds
    # of MB, a MemoryError traceback, or (simulate) minutes of bit shifting
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    t0 = time.perf_counter()
    assert cli.main([argv[0], str(samples / argv[1]), *argv[2:]]) == cli.EXIT_MODEL
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("doc, message", [
    ({"kind": "source", "terminals": 500000,
      "variables": [{"id": 0, "size": 2, "owner": 1}, {"id": 1, "size": 2, "owner": 2}],
      "pmf": [0.5, 0.0, 0.0, 0.5]}, "only 2 variables"),
    ({"kind": "transceiver", "terminals": 500000,
      "inputs": [{"id": 0, "size": 2, "terminal": 1}, {"id": 1, "size": 1, "terminal": 2}],
      "outputs": [{"id": 2, "size": 1, "terminal": 1}, {"id": 3, "size": 2, "terminal": 2}],
      "rows": [[1.0, 0.0], [0.0, 1.0]]}, "only 2 inputs"),
    ({"kind": "polytree", "terminals": 3000000,
      "edges": [{"from": 1, "to": 2, "channel": [[0.9, 0.1], [0.1, 0.9]]}]},
     "a tree on 1 edges has only 2"),
], ids=["source", "transceiver", "polytree"])
def test_more_terminals_than_the_file_gives_exit_2(tmp_path, doc, message, capsys):
    # per-terminal tables used to be built first: 150-300 MB at these counts
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert cli.main(["validate", str(path)]) == cli.EXIT_MODEL
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "$.terminals" in err and message in err


def test_capacity_dual_with_d_exit_2(capsys):
    # --dual cross-checks the SK capacity; with --D it used to exit 0 with
    # "dual": true in the config and no dual report
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    argv = ["capacity", str(samples / "source_three_terminals.json"),
            "--A", "1,2", "--D", "3", "--dual"]
    assert cli.main(argv) == cli.EXIT_MODEL
    out, err = capsys.readouterr()
    assert out == ""
    assert "--dual" in err and "--D" in err


def test_capacity_exits_3_on_a_failed_certificate(monkeypatch, capsys):
    # a simplex that stops at once leaves the surplus basis, which is not
    # dual feasible for h > 0: the certificate refuses it
    monkeypatch.setattr(linprog, "_simplex", lambda tab, obj, basis, cap: 0)
    samples = pathlib.Path(__file__).parents[1] / "sample_models"
    argv = ["capacity", str(samples / "source_bsc_pair.json"), "--A", "1,2"]
    assert cli.main(argv) == cli.EXIT_LP
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("LP failure:") and "certificate" in err
