"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Thresholds for the Monte-Carlo simulator come from the committed pilot
registration (tests/data/pilot_registration.json, regenerated by
scripts/pilot.py); everything else is pinned analytically.
"""

import json
import pathlib
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import run_skacap

from skacap import optimize
from skacap.models import (
    PartySpec,
    Polytree,
    PolytreeEdge,
    SourceModel,
    TransceiverModel,
    edge,
    emulated_to_source,
    polytree_to_transceiver,
)
from skacap.modelio import serialize_model
from skacap.omniscience import sk_capacity, pk_capacity, sk_capacity_dual
from skacap.optimize import InputOptimizerConfig
from skacap.polytree import polytree_capacity
from skacap.prob import (
    Alphabet,
    Dmc,
    JointPMF,
    bec_matrix,
    binary_entropy,
    bsc_matrix,
    mutual_information,
    product_pmf,
)
from skacap.sim import SimConfig, run_sim
from skacap.transceiver import sk_bounds, wsk_upper_by_pk

DATA = pathlib.Path(__file__).parent / "data"
B = Alphabet(2)


@contextmanager
def criterion(num, desc):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    else:
        print(f"PASS criterion {num}: {desc} ({time.monotonic() - start:.1f}s)")


def one_var_per_terminal(flat, sizes):
    vl = tuple((i, Alphabet(int(s))) for i, s in enumerate(sizes))
    pmf = JointPMF(vl, np.asarray(flat, dtype=float))
    return SourceModel(pmf, tuple(frozenset({i}) for i in range(len(sizes))))


def test_criterion_1_two_terminal_oracle():
    with criterion(1, "two-terminal SK capacity equals I(X1;X2) on 200 random PMFs"):
        start = time.monotonic()
        rng = np.random.default_rng(1001)
        for _ in range(200):
            s1, s2 = (int(x) for x in rng.integers(2, 5, size=2))
            model = one_var_per_terminal(rng.dirichlet(np.ones(s1 * s2)), (s1, s2))
            got = sk_capacity(model, {0, 1}).value
            want = mutual_information(model.pmf, {0}, {1})
            assert got == pytest.approx(want, abs=1e-8)
        assert time.monotonic() - start < 5.0


def test_criterion_2_primal_dual():
    with criterion(2, "primal and dual SK capacity agree on 100 random models"):
        start = time.monotonic()
        rng = np.random.default_rng(1002)
        for _ in range(100):
            m = int(rng.integers(3, 6))
            model = one_var_per_terminal(rng.dirichlet(np.ones(2**m)), (2,) * m)
            a = set(rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False).tolist())
            p = sk_capacity(model, a).value
            d = sk_capacity_dual(model, a).value
            assert p == pytest.approx(d, abs=1e-7)
        assert time.monotonic() - start < 60.0


def test_criterion_3_pk_reduction():
    with criterion(3, "PK capacity reduction for independent / known X3"):
        spec = PartySpec.from_one_based(3, [1, 2], [3])
        pair = np.array([0.5, 0.0, 0.0, 0.5]).reshape(2, 2)
        indep = (pair[:, :, None] * np.array([0.5, 0.5])[None, None, :]).ravel()
        model = one_var_per_terminal(indep, (2, 2, 2))
        assert pk_capacity(model, spec).value == pytest.approx(1.0, abs=1e-9)

        copy = np.zeros(8)
        copy[0b000] = 0.5
        copy[0b111] = 0.5
        model = one_var_per_terminal(copy, (2, 2, 2))
        assert pk_capacity(model, spec).value == pytest.approx(0.0, abs=1e-9)


def test_criterion_4_blahut_arimoto():
    with criterion(4, "Blahut-Arimoto matches analytic BSC/BEC capacities"):
        start = time.monotonic()
        for p in (0.05, 0.11, 0.2, 0.35, 0.5):
            got = polytree_capacity(Polytree(2, (edge(0, 1, bsc_matrix(p)),)), tol=1e-9).value
            assert got == pytest.approx(1 - binary_entropy(p), abs=1e-8)
        bec = Polytree(2, (edge(0, 1, bec_matrix(0.3)),))
        assert polytree_capacity(bec, tol=1e-9).value == pytest.approx(0.7, abs=1e-8)
        assert time.monotonic() - start < 1.0


def random_binary_edge(rng):
    # asymmetric binary channels with separated rows so BA converges briskly
    while True:
        a, b = rng.uniform(0.02, 0.45, size=2)
        if abs(1 - a - b) >= 0.05:
            return np.array([[1 - a, a], [b, 1 - b]])


def random_polytree(rng, n_nodes):
    edges = []
    for j in range(1, n_nodes):
        other = int(rng.integers(0, j))
        rows = random_binary_edge(rng)
        edges.append(edge(other, j, rows) if rng.random() < 0.5 else edge(j, other, rows))
    return Polytree(n_nodes, tuple(edges))


def test_criterion_5_polytree_decomposition(monkeypatch):
    monkeypatch.setattr(optimize, "ASCENT_SWEEPS", 10)
    with criterion(5, "polytree capacity = min edge BA = transceiver optimizer"):
        start = time.monotonic()
        rng = np.random.default_rng(1005)
        for trial in range(20):
            n_nodes = int(rng.integers(2, 6))
            g = random_polytree(rng, n_nodes)
            rep = polytree_capacity(g, tol=1e-9)
            per_edge = [
                polytree_capacity(Polytree(2, (PolytreeEdge(0, 1, e.channel),)), tol=1e-9).value
                for e in g.edges
            ]
            assert rep.value == min(per_edge)  # bit-identical: same code path
            t = polytree_to_transceiver(g)
            cfg = InputOptimizerConfig(restarts=2, seed=trial)
            ni = __import__("skacap.transceiver", fromlist=["noninteractive_sk_capacity"])
            got = ni.noninteractive_sk_capacity(t, (1 << g.m) - 1, cfg)
            assert got.value == pytest.approx(rep.value, abs=1e-4)
        assert time.monotonic() - start < 120.0


def random_transceiver(rng, m):
    in_vars = tuple((j, B) for j in range(m))
    out_vars = tuple((m + j, B) for j in range(m))
    rows = rng.dirichlet(np.ones(2**m), size=2**m)
    return TransceiverModel(
        m=m,
        input_vars=tuple((j,) for j in range(m)),
        output_vars=tuple((m + j,) for j in range(m)),
        channel=Dmc(in_vars, out_vars, rows),
    )


def test_criterion_6_sandwich(monkeypatch):
    monkeypatch.setattr(optimize, "ASCENT_SWEEPS", 10)
    with criterion(6, "emulation lower <= noninteractive <= lambda upper on 50 models"):
        start = time.monotonic()
        rng = np.random.default_rng(1006)
        cfg = InputOptimizerConfig(restarts=2, seed=6)
        for trial in range(50):
            m = 2 if trial % 2 == 0 else 3
            t = random_transceiver(rng, m)
            # grid-aligned random product inputs (multiples of 1/8)
            extra = []
            for _ in range(2):
                vecs = []
                for _j in range(m):
                    k = int(rng.integers(1, 8))
                    vecs.append(np.array([k / 8, 1 - k / 8]))
                extra.append(vecs)
            out = sk_bounds(t, (1 << m) - 1, cfg)
            ni = out["noninteractive"].value
            up = out["upper_bound"].value
            # the lower bound at the uniform input, and the NI objective at
            # each grid-aligned input by the emulated source's SK capacity
            lowers = [r.value for r in out["lower_bounds"]]
            for vecs in extra:
                p_in = product_pmf([JointPMF(((j, B),), v) for j, v in enumerate(vecs)])
                src = emulated_to_source(t, p_in)
                lowers.append(sk_capacity(src, (1 << m) - 1).value)
            assert max(lowers) <= ni + 1e-7
            assert ni <= up + 1e-7
        assert time.monotonic() - start < 600.0


def test_criterion_7_wiretap_closed_form():
    with criterion(7, "wsk upper bound equals I(X1;X2|Z) on 50 Markov chains"):
        rng = np.random.default_rng(1007)
        for _ in range(50):
            p, q = rng.uniform(0.02, 0.48, size=2)
            w1, w2 = bsc_matrix(p), bsc_matrix(q)
            px = rng.dirichlet(np.ones(2))
            joint = np.zeros((2, 2, 2))
            for x1 in range(2):
                for x2 in range(2):
                    for z in range(2):
                        joint[x1, x2, z] = px[x1] * w1[x1, x2] * w2[x2, z]
            pmf = JointPMF(((0, B), (1, B), (2, B)), joint.ravel())
            model = SourceModel(pmf, (frozenset({0}), frozenset({1})), eve_var=2)
            got = wsk_upper_by_pk(model, {0, 1}).value
            want = mutual_information(pmf, {0}, {1}, {2})
            assert got == pytest.approx(want, abs=1e-8)


def test_criterion_8_simulator_reliability():
    with criterion(8, "simulator reliability within the pre-registered pilot threshold"):
        start = time.monotonic()
        reg = json.loads((DATA / "pilot_registration.json").read_text())["single_bsc05"]
        p = reg["config"]
        g = Polytree(2, (edge(0, 1, bsc_matrix(0.05)),))
        cfg = SimConfig(
            n=p["n"], blocks=p["blocks"], rate=p["rate"],
            recon_margin=p["delta"], pa_margin=p["s"], seed=p["seed"],
        )
        res = run_sim(g, {0, 1}, cfg)
        assert res.eps_hat <= reg["registered_eps_threshold"]
        assert res.eps_hat == pytest.approx(reg["observed_eps"], abs=1e-12)
        assert res.key_rate > 0
        cap = polytree_capacity(g).value
        assert res.key_rate < cap
        assert time.monotonic() - start < 120.0


def test_criterion_9_noninteractive_transcripts():
    with criterion(9, "transcripts have one message per terminal, after all rounds"):
        topologies = [
            Polytree(2, (edge(0, 1, bsc_matrix(0.05)),)),
            Polytree(3, (edge(0, 1, bsc_matrix(0.05)), edge(1, 2, bsc_matrix(0.05)))),
            Polytree(
                4,
                (
                    edge(0, 1, bsc_matrix(0.02)),
                    edge(0, 2, bsc_matrix(0.05)),
                    edge(3, 0, bsc_matrix(0.02)),
                ),
            ),
            Polytree(
                5,
                (
                    edge(0, 1, bsc_matrix(0.02)),
                    edge(1, 2, bsc_matrix(0.02)),
                    edge(2, 3, bsc_matrix(0.02)),
                    edge(2, 4, bsc_matrix(0.02)),
                ),
            ),
        ]
        for g in topologies:
            cfg = SimConfig(n=16, blocks=3, rate=1 / 16, recon_margin=0.5,
                            pa_margin=4, seed=4)
            res = run_sim(g, set(range(g.m)), cfg)
            tr = res.transcript
            assert len(tr.messages) == g.m
            assert sorted(m.terminal for m in tr.messages) == list(range(g.m))
            for msg in tr.messages:
                assert msg.emitted_after_round == cfg.n


def _run_cli(*argv):
    return run_skacap(*argv)


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "seeded commands are bit-identical across runs and threads"):
        src = one_var_per_terminal([0.5, 0.0, 0.0, 0.5], (2, 2))
        src_path = tmp_path / "src.json"
        src_path.write_bytes(serialize_model(src))
        g = Polytree(3, (edge(0, 1, bsc_matrix(0.05)), edge(1, 2, bsc_matrix(0.05))))
        tree_path = tmp_path / "tree.json"
        tree_path.write_bytes(serialize_model(g))
        t = polytree_to_transceiver(Polytree(2, (edge(0, 1, bsc_matrix(0.11)),)))
        tx_path = tmp_path / "tx.json"
        tx_path.write_bytes(serialize_model(t))

        commands = [
            ["capacity", str(src_path), "--A", "1,2", "--dual"],
            ["polytree", str(tree_path)],
            ["bounds", str(tx_path), "--A", "1,2", "--restarts", "2", "--seed", "9"],
            [
                "simulate", str(tree_path), "--n", "24", "--blocks", "60",
                "--rate", "0.125", "--delta", "0.5", "--s", "8", "--seed", "17",
            ],
        ]
        for argv in commands:
            runs = [
                _run_cli(*argv),
                _run_cli(*argv),
                _run_cli(*argv, "--threads", "1"),
                _run_cli(*argv, "--threads", "4"),
            ]
            for proc in runs:
                assert proc.returncode == 0, proc.stderr
            outs = {proc.stdout for proc in runs}
            assert len(outs) == 1
