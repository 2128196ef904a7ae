import csv
import io
import json
import math
import pathlib
import subprocess
import sys
import types
from itertools import combinations

import numpy as np
import pytest
from conftest import child_env
from scipy import stats

from skacap import sim
from skacap.errors import DecodeBudgetError, ModelError, RateInfeasibleError
from skacap.models import Polytree, edge
from skacap.prob import binary_entropy, bsc_matrix
from skacap.sim import (
    SimConfig,
    parity_count,
    propagate_group_key,
    run_sim,
    weight_cap,
)

DATA = pathlib.Path(__file__).parent / "data"


def single_edge(p=0.05):
    return Polytree(2, (edge(0, 1, bsc_matrix(p)),))


def load_registration():
    return json.loads((DATA / "pilot_registration.json").read_text())


def test_parity_count_arithmetic():
    # r = ceil(24 * h(0.05) * 1.5) = ceil(10.31) = 11
    assert binary_entropy(0.05) == pytest.approx(0.28640, abs=5e-6)
    assert parity_count(24, 0.05, 0.5) == 11
    assert parity_count(24, 0.0, 0.5) == 0
    assert weight_cap(24, 0.05) == 5


def test_reconcile_noiseless_zero_parities():
    bits = np.random.default_rng(0).integers(0, 2, size=24, dtype=np.uint8)
    code = sim._build_code(24, 0.0, 0.5, sim._rng(3, sim._NS_CODE, 0))
    e_hat, found = sim._decode(code, bits ^ bits)
    assert code.h.shape[0] == 0
    assert found
    np.testing.assert_array_equal(bits ^ e_hat, bits)


def test_reconcile_zero_error_block():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=24, dtype=np.uint8)
    code = sim._build_code(24, 0.05, 0.5, sim._rng(3, sim._NS_CODE, 0))
    e_hat, found = sim._decode(code, bits ^ bits)
    assert code.h.shape[0] == 11
    assert found
    np.testing.assert_array_equal(bits ^ e_hat, bits)


def test_reconcile_corrects_low_weight_errors():
    rng = np.random.default_rng(2)
    hits = 0
    for trial in range(50):
        sender = rng.integers(0, 2, size=24, dtype=np.uint8)
        noise = (rng.random(24) < 0.05).astype(np.uint8)
        code = sim._build_code(24, 0.05, 0.5, sim._rng(trial, sim._NS_CODE, 0))
        e_hat, _ = sim._decode(code, noise)  # the syndrome difference is that of the noise
        if np.array_equal((sender ^ noise) ^ e_hat, sender):
            hits += 1
    assert hits >= 40  # most blocks decode correctly at this noise level


def test_propagate_group_key_two_nodes():
    kl = 5
    rng = np.random.default_rng(5)
    root_key = rng.integers(0, 2, size=kl, dtype=np.uint8)
    ek = {(0, 0): root_key, (0, 1): root_key}
    keys, masks = propagate_group_key([(0, 1, 0)], ek, 0, root_key)
    np.testing.assert_array_equal(keys[1], root_key)
    np.testing.assert_array_equal(masks[0], np.zeros(kl, dtype=np.uint8))


def test_propagate_group_key_star_and_failure():
    kl = 4
    rng = np.random.default_rng(6)
    root_key = rng.integers(0, 2, size=kl, dtype=np.uint8)
    pair0 = rng.integers(0, 2, size=kl, dtype=np.uint8)
    pair1 = rng.integers(0, 2, size=kl, dtype=np.uint8)
    bad = pair1 ^ np.array([1, 0, 0, 0], dtype=np.uint8)
    ek = {(0, 0): pair0, (0, 1): pair0, (1, 0): pair1, (1, 2): bad}
    keys, masks = propagate_group_key([(0, 1, 0), (0, 2, 1)], ek, 0, root_key)
    np.testing.assert_array_equal(keys[1], root_key)
    assert not np.array_equal(keys[2], root_key)  # corrupted edge key propagates
    # masks are root_key xor edge_key
    np.testing.assert_array_equal(masks[0], root_key ^ pair0)


def test_propagate_group_key_length_mismatch():
    root_key = np.ones(5, dtype=np.uint8)
    ek = {(0, 0): np.ones(3, dtype=np.uint8), (0, 1): np.ones(3, dtype=np.uint8)}
    with pytest.raises(ModelError):
        propagate_group_key([(0, 1, 0)], ek, 0, root_key)


def test_run_sim_noiseless_edge_full_rate():
    g = single_edge(0.0)
    cfg = SimConfig(n=64, blocks=50, rate=1.0, recon_margin=0.5, pa_margin=0, seed=1)
    with pytest.raises(DecodeBudgetError):
        run_sim(g, {0, 1}, cfg)  # n = 64 exceeds the exhaustive decoder cap
    cfg = SimConfig(n=24, blocks=50, rate=1.0, recon_margin=0.5, pa_margin=0, seed=1)
    res = run_sim(g, {0, 1}, cfg)
    assert res.eps_hat == 0.0
    assert res.key_rate == 1.0


def test_run_sim_rate_infeasible_reports_max():
    g = single_edge(0.2)
    cfg = SimConfig(n=24, blocks=10, rate=0.99, recon_margin=0.25, pa_margin=8, seed=0)
    with pytest.raises(RateInfeasibleError) as exc:
        run_sim(g, {0, 1}, cfg)
    # n minus the edge's parities minus the privacy-amplification margin, per use
    assert exc.value.max_feasible_rate == pytest.approx(
        max(24 - parity_count(24, 0.2, 0.25) - 8, 0) / 24
    )


@pytest.mark.parametrize(
    "a, message",
    [({0, 9}, r"unknown terminals: \[10\]"), (set(), "at least two"), ({0}, "at least two")],
    ids=["unknown", "empty", "single"],
)
def test_max_feasible_rate_refuses_a_bad_terminal_set(a, message):
    g = single_edge(0.05)
    cfg = SimConfig(n=24, blocks=10, rate=0.25, recon_margin=0.5, pa_margin=2, seed=0)
    with pytest.raises(ModelError, match=message):
        run_sim(g, a, cfg)


def test_run_sim_matches_pilot_registration():
    reg = load_registration()["single_bsc05"]
    p = reg["config"]
    g = single_edge(0.05)
    cfg = SimConfig(
        n=p["n"], blocks=p["blocks"], rate=p["rate"],
        recon_margin=p["delta"], pa_margin=p["s"], seed=p["seed"],
    )
    res = run_sim(g, {0, 1}, cfg)
    assert res.eps_hat == pytest.approx(reg["observed_eps"], abs=1e-12)
    assert res.eps_hat <= reg["registered_eps_threshold"]


def test_run_sim_path_pilot_registration():
    reg = load_registration()["path_two_bsc05"]
    p = reg["config"]
    g = Polytree(3, (edge(0, 1, bsc_matrix(0.05)), edge(1, 2, bsc_matrix(0.05))))
    cfg = SimConfig(
        n=p["n"], blocks=p["blocks"], rate=p["rate"],
        recon_margin=p["delta"], pa_margin=p["s"], seed=p["seed"],
    )
    res = run_sim(g, {0, 1, 2}, cfg)
    assert res.eps_hat == pytest.approx(reg["observed_eps"], abs=1e-12)
    assert res.eps_hat <= reg["registered_eps_threshold"]


def test_transcript_noninteractive_structure():
    topologies = [
        (single_edge(0.05), {0, 1}),
        (
            Polytree(3, (edge(0, 1, bsc_matrix(0.05)), edge(1, 2, bsc_matrix(0.05)))),
            {0, 1, 2},
        ),
        (
            Polytree(
                4,
                (
                    edge(0, 1, bsc_matrix(0.02)),
                    edge(0, 2, bsc_matrix(0.02)),
                    edge(3, 0, bsc_matrix(0.02)),
                ),
            ),
            {0, 1, 2, 3},
        ),
    ]
    for g, a in topologies:
        cfg = SimConfig(n=16, blocks=5, rate=1 / 16, recon_margin=0.5, pa_margin=4, seed=2)
        res = run_sim(g, a, cfg)
        tr = res.transcript
        assert len(tr.messages) == g.m  # exactly one message per terminal
        assert [m.terminal for m in tr.messages] == list(range(g.m))
        for m in tr.messages:
            assert m.emitted_after_round == cfg.n  # after all transmissions
        # syndromes come only from channel senders; masks only from tree parents
        for m in tr.messages:
            for label in m.syndromes:
                assert label.startswith(f"{m.terminal + 1}->")


def test_run_sim_determinism():
    g = Polytree(3, (edge(0, 1, bsc_matrix(0.05)), edge(1, 2, bsc_matrix(0.05))))
    cfg = SimConfig(n=24, blocks=200, rate=0.2, recon_margin=0.5, pa_margin=8, seed=11)
    r1 = run_sim(g, {0, 1, 2}, cfg)
    r1b = run_sim(g, {0, 1, 2}, cfg)
    assert r1.to_dict() == r1b.to_dict()


def test_leakage_budget_invariant():
    g = Polytree(3, (edge(0, 1, bsc_matrix(0.05)), edge(1, 2, bsc_matrix(0.1))))
    cfg = SimConfig(n=24, blocks=20, rate=1 / 24, recon_margin=0.25, pa_margin=4, seed=3)
    res = run_sim(g, {0, 1, 2}, cfg)
    for entry in res.leakage_budget["per_edge"]:
        assert entry["key_len"] + entry["syndrome_bits"] + entry["margin_bits"] <= entry[
            "block_len"
        ]
        assert entry["slack"] >= 0


def test_eps_decreases_with_delta():
    g = single_edge(0.05)
    eps = []
    for delta in (0.0, 0.25, 0.5, 1.0):
        cfg = SimConfig(
            n=24, blocks=1500, rate=1 / 24, recon_margin=delta, pa_margin=1, seed=13
        )
        eps.append(run_sim(g, {0, 1}, cfg).eps_hat)
    # allow one CI-width of slack per step
    for a, b in zip(eps, eps[1:]):
        assert b <= a + 0.03
    assert eps[-1] < eps[0]


def test_rate_capacity_relation():
    for p in (0.02, 0.05):
        g = single_edge(p)
        # rate 1 exceeds every edge budget, so the run reports the cap
        cfg = SimConfig(n=24, blocks=1, rate=1.0, recon_margin=0.25, pa_margin=8, seed=0)
        with pytest.raises(RateInfeasibleError) as exc:
            run_sim(g, {0, 1}, cfg)
        best = exc.value.max_feasible_rate
        assert best == pytest.approx((24 - parity_count(24, p, 0.25) - 8) / 24)
        assert best > 0
        assert best < 1 - binary_entropy(p)


def test_steered_subtree_prunes_non_a_leaves():
    # terminal 3 hangs off the path and is not in A: its edge is unused
    g = Polytree(
        4,
        (
            edge(0, 1, bsc_matrix(0.05)),
            edge(1, 2, bsc_matrix(0.05)),
            edge(1, 3, bsc_matrix(0.4)),
        ),
    )
    cfg = SimConfig(n=24, blocks=30, rate=1 / 24, recon_margin=0.5, pa_margin=4, seed=9)
    res = run_sim(g, {0, 2}, cfg)
    assert set(res.decode_failures) == {"1->2", "2->3"}
    # the noisy pruned edge would have made the rate infeasible otherwise
    assert res.key_len == 1


# ---------------------------------------------------------------------------
# Reference implementations: one block at a time, with Python ints and dicts
# ---------------------------------------------------------------------------


def reference_table(h, w_max):
    """Syndrome (bit i = parity of row i) -> first error pattern in (weight, lex) order."""
    r, n = h.shape
    cols = [sum(int(h[i, j]) << i for i in range(r)) for j in range(n)]
    table = {}
    for w in range(w_max + 1):
        for positions in combinations(range(n), w):
            s = 0
            for j in positions:
                s ^= cols[j]
            table.setdefault(s, positions)
    return table, cols


def syndrome_int(cols, bits):
    s = 0
    for j in np.nonzero(bits)[0]:
        s ^= cols[int(j)]
    return s


def toeplitz_hash(bits, seed_bits, n_out):
    conv = np.convolve(bits.astype(np.int64), seed_bits.astype(np.int64))
    return (conv[bits.size - 1 : bits.size - 1 + n_out] % 2).astype(np.uint8)


def reference_run(g, a, cfg):
    """The simulation block by block: the seed schedule, exhaustive decoding,
    convolution hashing and per-block key forwarding, written out directly."""
    a_nodes = set(a)
    root, tree, sub_edges = sim._steiner_subtree(g, a_nodes)
    p = {eid: float(g.edges[eid].channel.rows[0, 1]) for eid in sub_edges}
    key_len = int(math.floor(cfg.n * cfg.rate))
    label = {eid: sim._edge_label(g, eid) for eid in sub_edges}
    tables, cols, toeplitz, r = {}, {}, {}, {}
    for eid in sub_edges:
        r[eid] = parity_count(cfg.n, p[eid], cfg.recon_margin)
        h = sim._rng(cfg.seed, sim._NS_CODE, eid).integers(
            0, 2, size=(r[eid], cfg.n), dtype=np.uint8
        )
        tables[eid], cols[eid] = reference_table(h, min(weight_cap(cfg.n, p[eid]), cfg.n))
        toeplitz[eid] = sim._rng(cfg.seed, sim._NS_HASH, eid).integers(
            0, 2, size=cfg.n + key_len - 1, dtype=np.uint8
        )
    failed, failures, pool, rows, transcript = 0, {eid: 0 for eid in sub_edges}, [], [], None
    for bid in range(cfg.blocks):
        rng = sim._rng(cfg.seed, sim._NS_BLOCK, bid)
        t_bits, noise = {}, {}
        for eid in sub_edges:
            t_bits[eid] = rng.integers(0, 2, size=cfg.n, dtype=np.uint8)
            noise[eid] = (rng.random(cfg.n) < p[eid]).astype(np.uint8)
        ok, edge_keys = {}, {}
        for eid in sub_edges:
            patt = tables[eid].get(syndrome_int(cols[eid], noise[eid]))
            e_hat = np.zeros(cfg.n, dtype=np.uint8)
            if patt is not None:
                e_hat[list(patt)] = 1
            ok[eid] = patt is not None and np.array_equal(e_hat, noise[eid])
            e = g.edges[eid]
            t_hat = t_bits[eid] ^ noise[eid] ^ e_hat
            edge_keys[(eid, e.sender)] = toeplitz_hash(t_bits[eid], toeplitz[eid], key_len)
            edge_keys[(eid, e.receiver)] = toeplitz_hash(t_hat, toeplitz[eid], key_len)
        root_key = edge_keys[(tree[0][2], root)]
        keys, masks = {root: root_key}, {}
        for parent, child, eid in tree:
            masks[eid] = keys[parent] ^ edge_keys[(eid, parent)]
            keys[child] = masks[eid] ^ edge_keys[(eid, child)]
        agree = all(np.array_equal(keys[j], root_key) for j in a_nodes)
        failed += not agree
        for eid in sub_edges:
            failures[eid] += not ok[eid]
        pool.append(root_key)
        rows.append([bid] + [int(ok[eid]) for eid in sub_edges] + [int(agree)])
        if bid == 0:
            msgs = []
            for terminal in range(g.m):
                syn = {}
                for eid in sub_edges:
                    if g.edges[eid].sender == terminal:
                        s = syndrome_int(cols[eid], t_bits[eid])
                        syn[label[eid]] = tuple((s >> i) & 1 for i in range(r[eid]))
                msk = {label[eid]: tuple(int(b) for b in masks[eid])
                       for parent, _, eid in tree if parent == terminal}
                msgs.append(sim.TerminalMessage(terminal, cfg.n, syn, msk))
            transcript = sim.Transcript(
                cfg.n, tuple(msgs), {j: tuple(int(b) for b in keys[j]) for j in sorted(keys)}
            )
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    header = [f"decode_ok_{label[eid]}" for eid in sub_edges]
    writer.writerow(["block_id"] + header + ["agree"])
    writer.writerows(rows)
    return {
        "eps_hat": failed / cfg.blocks,
        "eps_ci_halfwidth": sim._wilson_halfwidth(failed, cfg.blocks),
        "failed_blocks": failed,
        "decode_failures": {label[eid]: c for eid, c in failures.items()},
        "uniformity_p": sim._uniformity_pvalue(np.concatenate(pool)),
    }, transcript, out.getvalue()


@pytest.mark.parametrize(
    "n, p, delta, seed",
    [
        (24, 0.1, 0.25, 5),  # w_max = 7, the largest tables the benchmark builds
        (24, 0.1, 0.0, 5),  # 2^12 syndromes, all covered by weight 5 < w_max = 7
        # r = 44 > n; the first 32 parity rows have rank 27 < 28, so keys packed
        # from them alone would merge syndromes
        (28, 0.02, 10.0, 219),
        (20, 0.05, 0.5, 5),
        (12, 0.2, 0.0, 5),
        (24, 0.0, 0.5, 5),  # r = 0: the empty pattern decodes everything
    ],
)
def test_decode_table_matches_combinations_loop(n, p, delta, seed):
    w_max = min(weight_cap(n, p), n)
    code = sim._build_code(n, p, delta, sim._rng(seed, sim._NS_CODE, n))
    ref, cols = reference_table(code.h, w_max)
    assert len(code.keys) == len(ref)
    errors = np.zeros((len(ref), n), dtype=np.uint8)
    for i, positions in enumerate(ref.values()):
        errors[i, list(positions)] = 1
    e_hat, found = sim._decode(code, errors)
    assert found.all()
    np.testing.assert_array_equal(e_hat, errors)  # each syndrome's own representative
    rank = code.rows.shape[0]
    if len(ref) < 2**rank:  # syndromes past w_max are reported as not found
        heavy = np.random.default_rng(n).integers(0, 2, size=(400, n), dtype=np.uint8)
        missing = np.array([syndrome_int(cols, e) not in ref for e in heavy])
        assert missing.any()
        np.testing.assert_array_equal(sim._decode(code, heavy)[1], ~missing)
    if (n, p, delta) == (24, 0.1, 0.0):
        assert len(ref) == 2**rank and max(map(len, ref.values())) < w_max


def frozen_decode_table(cols, n, w_max, full):
    """The decode-table build with a stable sort per chunk and per weight,
    frozen as the bit-identity reference."""
    bit = np.int32(1) << np.arange(n, dtype=np.int32)
    keys = patterns = np.zeros(1, dtype=np.int32)
    level = (keys, patterns)
    for w in range(1, w_max + 1):
        if keys.size == full:
            break
        found, grown = [(keys, patterns)], []
        for lo in range(0, level[0].size, sim._GROW_CHUNK):
            key, patt = (a[lo : lo + sim._GROW_CHUNK] for a in level)
            last = np.frexp(patt)[1] - 1
            count = n - 1 - last
            parent = np.repeat(np.arange(key.size), count)
            pos = np.arange(parent.size) - np.repeat(np.cumsum(count) - n, count)
            child = (key[parent] ^ cols[pos], patt[parent] | bit[pos])
            if w < w_max:
                grown.append(child)
            new, first = np.unique(child[0], return_index=True)
            fresh = ~sim._lookup(keys, new)[1]
            found.append((new[fresh], child[1][first[fresh]]))
        all_keys, all_patterns = map(np.concatenate, zip(*found))
        keys, first = np.unique(all_keys, return_index=True)
        patterns = all_patterns[first]
        if grown:
            level = tuple(map(np.concatenate, zip(*grown)))
    return keys, patterns


@pytest.mark.parametrize("n, p, delta", [
    (16, 0.08, 0.25), (20, 0.08, 0.25), (24, 0.1, 0.25), (24, 0.07, 0.25),
    (26, 0.04, 3.0),  # rank 26: 2^26 keys, past the dense array's reach
])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sort"])
def test_decode_table_bit_identical_to_frozen_build(n, p, delta, dense, monkeypatch):
    if not dense:  # take the sorting route at every size
        monkeypatch.setattr(sim, "MAX_TABLE_PATTERNS", 1)
    rng = np.random.default_rng(n)
    h = rng.integers(0, 2, size=(sim.parity_count(n, p, delta), n), dtype=np.uint8)
    rows = h[sim._spanning_rows(h)]
    args = (sim._pack(rows.T), n, min(weight_cap(n, p), n), 1 << rows.shape[0])
    keys, patterns = sim._decode_table(*args)
    ref_keys, ref_patterns = frozen_decode_table(*args)
    assert (keys.dtype, patterns.dtype) == (ref_keys.dtype, ref_patterns.dtype)
    assert np.array_equal(keys, ref_keys) and np.array_equal(patterns, ref_patterns)


KERNEL_TOPOLOGIES = {
    "single_edge": (Polytree(2, (edge(0, 1, bsc_matrix(0.05)),)), {0, 1}),
    "two_edge_path": (
        Polytree(3, (edge(0, 1, bsc_matrix(0.05)), edge(2, 1, bsc_matrix(0.08)))),
        {0, 1, 2},
    ),
    # the root (terminal 1) receives, terminal 2 relays outside A, leaf 5 is pruned
    "star_non_a_leaf": (
        Polytree(
            5,
            (
                edge(1, 0, bsc_matrix(0.05)),
                edge(1, 2, bsc_matrix(0.03)),
                edge(3, 1, bsc_matrix(0.06)),
                edge(1, 4, bsc_matrix(0.4)),
            ),
        ),
        {0, 2, 3},
    ),
}


@pytest.mark.parametrize("seed", [3, 2**63 + 17])
@pytest.mark.parametrize("topology", sorted(KERNEL_TOPOLOGIES))
def test_batched_kernel_matches_per_block_reference(topology, seed, tmp_path, monkeypatch):
    g, a = KERNEL_TOPOLOGIES[topology]
    cfg = SimConfig(n=24, blocks=300, rate=4 / 24, recon_margin=0.5, pa_margin=4, seed=seed)
    monkeypatch.setattr(sim, "_CHUNK_BLOCKS", 128)  # several kernel passes per run
    res = run_sim(g, a, cfg, csv_path=str(tmp_path / "blocks.csv"))
    want, transcript, rows = reference_run(g, a, cfg)
    assert {k: res.to_dict()[k] for k in want} == want
    assert res.transcript == transcript
    assert (tmp_path / "blocks.csv").read_bytes() == rows.encode()
    assert 0 < res.failed_blocks < cfg.blocks


def generator_draws(st, lo, hi):
    """The seed schedule through ``Generator`` methods, block by block: the
    draw loop as it was before the raw-stream decode."""
    n = st.cfg.n
    sent = np.empty((len(st.sub_edges), hi - lo, n), dtype=np.uint8)
    noise = np.empty_like(sent)
    for i, b in enumerate(range(lo, hi)):
        rng = sim._rng(st.cfg.seed, sim._NS_BLOCK, b)
        for k, eid in enumerate(st.sub_edges):
            sent[k, i] = rng.integers(0, 2, size=n, dtype=np.uint8)
            noise[k, i] = rng.random(n) < st.p[eid]
    return sent, noise


def draw_state(seed, n, crossovers):
    """The fields of ``sim._Static`` that ``_draw_blocks`` reads."""
    return types.SimpleNamespace(
        cfg=types.SimpleNamespace(n=n, seed=seed),
        sub_edges=tuple(range(len(crossovers))),
        p=dict(enumerate(crossovers)),
    )


DRAW_SEEDS = [0, 1, 12345, 2**31 - 1, 2**32, 2**40 + 7, 2**64 - 1, -5]
#: Crossovers of up to five edges, a zero and one just under 1/2 among them.
CROSSOVERS = (0.05, 0.3, 0.0, 0.5 - 2**-53, 0.125)


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_draw_blocks_equal_the_generator_loop(seed):
    # n with an even and an odd count of uint32 halves, with and without a
    # part-used last half; one to five edges, so a kept half crosses noise
    # words and edges; blocks from 3 on
    for n in (8, 9, 13, 16, 20, 23, 24, 28):
        for edges in (1, 2, 3, 5):
            st = draw_state(seed, n, CROSSOVERS[:edges])
            got, want = sim._draw_blocks(st, 3, 40), generator_draws(st, 3, 40)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.uint8
                np.testing.assert_array_equal(g, w, err_msg=f"n={n}, edges={edges}")


def test_draw_blocks_across_draw_passes(monkeypatch):
    st = draw_state(2**63 + 17, 20, CROSSOVERS[:3])
    want = generator_draws(st, 1000, 1031)
    assert sim._stream_layout(20, 3)[0] == 68  # 3 + 20, 2 + 20 and 3 + 20 words
    for words in (1, 2 * 68, 7 * 68 + 5):  # 1, 2 and 7 blocks per pass
        monkeypatch.setattr(sim, "_DRAW_WORDS", words)
        for g, w in zip(sim._draw_blocks(st, 1000, 1031), want):
            np.testing.assert_array_equal(g, w)


def test_noise_cut_is_the_random_draw_compare():
    # Generator.random() maps a word w to (w >> 11) 2**-53; random words
    # almost never land next to the cut, so the words around it are checked
    for p in (0.0, 2**-53, 3 * 2**-60, 0.05, 0.1, 0.125, 0.3, 0.5 - 2**-53):
        cut = sim._noise_cut(p)
        near = np.array([cut + d for d in (-2049, -2048, -1, 0, 1, 2047, 2048)
                         if 0 <= cut + d < 2**64], dtype=np.uint64)
        np.testing.assert_array_equal(near < np.uint64(cut),
                                      (near >> np.uint64(11)) * 2.0**-53 < p)


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_block_seed_words_match_seed_sequence(seed):
    blocks = [0, 1, 2, 7, 2**31, 2**32 - 2, 2**32 - 1]
    got = np.concatenate([sim._block_seed_words(seed, b, b + 1) for b in blocks])
    got = np.concatenate([got, sim._block_seed_words(seed, 5000, 5100)])
    want = [
        np.random.SeedSequence([seed & (2**64 - 1), sim._NS_BLOCK, b]).generate_state(4, np.uint64)
        for b in blocks + list(range(5000, 5100))
    ]
    np.testing.assert_array_equal(got, np.array(want))


def test_simconfig_caps_blocks_at_one_seed_word():
    assert SimConfig(n=8, blocks=sim.MAX_BLOCKS, rate=0.1).blocks == 2**32
    with pytest.raises(ModelError, match=str(sim.MAX_BLOCKS)):
        SimConfig(n=8, blocks=sim.MAX_BLOCKS + 1, rate=0.1)


def test_uniformity_pvalue_matches_scipy_chisquare():
    rng = np.random.default_rng(12)
    weights = np.int64(1) << np.arange(7, -1, -1)
    checked = set()
    # 8 bytes give no p-value; 10, 20, 80 and 1,280 bytes are the first
    # that test 2, 4, 16 and 256 bins
    for size in (64, 80, 150, 160, 639, 640, 10239, 10240, 30000):
        for bias in (0.5, 0.45, 0.3):
            for _ in range(20):
                bits = (rng.random(size) < bias).astype(np.uint8)
                got = sim._uniformity_pvalue(bits)
                by = bits[: size // 8 * 8].reshape(-1, 8) @ weights
                fits = [k for k in (256, 16, 4, 2) if by.size >= 5 * k]
                if not fits:
                    assert got is None
                    continue
                nbins = fits[0]
                counts = np.bincount(by // (256 // nbins), minlength=nbins)
                assert got == float(stats.chisquare(counts).pvalue)
                checked.add(nbins)
    assert checked == {2, 4, 16, 256}


def test_run_sim_leaves_scipy_stats_out():
    code = (
        "import sys\n"
        "from skacap.models import Polytree, edge\n"
        "from skacap.prob import bsc_matrix\n"
        "from skacap.sim import SimConfig, run_sim\n"
        "g = Polytree(2, (edge(0, 1, bsc_matrix(0.05)),))\n"
        "res = run_sim(g, {0, 1}, SimConfig(n=24, blocks=2000, rate=0.25, seed=1))\n"
        "print(res.uniformity_p is not None, 'scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("n, key_len", [(24, 5), (300, 40), (1000, 7)])
def test_privacy_amplify_matches_convolution(n, key_len):
    # n > 255 checks that the uint8 matrix product keeps the parity of its sums
    bits = np.random.default_rng(n).integers(0, 2, size=n, dtype=np.uint8)
    seed_bits = sim._rng(11, sim._NS_HASH, 0).integers(
        0, 2, size=n + key_len - 1, dtype=np.uint8
    )
    want = toeplitz_hash(bits, seed_bits, key_len)
    got = sim._hash(bits[None], sim._toeplitz(n, key_len, sim._rng(11, sim._NS_HASH, 0)))
    np.testing.assert_array_equal(got[0], want)
