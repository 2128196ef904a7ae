"""Monte-Carlo execution of a noninteractive SKA protocol on BSC polytrees.

Protocol per block of ``n`` channel rounds:

1.  Every edge sender draws uniform input bits and transmits; receivers see
    the bits through their edge's BSC.
2.  Reconciliation: each sender reveals r = ceil(n h(p) (1 + delta)) parity
    bits of a seeded random binary matrix applied to its input block; the
    receiver decodes the syndrome difference to the minimum-weight error
    pattern (exhaustive over weight <= w_max).
3.  Privacy amplification: both ends of an edge hash their (corrected)
    copy of the sender bits through a seeded Toeplitz matrix down to
    key_len = floor(n rate) bits, sacrificing s margin bits.
4.  Group key: the root's pairwise key on its first subtree edge becomes
    the group key and is forwarded outward, one-time-padded with each
    edge's pairwise key.

Every terminal emits exactly one public message, assembled after all n
transmissions (syndromes for its outgoing edges plus forwarding masks for
its child edges), so the transcript is structurally noninteractive.

Secrecy is NOT estimated as an empirical statistical distance (that would
need exponentially many samples); the result instead carries an analytic
leakage budget (key_len + revealed + s <= n per edge, leftover-hash style)
and a chi-square uniformity check over produced key bytes.  Reliability
(the epsilon of the key definition) is estimated directly as the fraction
of blocks where some terminal's key disagrees.

All randomness derives from one master seed through an indexed schedule
(purpose, edge or block number), so runs are bit-reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np
from scipy import stats

from .errors import DecodeBudgetError, ModelError, RateInfeasibleError
from .models import Polytree, as_mask, bits
from .prob import binary_entropy

#: Exhaustive-decoder guards.
MAX_BLOCK_LEN = 28
MAX_TABLE_PATTERNS = 1 << 21

#: Seed-schedule namespaces.
_NS_CODE = 0
_NS_HASH = 1
_NS_BLOCK = 2

_Z95 = 1.959963984540054


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), *path]))


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    n: channel rounds per block (= reconciliation block length L).
    blocks: Monte-Carlo trials.
    rate: target key bits per round; key_len = floor(n * rate).
    recon_margin: delta >= 0; parity budget is ceil(n h(p) (1 + delta)).
    pa_margin: s security bits sacrificed in hashing.
    seed: 64-bit master seed.
    """

    n: int
    blocks: int
    rate: float
    recon_margin: float = 0.25
    pa_margin: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n < 8:
            raise ModelError("need n >= 8 rounds per block")
        if self.blocks < 1:
            raise ModelError("need at least one block")
        if not self.rate > 0:
            raise ModelError("rate must be positive")
        if self.recon_margin < 0 or self.pa_margin < 0:
            raise ModelError("margins must be nonnegative")


@dataclass(frozen=True)
class TerminalMessage:
    """One terminal's single public message (emitted after round n)."""

    terminal: int
    emitted_after_round: int
    syndromes: dict[str, tuple[int, ...]]
    masks: dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class Transcript:
    """Public view of one block: exactly one message per terminal."""

    n: int
    messages: tuple[TerminalMessage, ...]
    keys: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class SimResult:
    eps_hat: float
    eps_ci_halfwidth: float
    key_rate: float
    key_len: int
    blocks: int
    failed_blocks: int
    decode_failures: dict[str, int]
    leakage_budget: dict
    uniformity_p: Optional[float]
    transcript: Transcript
    secrecy_note: str

    def to_dict(self) -> dict:
        return {
            "eps_hat": self.eps_hat,
            "eps_ci_halfwidth": self.eps_ci_halfwidth,
            "key_rate": self.key_rate,
            "key_len": self.key_len,
            "blocks": self.blocks,
            "failed_blocks": self.failed_blocks,
            "decode_failures": dict(self.decode_failures),
            "leakage_budget": self.leakage_budget,
            "uniformity_p": self.uniformity_p,
            "secrecy_note": self.secrecy_note,
        }


@dataclass(frozen=True)
class ReconcileResult:
    corrected: np.ndarray
    revealed: int
    ok: bool


# ---------------------------------------------------------------------------
# Code construction and decoding
# ---------------------------------------------------------------------------


def parity_count(n: int, p: float, delta: float) -> int:
    """r = ceil(n h(p) (1 + delta))."""
    return int(math.ceil(n * binary_entropy(p) * (1.0 + delta)))


def weight_cap(n: int, p: float) -> int:
    """w_max = ceil(2 n p) + 2."""
    return int(math.ceil(2.0 * n * p)) + 2


def _table_size(n: int, w_max: int) -> int:
    return sum(math.comb(n, w) for w in range(min(w_max, n) + 1))


def _build_code(n: int, p: float, delta: float, rng: np.random.Generator):
    """Random binary parity matrix plus its exhaustive min-weight decode table."""
    if n > MAX_BLOCK_LEN:
        raise DecodeBudgetError(
            f"block length {n} exceeds the exhaustive-decoder cap {MAX_BLOCK_LEN}"
        )
    r = parity_count(n, p, delta)
    w_max = min(weight_cap(n, p), n)
    if _table_size(n, w_max) > MAX_TABLE_PATTERNS:
        raise DecodeBudgetError(
            f"{_table_size(n, w_max)} candidate error patterns exceed the decode budget"
        )
    h = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
    cols = [int(sum(int(h[i, j]) << i for i in range(r))) for j in range(n)]
    table: dict[int, tuple[int, ...]] = {}
    for w in range(w_max + 1):
        for positions in combinations(range(n), w):
            s = 0
            for j in positions:
                s ^= cols[j]
            if s not in table:
                table[s] = positions
    return h, cols, table, r, w_max


def _syndrome_int(cols: list[int], bits: np.ndarray) -> int:
    s = 0
    for j in np.nonzero(bits)[0]:
        s ^= cols[int(j)]
    return s


def reconcile_edge(
    sender_bits, receiver_bits, p: float, delta: float, seed: int = 0
) -> ReconcileResult:
    """One-way syndrome reconciliation of a single edge block.

    Reveals r = ceil(L h(p) (1 + delta)) parities of the sender's bits; the
    receiver decodes the syndrome difference to the minimum-weight error
    pattern.  ``ok`` is the decoder's own success flag (a consistent
    pattern was found); a wrong but consistent decode still shows up later
    as a key mismatch.
    """
    sender = np.asarray(sender_bits, dtype=np.uint8).ravel()
    receiver = np.asarray(receiver_bits, dtype=np.uint8).ravel()
    if sender.size != receiver.size:
        raise ModelError("sender and receiver blocks differ in length")
    if not 0 <= p < 0.5:
        raise ModelError("crossover probability must lie in [0, 0.5)")
    n = sender.size
    h, cols, table, r, _ = _build_code(n, p, delta, _rng(seed, _NS_CODE, 0))
    syn = _syndrome_int(cols, (sender ^ receiver) % 2)
    patt = table.get(syn)
    if patt is None:
        return ReconcileResult(corrected=receiver.copy(), revealed=r, ok=False)
    e_hat = np.zeros(n, dtype=np.uint8)
    e_hat[list(patt)] = 1
    return ReconcileResult(corrected=receiver ^ e_hat, revealed=r, ok=True)


# ---------------------------------------------------------------------------
# Privacy amplification
# ---------------------------------------------------------------------------


def _toeplitz_bits(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=n_in + n_out - 1, dtype=np.uint8)


def _toeplitz_hash(bits: np.ndarray, seed_bits: np.ndarray, n_out: int) -> np.ndarray:
    if n_out == 0:
        return np.zeros(0, dtype=np.uint8)
    n = bits.size
    conv = np.convolve(bits.astype(np.int64), seed_bits.astype(np.int64))
    return (conv[n - 1 : n - 1 + n_out] % 2).astype(np.uint8)


def privacy_amplify(
    shared_bits, revealed_count: int, key_len: int, s: int, hash_seed: int
) -> np.ndarray:
    """Hash a reconciled block down to ``key_len`` bits via a seeded Toeplitz
    matrix.

    Requires key_len <= L - revealed_count - s, where the block min-entropy
    is L because sender inputs are uniform by construction.
    """
    bits = np.asarray(shared_bits, dtype=np.uint8).ravel()
    budget = bits.size - revealed_count - s
    if key_len > budget:
        raise RateInfeasibleError(
            f"key_len {key_len} exceeds the extractable budget {budget}",
            max_feasible_rate=max(budget, 0) / bits.size,
        )
    if key_len == 0:
        return np.zeros(0, dtype=np.uint8)
    seed_bits = _toeplitz_bits(bits.size, key_len, _rng(hash_seed, _NS_HASH, 0))
    return _toeplitz_hash(bits, seed_bits, key_len)


# ---------------------------------------------------------------------------
# Group-key propagation
# ---------------------------------------------------------------------------


def propagate_group_key(
    tree: list[tuple[int, int, int]],
    edge_keys: dict[tuple[int, int], np.ndarray],
    root: int,
    root_key: np.ndarray,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Forward the root's key over each edge's pairwise key by one-time pad.

    ``tree`` lists (parent, child, edge_id) in top-down order; ``edge_keys``
    maps (edge_id, node) to that node's version of the edge's pairwise key.
    Returns per-terminal key estimates and the per-edge masked messages.
    Each receiver recovers the root key exactly when its edge-key version
    matches the sender's.
    """
    key_len = len(root_key)
    keys = {root: np.asarray(root_key, dtype=np.uint8)}
    masks: dict[int, np.ndarray] = {}
    for parent, child, eid in tree:
        if parent not in keys:
            raise ModelError(f"edge ({parent},{child}) visited before its parent")
        pk = np.asarray(edge_keys[(eid, parent)], dtype=np.uint8)
        ck = np.asarray(edge_keys[(eid, child)], dtype=np.uint8)
        if pk.size < key_len or ck.size < key_len:
            raise ModelError(
                f"pairwise key on edge {eid} shorter than the group key"
            )
        masks[eid] = keys[parent] ^ pk[:key_len]
        keys[child] = masks[eid] ^ ck[:key_len]
    return keys, masks


# ---------------------------------------------------------------------------
# Full simulation
# ---------------------------------------------------------------------------


def _bsc_crossover(e) -> float:
    rows = e.channel.rows
    if rows.shape != (2, 2):
        raise ModelError(f"edge {e.sender + 1}->{e.receiver + 1} is not binary")
    p = float(rows[0, 1])
    if abs(rows[0, 0] - (1 - p)) > 1e-12 or abs(rows[1, 0] - p) > 1e-12 or abs(
        rows[1, 1] - (1 - p)
    ) > 1e-12:
        raise ModelError(f"edge {e.sender + 1}->{e.receiver + 1} is not a BSC")
    if p >= 0.5:
        raise ModelError(f"edge {e.sender + 1}->{e.receiver + 1} has crossover >= 0.5")
    return p


def _steiner_subtree(g: Polytree, a_nodes: set[int]):
    """Subtree spanning A, rooted at min(A): nodes, BFS edge list, edge ids."""
    root = min(a_nodes)
    adj = g.neighbors()
    parent: dict[int, tuple[int, int]] = {}
    seen = {root}
    order = [root]
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for v, eid in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                parent[v] = (u, eid)
                order.append(v)
    needed = set()
    for node in a_nodes:
        cur = node
        while cur != root and cur not in needed:
            needed.add(cur)
            cur = parent[cur][0]
    needed.add(root)
    tree = []
    for v in order:
        if v in needed and v != root:
            u, eid = parent[v]
            tree.append((u, v, eid))
    sub_edges = sorted(eid for _, _, eid in tree)
    return root, needed, tree, sub_edges


@dataclass(frozen=True)
class _Static:
    """Per-run precomputed state shared by all blocks."""

    g: Polytree
    a_nodes: tuple[int, ...]
    cfg: SimConfig
    root: int
    tree: tuple[tuple[int, int, int], ...]
    sub_edges: tuple[int, ...]
    p: dict[int, float]
    r: dict[int, int]
    cols: dict[int, list[int]]
    tables: dict[int, dict[int, tuple[int, ...]]]
    toeplitz: dict[int, np.ndarray]
    key_len: int


def _prepare(g: Polytree, a, cfg: SimConfig) -> _Static:
    a_nodes = set(bits(as_mask(a)))
    if not a_nodes <= set(range(g.m)):
        raise ModelError(f"A references unknown terminals: {sorted(a_nodes)}")
    if len(a_nodes) < 2:
        raise ModelError("A must contain at least two terminals")
    crossovers = {i: _bsc_crossover(e) for i, e in enumerate(g.edges)}
    root, _, tree, sub_edges = _steiner_subtree(g, a_nodes)
    key_len = int(math.floor(cfg.n * cfg.rate))
    if key_len < 1:
        raise RateInfeasibleError(
            f"key_len = floor({cfg.n} * {cfg.rate}) < 1", max_feasible_rate=None
        )
    r = {}
    budgets = []
    for eid in sub_edges:
        r[eid] = parity_count(cfg.n, crossovers[eid], cfg.recon_margin)
        budgets.append(cfg.n - r[eid] - cfg.pa_margin)
    max_rate = max(min(budgets), 0) / cfg.n if budgets else 0.0
    if any(key_len > b for b in budgets):
        raise RateInfeasibleError(
            f"key_len {key_len} exceeds an edge budget; "
            f"maximum feasible rate is {max_rate}",
            max_feasible_rate=max_rate,
        )
    cols = {}
    tables = {}
    toeplitz = {}
    for eid in sub_edges:
        _, c, table, _, _ = _build_code(
            cfg.n, crossovers[eid], cfg.recon_margin, _rng(cfg.seed, _NS_CODE, eid)
        )
        cols[eid] = c
        tables[eid] = table
        toeplitz[eid] = _toeplitz_bits(cfg.n, key_len, _rng(cfg.seed, _NS_HASH, eid))
    return _Static(
        g=g,
        a_nodes=tuple(sorted(a_nodes)),
        cfg=cfg,
        root=root,
        tree=tuple(tree),
        sub_edges=tuple(sub_edges),
        p=crossovers,
        r=r,
        cols=cols,
        tables=tables,
        toeplitz=toeplitz,
        key_len=key_len,
    )


def _edge_label(g: Polytree, eid: int) -> str:
    e = g.edges[eid]
    return f"{e.sender + 1}->{e.receiver + 1}"


def _run_block(st: _Static, bid: int, want_transcript: bool):
    cfg = st.cfg
    rng = _rng(cfg.seed, _NS_BLOCK, bid)
    t_bits = {}
    noise = {}
    for eid in st.sub_edges:
        t_bits[eid] = rng.integers(0, 2, size=cfg.n, dtype=np.uint8)
        noise[eid] = (rng.random(cfg.n) < st.p[eid]).astype(np.uint8)

    syndromes = {}
    decode_ok = {}
    t_hat = {}
    for eid in st.sub_edges:
        syndromes[eid] = _syndrome_int(st.cols[eid], t_bits[eid])
        syn_e = _syndrome_int(st.cols[eid], noise[eid])
        patt = st.tables[eid].get(syn_e)
        if patt is None:
            e_hat = np.zeros(cfg.n, dtype=np.uint8)
            found = False
        else:
            e_hat = np.zeros(cfg.n, dtype=np.uint8)
            e_hat[list(patt)] = 1
            found = True
        y = t_bits[eid] ^ noise[eid]
        t_hat[eid] = y ^ e_hat
        decode_ok[eid] = found and bool(np.array_equal(e_hat, noise[eid]))

    edge_keys = {}
    for eid in st.sub_edges:
        e = st.g.edges[eid]
        sender_key = _toeplitz_hash(t_bits[eid], st.toeplitz[eid], st.key_len)
        receiver_key = _toeplitz_hash(t_hat[eid], st.toeplitz[eid], st.key_len)
        edge_keys[(eid, e.sender)] = sender_key
        edge_keys[(eid, e.receiver)] = receiver_key

    first_eid = st.tree[0][2]
    root_key = edge_keys[(first_eid, st.root)]
    keys, masks = propagate_group_key(list(st.tree), edge_keys, st.root, root_key)
    agree = all(np.array_equal(keys[j], root_key) for j in st.a_nodes)

    transcript = None
    if want_transcript:
        msgs = []
        for terminal in range(st.g.m):
            syn = {}
            msk = {}
            for eid in st.sub_edges:
                e = st.g.edges[eid]
                if e.sender == terminal:
                    bits_r = st.r[eid]
                    syn[_edge_label(st.g, eid)] = tuple(
                        (syndromes[eid] >> i) & 1 for i in range(bits_r)
                    )
            for parent, child, eid in st.tree:
                if parent == terminal:
                    msk[_edge_label(st.g, eid)] = tuple(int(b) for b in masks[eid])
            msgs.append(
                TerminalMessage(
                    terminal=terminal,
                    emitted_after_round=cfg.n,
                    syndromes=syn,
                    masks=msk,
                )
            )
        transcript = Transcript(
            n=cfg.n,
            messages=tuple(msgs),
            keys={j: tuple(int(b) for b in keys[j]) for j in sorted(keys)},
        )
    ok_flags = [decode_ok[eid] for eid in st.sub_edges]
    return ok_flags, agree, root_key, transcript


def run_sim(g: Polytree, a, cfg: SimConfig, csv_path: Optional[str] = None) -> SimResult:
    """Run ``cfg.blocks`` independent protocol executions and score them.

    Deterministic given the seed: block b's randomness is derived from
    (seed, block-namespace, b).  Rate infeasibility is reported before any
    sampling happens.
    """
    st = _prepare(g, a, cfg)
    results = [_run_block(st, b, want_transcript=(b == 0)) for b in range(cfg.blocks)]

    failed = 0
    decode_failures = {eid: 0 for eid in st.sub_edges}
    key_pool = []
    transcript = results[0][3]
    rows = []
    for bid, (ok_flags, agree, root_key, _) in enumerate(results):
        if not agree:
            failed += 1
        for eid, ok in zip(st.sub_edges, ok_flags):
            if not ok:
                decode_failures[eid] += 1
        key_pool.append(root_key)
        rows.append([bid] + [int(okf) for okf in ok_flags] + [int(agree)])

    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["block_id"]
                + [f"decode_ok_{_edge_label(g, eid)}" for eid in st.sub_edges]
                + ["agree"]
            )
            writer.writerows(rows)

    eps_hat = failed / cfg.blocks
    halfwidth = _wilson_halfwidth(failed, cfg.blocks)
    uniformity_p = _uniformity_pvalue(np.concatenate(key_pool)) if key_pool else None

    per_edge = []
    for eid in st.sub_edges:
        per_edge.append(
            {
                "edge": _edge_label(g, eid),
                "block_len": cfg.n,
                "syndrome_bits": st.r[eid],
                "mask_bits": st.key_len,
                "margin_bits": cfg.pa_margin,
                "key_len": st.key_len,
                "slack": cfg.n - st.r[eid] - cfg.pa_margin - st.key_len,
            }
        )
    leakage = {
        "per_edge": per_edge,
        "extractable_entropy_bits_per_edge": cfg.n,
        "total_syndrome_bits": int(sum(st.r.values())),
        "total_mask_bits": st.key_len * len(st.tree),
    }
    note = (
        "secrecy is accounted analytically: key_len + revealed + margin <= n "
        "per edge (leftover-hash budget with uniform sender inputs), plus a "
        "chi-square uniformity check on produced key bytes; the statistical "
        "distance of the key definition is not estimated empirically"
    )
    return SimResult(
        eps_hat=eps_hat,
        eps_ci_halfwidth=halfwidth,
        key_rate=st.key_len / cfg.n,
        key_len=st.key_len,
        blocks=cfg.blocks,
        failed_blocks=failed,
        decode_failures={_edge_label(g, eid): c for eid, c in decode_failures.items()},
        leakage_budget=leakage,
        uniformity_p=uniformity_p,
        transcript=transcript,
        secrecy_note=note,
    )


def _wilson_halfwidth(k: int, n: int) -> float:
    z = _Z95
    p = k / n
    denom = 1 + z * z / n
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return half


def _uniformity_pvalue(bits: np.ndarray) -> Optional[float]:
    if bits.size < 64:
        return None
    usable = (bits.size // 8) * 8
    if usable == 0:
        return None
    by = np.packbits(bits[:usable])
    for nbins, shift in ((256, 0), (16, 4), (4, 6), (2, 7)):
        if by.size / nbins >= 5:
            counts = np.bincount(by >> shift, minlength=nbins)
            return float(stats.chisquare(counts).pvalue)
    return None


def max_feasible_rate(g: Polytree, a, cfg: SimConfig) -> float:
    """Largest key rate the budget rule allows for this model and margins."""
    a_nodes = set(bits(as_mask(a)))
    crossovers = {i: _bsc_crossover(e) for i, e in enumerate(g.edges)}
    _, _, _, sub_edges = _steiner_subtree(g, a_nodes)
    budgets = [
        cfg.n - parity_count(cfg.n, crossovers[eid], cfg.recon_margin) - cfg.pa_margin
        for eid in sub_edges
    ]
    return max(min(budgets), 0) / cfg.n if budgets else 0.0
