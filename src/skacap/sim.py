"""Monte-Carlo execution of a noninteractive SKA protocol on BSC polytrees.

Protocol per block of ``n`` channel rounds:

1.  Every edge sender draws uniform input bits and transmits; receivers see
    the bits through their edge's BSC.
2.  Reconciliation: each sender reveals r = ceil(n h(p) (1 + delta)) parity
    bits of a seeded random binary matrix applied to its input block; the
    receiver decodes the syndrome difference to the minimum-weight error
    pattern (exhaustive over weight <= w_max; among patterns of equal
    weight the lexicographically first wins).
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
(purpose, edge or block number), so runs are bit-reproducible.  The draws
(``_draw_blocks``) are the only loop over blocks; after them everything works
on whole arrays of blocks: syndromes and Toeplitz hashes are mod-2 matrix
products, the decode table is a sorted array searched once per block, and
decode checks, agreement and key forwarding are array compares and XORs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DecodeBudgetError, ModelError, RateInfeasibleError
from .models import Polytree, as_mask, bits
from .prob import binary_entropy, check_cells

#: Exhaustive-decoder guards.
MAX_BLOCK_LEN = 28
MAX_TABLE_PATTERNS = 1 << 21

#: Blocks per kernel pass, which bounds the per-block arrays in memory.
_CHUNK_BLOCKS = 4096
#: Parent patterns per step of the decode-table build.
_GROW_CHUNK = 4096

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
        if not 0 < self.rate < math.inf:
            raise ModelError("rate must be positive and finite")
        if not (0 <= self.recon_margin < math.inf and 0 <= self.pa_margin < math.inf):
            raise ModelError("margins must be nonnegative and finite")


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


def _pack(bit_rows: np.ndarray) -> np.ndarray:
    """0/1 entries along the last axis as int32 words, entry i at bit i."""
    return bit_rows @ (np.int32(1) << np.arange(bit_rows.shape[-1], dtype=np.int32))


class _Code(NamedTuple):
    """Parity matrix ``h`` and its minimum-weight decode table.

    ``keys`` is sorted; ``patterns[i]`` is the n-bit mask of the first error
    pattern in (weight, lex) order whose key is ``keys[i]``.  A key packs an
    error's parities on ``rows``, rows of ``h`` spanning its GF(2) row space,
    so two errors share a key exactly when they share a syndrome.
    """

    h: np.ndarray
    rows: np.ndarray
    keys: np.ndarray
    patterns: np.ndarray


def _spanning_rows(h: np.ndarray) -> list[int]:
    """Indices of the rows of ``h`` that are GF(2)-independent of the rows before them."""
    basis, keep = [], []
    for i, row in enumerate(_pack(h).tolist()):
        for b in basis:  # clears each basis vector's leading bit from ``row``
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            keep.append(i)
    return keep


def _lookup(keys: np.ndarray, q: np.ndarray):
    """Index into sorted ``keys`` of each query, and whether it is there."""
    at = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return at, keys[at] == q


def _decode_table(cols: np.ndarray, n: int, w_max: int, full: int):
    """Sorted keys and the first (weight, lex) error pattern of each.

    ``cols[j]`` is the key of an error at position j.  Weight w grows from
    weight w - 1 by appending a position past each parent's last, parent by
    parent, which is the order of ``itertools.combinations``.  The build
    stops after weight ``w_max`` or once all ``full`` keys have a pattern.
    """
    bit = np.int32(1) << np.arange(n, dtype=np.int32)
    keys = patterns = np.zeros(1, dtype=np.int32)
    level = (keys, patterns)  # keys and patterns of weight w - 1, in lex order
    for w in range(1, w_max + 1):
        if keys.size == full:
            break
        found, grown = [(keys, patterns)], []
        for lo in range(0, level[0].size, _GROW_CHUNK):
            key, patt = (a[lo : lo + _GROW_CHUNK] for a in level)
            last = np.frexp(patt)[1] - 1  # highest error position, -1 for none
            count = n - 1 - last
            parent = np.repeat(np.arange(key.size), count)
            pos = np.arange(parent.size) - np.repeat(np.cumsum(count) - n, count)
            child = (key[parent] ^ cols[pos], patt[parent] | bit[pos])
            if w < w_max:
                grown.append(child)
            new, first = np.unique(child[0], return_index=True)
            fresh = ~_lookup(keys, new)[1]
            found.append((new[fresh], child[1][first[fresh]]))
        all_keys, all_patterns = map(np.concatenate, zip(*found))
        keys, first = np.unique(all_keys, return_index=True)
        patterns = all_patterns[first]
        if grown:
            level = tuple(map(np.concatenate, zip(*grown)))
    return keys, patterns


def _build_code(n: int, p: float, delta: float, rng: np.random.Generator) -> _Code:
    """Random binary parity matrix plus its exhaustive min-weight decode table."""
    if n > MAX_BLOCK_LEN:
        raise DecodeBudgetError(
            f"block length {n} exceeds the exhaustive-decoder cap {MAX_BLOCK_LEN}"
        )
    r = parity_count(n, p, delta)
    w_max = min(weight_cap(n, p), n)
    size = sum(math.comb(n, w) for w in range(w_max + 1))
    if size > MAX_TABLE_PATTERNS:
        raise DecodeBudgetError(f"{size} candidate error patterns exceed the decode budget")
    h = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
    rows = h[_spanning_rows(h)]
    keys, patterns = _decode_table(_pack(rows.T), n, w_max, 1 << rows.shape[0])
    return _Code(h, rows, keys, patterns)


def _decode(code: _Code, err: np.ndarray):
    """Table estimate (bits) of each row of ``err``, and whether its syndrome was found."""
    at, found = _lookup(code.keys, _pack((err @ code.rows.T) & 1))
    words = np.where(found, code.patterns[at], 0)[..., None]
    return ((words >> np.arange(err.shape[-1], dtype=np.int32)) & 1).astype(np.uint8), found


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
    code = _build_code(sender.size, p, delta, _rng(seed, _NS_CODE, 0))
    e_hat, found = _decode(code, (sender ^ receiver) % 2)
    return ReconcileResult(receiver ^ e_hat, code.h.shape[0], bool(found))


# ---------------------------------------------------------------------------
# Privacy amplification
# ---------------------------------------------------------------------------


def _toeplitz(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded n_in x n_out Toeplitz matrix T[j, k] = d[n_in - 1 + k - j]."""
    d = rng.integers(0, 2, size=n_in + n_out - 1, dtype=np.uint8)
    return d[(n_in - 1) + np.arange(n_out) - np.arange(n_in)[:, None]]


def _hash(bits: np.ndarray, toeplitz: np.ndarray) -> np.ndarray:
    """Toeplitz hash of each row of ``bits``: one mod-2 product (uint8 sums keep parity)."""
    return (bits @ toeplitz) & 1


def privacy_amplify(
    shared_bits, revealed_count: int, key_len: int, s: int, hash_seed: int
) -> np.ndarray:
    """Hash a reconciled block down to ``key_len`` bits via a seeded Toeplitz
    matrix.

    Requires key_len <= L - revealed_count - s, where the block min-entropy
    is L because sender inputs are uniform by construction.  The L x key_len
    matrix is refused past ``prob.MAX_CELLS`` entries.
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
    check_cells(bits.size * key_len, "Toeplitz hash matrix")
    return _hash(bits, _toeplitz(bits.size, key_len, _rng(hash_seed, _NS_HASH, 0)))


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
    Keys run along the last axis; leading axes (blocks) are carried along.
    Returns per-terminal key estimates and the per-edge masked messages.
    Each receiver recovers the root key exactly when its edge-key version
    matches the sender's.
    """
    keys = {root: np.asarray(root_key, dtype=np.uint8)}
    key_len = keys[root].shape[-1]
    masks: dict[int, np.ndarray] = {}
    for parent, child, eid in tree:
        if parent not in keys:
            raise ModelError(f"edge ({parent},{child}) visited before its parent")
        pk = np.asarray(edge_keys[(eid, parent)], dtype=np.uint8)
        ck = np.asarray(edge_keys[(eid, child)], dtype=np.uint8)
        if pk.shape[-1] < key_len or ck.shape[-1] < key_len:
            raise ModelError(f"pairwise key on edge {eid} shorter than the group key")
        masks[eid] = keys[parent] ^ pk[..., :key_len]
        keys[child] = masks[eid] ^ ck[..., :key_len]
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
    codes: dict[int, _Code]
    toeplitz: dict[int, np.ndarray]
    key_len: int


def _prepare(g: Polytree, a, cfg: SimConfig) -> _Static:
    a_nodes = set(bits(as_mask(a)))
    unknown = sorted(t + 1 for t in a_nodes - set(range(g.m)))
    if unknown:
        raise ModelError(f"A references unknown terminals: {unknown}")
    if len(a_nodes) < 2:
        raise ModelError("A must contain at least two terminals")
    crossovers = {i: _bsc_crossover(e) for i, e in enumerate(g.edges)}
    root, _, tree, sub_edges = _steiner_subtree(g, a_nodes)
    key_len = int(math.floor(cfg.n * cfg.rate))
    if key_len < 1:
        raise RateInfeasibleError(
            f"key_len = floor({cfg.n} * {cfg.rate}) < 1", max_feasible_rate=None
        )
    r = {eid: parity_count(cfg.n, crossovers[eid], cfg.recon_margin) for eid in sub_edges}
    budget = cfg.n - max(r.values()) - cfg.pa_margin
    if key_len > budget:
        max_rate = max(budget, 0) / cfg.n
        raise RateInfeasibleError(
            f"key_len {key_len} exceeds an edge budget; "
            f"maximum feasible rate is {max_rate}",
            max_feasible_rate=max_rate,
        )
    codes, toeplitz = {}, {}
    for eid in sub_edges:
        code_rng = _rng(cfg.seed, _NS_CODE, eid)
        codes[eid] = _build_code(cfg.n, crossovers[eid], cfg.recon_margin, code_rng)
        toeplitz[eid] = _toeplitz(cfg.n, key_len, _rng(cfg.seed, _NS_HASH, eid))
    return _Static(g, tuple(sorted(a_nodes)), cfg, root, tuple(tree), tuple(sub_edges),
                   crossovers, r, codes, toeplitz, key_len)


def _edge_label(g: Polytree, eid: int) -> str:
    e = g.edges[eid]
    return f"{e.sender + 1}->{e.receiver + 1}"


def _draw_blocks(st: _Static, lo: int, hi: int):
    """Sender bits and BSC noise of blocks lo..hi-1, as (edges, blocks, n) uint8.

    This is the seed schedule: block b draws from ``_rng(seed, _NS_BLOCK, b)``,
    edge by edge, n sender bits and then n uniforms compared with the crossover.
    """
    n = st.cfg.n
    sent = np.empty((len(st.sub_edges), hi - lo, n), dtype=np.uint8)
    noise = np.empty_like(sent)
    for i, b in enumerate(range(lo, hi)):
        rng = _rng(st.cfg.seed, _NS_BLOCK, b)
        for k, eid in enumerate(st.sub_edges):
            sent[k, i] = rng.integers(0, 2, size=n, dtype=np.uint8)
            noise[k, i] = rng.random(n) < st.p[eid]
    return sent, noise


def _transcript(st: _Static, sent, masks, keys) -> Transcript:
    """Public messages and key estimates of the first block of the arrays."""
    msgs = []
    for terminal in range(st.g.m):
        syn = {
            _edge_label(st.g, eid): tuple(((st.codes[eid].h @ sent[k, 0]) & 1).tolist())
            for k, eid in enumerate(st.sub_edges)
            if st.g.edges[eid].sender == terminal
        }
        msk = {
            _edge_label(st.g, eid): tuple(masks[eid][0].tolist())
            for parent, _, eid in st.tree
            if parent == terminal
        }
        msgs.append(TerminalMessage(terminal, st.cfg.n, syn, msk))
    estimates = {j: tuple(keys[j][0].tolist()) for j in sorted(keys)}
    return Transcript(st.cfg.n, tuple(msgs), estimates)


def _run_blocks(st: _Static, lo: int, hi: int):
    """Blocks lo..hi-1 on whole arrays.

    Returns per-edge decode success (edges x blocks), agreement per block,
    the root keys (blocks x key_len) and the transcript of block lo.
    """
    sent, noise = _draw_blocks(st, lo, hi)
    decode_ok = np.empty(noise.shape[:2], dtype=bool)
    edge_keys = {}
    for k, eid in enumerate(st.sub_edges):
        e_hat, found = _decode(st.codes[eid], noise[k])
        residual = noise[k] ^ e_hat  # the receiver's corrected copy is sent ^ residual
        decode_ok[k] = found & ~residual.any(axis=1)
        e = st.g.edges[eid]
        edge_keys[(eid, e.sender)] = _hash(sent[k], st.toeplitz[eid])
        edge_keys[(eid, e.receiver)] = _hash(sent[k] ^ residual, st.toeplitz[eid])
    root_key = edge_keys[(st.tree[0][2], st.root)]
    keys, masks = propagate_group_key(st.tree, edge_keys, st.root, root_key)
    agree = np.logical_and.reduce([(keys[j] == root_key).all(axis=1) for j in st.a_nodes])
    return decode_ok, agree, root_key, _transcript(st, sent, masks, keys)


def run_sim(g: Polytree, a, cfg: SimConfig, csv_path: Optional[str] = None) -> SimResult:
    """Run ``cfg.blocks`` independent protocol executions and score them.

    Deterministic given the seed: block b's randomness is derived from
    (seed, block-namespace, b).  Rate infeasibility is reported before any
    sampling happens.
    """
    st = _prepare(g, a, cfg)
    starts = range(0, cfg.blocks, _CHUNK_BLOCKS)
    chunks = [_run_blocks(st, lo, min(lo + _CHUNK_BLOCKS, cfg.blocks)) for lo in starts]
    decode_ok, agree, root_keys, transcripts = zip(*chunks)
    decode_ok = np.concatenate(decode_ok, axis=1)
    agree = np.concatenate(agree)
    failed = int(np.count_nonzero(~agree))
    labels = [_edge_label(g, eid) for eid in st.sub_edges]

    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["block_id"] + [f"decode_ok_{label}" for label in labels] + ["agree"]
            )
            rows = np.column_stack([np.arange(cfg.blocks), decode_ok.T, agree])
            writer.writerows(rows.tolist())

    per_edge = [
        {
            "edge": label,
            "block_len": cfg.n,
            "syndrome_bits": st.r[eid],
            "mask_bits": st.key_len,
            "margin_bits": cfg.pa_margin,
            "key_len": st.key_len,
            "slack": cfg.n - st.r[eid] - cfg.pa_margin - st.key_len,
        }
        for eid, label in zip(st.sub_edges, labels)
    ]
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
        eps_hat=failed / cfg.blocks,
        eps_ci_halfwidth=_wilson_halfwidth(failed, cfg.blocks),
        key_rate=st.key_len / cfg.n,
        key_len=st.key_len,
        blocks=cfg.blocks,
        failed_blocks=failed,
        decode_failures={
            label: int(np.count_nonzero(~ok)) for label, ok in zip(labels, decode_ok)
        },
        leakage_budget=leakage,
        uniformity_p=_uniformity_pvalue(np.concatenate(root_keys).ravel()),
        transcript=transcripts[0],
        secrecy_note=note,
    )


def _wilson_halfwidth(k: int, n: int) -> float:
    z, p = _Z95, k / n
    return z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)


def _uniformity_pvalue(bits: np.ndarray) -> Optional[float]:
    from scipy import stats  # here, not at the top: it is most of the import time

    if bits.size < 64:
        return None
    by = np.packbits(bits[: (bits.size // 8) * 8])
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
