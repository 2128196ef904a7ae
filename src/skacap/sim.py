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
(purpose, edge or block number), so runs are bit-reproducible.  Codes and
hashes draw from ``_rng(seed, namespace, edge)``.  Block b reads the raw
PCG64 stream seeded by ``SeedSequence([seed, _NS_BLOCK, b])``, edge by edge:
n sender bits from uint32 halves, then n noise words (``_draw_blocks`` gives
the layout).  These are the draws ``Generator.integers(0, 2, n, uint8)`` and
``Generator.random(n) < p`` make, but the schedule is stated in terms of the
seed sequence and the raw stream, which numpy keeps stable (NEP 19).
Seeding one stream per block is the only loop over blocks; the seed words of
all blocks are one pass of uint32 arithmetic, and after the draws everything
works on whole arrays of blocks: syndromes and Toeplitz hashes are mod-2
matrix products, the decode table is a sorted array searched once per block,
and decode checks, agreement and key forwarding are array compares and XORs.
"""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DecodeBudgetError, ModelError, RateInfeasibleError, SkacapError
from .models import PartySpec, Polytree, as_mask, bits, require_pair
from .prob import binary_entropy

#: Exhaustive-decoder guards.
MAX_BLOCK_LEN = 28
MAX_TABLE_PATTERNS = 1 << 21
#: Most blocks per run: every block index is then one 32-bit seed word.
MAX_BLOCKS = 1 << 32

#: Blocks per kernel pass, which bounds the per-block arrays in memory.
_CHUNK_BLOCKS = 4096
#: Raw stream words per draw pass, which bounds them in memory.
_DRAW_WORDS = 1 << 16
#: Parent patterns per step of the decode-table build.
_GROW_CHUNK = 4096

#: Seed-schedule namespaces.
_NS_CODE = 0
_NS_HASH = 1
_NS_BLOCK = 2

_Z95 = 1.959963984540054

#: numpy's ``SeedSequence`` hash constants (a pool of four uint32 words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


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
        if not 1 <= self.blocks <= MAX_BLOCKS:
            raise ModelError(f"need between 1 and {MAX_BLOCKS} blocks")
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
    Up to ``MAX_TABLE_PATTERNS`` keys, a dense array keeps the least
    (weight, lex) ordinal of each key as the patterns come; past it the
    table cannot fill, and one stable sort of every pattern's key picks
    the first.
    """
    bit = np.int32(1) << np.arange(n, dtype=np.int32)
    level = (np.zeros(1, dtype=np.int32),) * 2  # keys and patterns of weight w - 1, in lex order
    dense = full <= MAX_TABLE_PATTERNS
    unseen = np.iinfo(np.int32).max
    first = np.full(full if dense else 1, unseen, dtype=np.int32)  # least ordinal of each key
    best = np.zeros_like(first)  # the pattern at that ordinal
    first[0] = 0
    every = [level]  # all patterns in order, for the sort
    ordinal = seen = 1  # of the next pattern in (weight, lex) order
    for w in range(1, w_max + 1):
        if seen == full:
            break
        grown = []
        for lo in range(0, level[0].size, _GROW_CHUNK):
            key, patt = (a[lo : lo + _GROW_CHUNK] for a in level)
            last = np.frexp(patt)[1] - 1  # highest error position, -1 for none
            count = n - 1 - last
            parent = np.repeat(np.arange(key.size), count)
            pos = np.arange(parent.size) - np.repeat(np.cumsum(count) - n, count)
            child = (key[parent] ^ cols[pos], patt[parent] | bit[pos])
            if w < w_max:
                grown.append(child)
            if dense:
                at = np.arange(ordinal, ordinal + child[0].size, dtype=np.int32)
                np.minimum.at(first, child[0], at)
                won = first[child[0]] == at
                best[child[0][won]] = child[1][won]
                seen += int(np.count_nonzero(won))
            else:
                every.append(child)
            ordinal += child[0].size
        if grown:
            level = tuple(map(np.concatenate, zip(*grown)))
    if dense:
        keys = np.flatnonzero(first != unseen).astype(np.int32)
        return keys, best[keys]
    all_keys, all_patterns = map(np.concatenate, zip(*every))
    keys, at = np.unique(all_keys, return_index=True)
    return keys, all_patterns[at]


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
    """Subtree spanning A, rooted at min(A): the root, BFS edge list, edge ids."""
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
    return root, tree, sub_edges


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


def _key_terminals(g: Polytree, a) -> set[int]:
    """A as a set of terminal indices: at least two, all of them in ``g``."""
    mask = as_mask(a, g.m)
    require_pair(mask)
    return set(bits(PartySpec(g.m, mask).a))


def _prepare(g: Polytree, a, cfg: SimConfig) -> _Static:
    a_nodes = _key_terminals(g, a)
    crossovers = {i: _bsc_crossover(e) for i, e in enumerate(g.edges)}
    root, tree, sub_edges = _steiner_subtree(g, a_nodes)
    key_len = int(math.floor(cfg.n * cfg.rate))
    if key_len < 1:
        raise RateInfeasibleError(
            f"key_len = floor({cfg.n} * {cfg.rate}) < 1", max_feasible_rate=None
        )
    r = {eid: parity_count(cfg.n, crossovers[eid], cfg.recon_margin) for eid in sub_edges}
    max_rate = max(cfg.n - max(r.values()) - cfg.pa_margin, 0) / cfg.n  # per channel use
    if key_len / cfg.n > max_rate:
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


def _block_seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence([seed, _NS_BLOCK, b]).generate_state(4, np.uint64)`` of
    each block b = lo..hi-1, as rows of a (blocks, 4) array.

    One pass of uint32 arithmetic over all blocks, as numpy hashes and mixes
    its pool: the entropy words are the seed's one or two 32-bit words (low
    first), the namespace and b, zero-padded to four; the hash constants
    advance on every hash whatever the data, so they are the same per block.
    """
    seed = int(seed) & (2**64 - 1)
    b = np.arange(lo, hi, dtype=np.uint32)
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else []) + [_NS_BLOCK]
    entropy = [np.full_like(b, w) for w in words] + [b]
    entropy += [np.zeros_like(b)] * (4 - len(entropy))

    def hasher(const, mult):
        def hash_(v):
            nonlocal const
            v = v ^ np.uint32(const)
            const = const * mult & _MASK32
            v = v * np.uint32(const)
            return v ^ (v >> np.uint32(16))

        return hash_

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(v) for v in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = np.uint32(_MIX_MULT_L) * pool[dst]
                v -= np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = v ^ (v >> np.uint32(16))
    out = hasher(_INIT_B, _MULT_B)
    halves = [out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([halves[i] | (halves[i + 1] << np.uint64(32)) for i in (0, 2, 4, 6)], 1)


def _stream_layout(n: int, edges: int):
    """Where the draws of each edge sit in a block's raw words.

    Returns the words per block, the byte (of the words read as
    little-endian bytes) whose top bit is each sent bit, and the word of
    each noise draw, the last two as (edges, n) arrays.  An edge's sent bits
    take ceil(n / 4) uint32 halves, low half first; a high half left over is
    the next half read, after any noise words, as PCG64 buffers it.
    """
    width, kept = 0, None
    sent_byte, noise_word = [], []
    for _ in range(edges):
        halves = []
        for _ in range(-(-n // 4)):
            if kept is None:
                halves.append(8 * width)
                kept, width = width, width + 1
            else:
                halves.append(8 * kept + 4)
                kept = None
        sent_byte.append([h + j for h in halves for j in range(4)][:n])
        noise_word.append(range(width, width + n))
        width += n
    return width, np.array(sent_byte), np.array(noise_word)


def _noise_cut(p: float) -> int:
    """The least word w with ``(w >> 11) 2**-53 >= p``: an integer x has
    x 2**-53 < p exactly when x < ceil(p 2**53), the scaling being exact."""
    return math.ceil(p * 2.0**53) << 11


def _draw_blocks(st: _Static, lo: int, hi: int):
    """Sender bits and BSC noise of blocks lo..hi-1, as (edges, blocks, n) uint8.

    This is the seed schedule.  Block b reads the raw PCG64 stream seeded by
    ``SeedSequence([seed, _NS_BLOCK, b])``, edge by edge in ``sub_edges``
    order.  An edge reads ceil(n / 4) uint32 halves (each 64-bit word gives
    its low half, then its high half, and a half left over is the next
    edge's first); its sent bits are the top bits of their first n bytes,
    little-endian.  Then it reads n words w, and ``noise = (w >> 11) 2**-53
    < p``.  These are ``Generator.integers(0, 2, n, uint8)`` (Lemire's
    bound with range 2 never rejects) and ``Generator.random(n) < p``.
    """
    n = st.cfg.n
    width, sent_byte, noise_word = _stream_layout(n, len(st.sub_edges))
    cut = np.array([_noise_cut(st.p[eid]) for eid in st.sub_edges], dtype=np.uint64)[:, None]
    seeds = _block_seed_words(st.cfg.seed, lo, hi).tolist()
    sent = np.empty((len(st.sub_edges), hi - lo, n), dtype=np.uint8)
    noise = np.empty_like(sent)
    bitgen = np.random.PCG64(0)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    step = max(1, _DRAW_WORDS // width)
    for start in range(0, hi - lo, step):
        rows = seeds[start : start + step]
        raw = np.empty((len(rows), width), dtype=np.uint64)
        for i, (s_hi, s_lo, i_hi, i_lo) in enumerate(rows):
            # PCG64 seeding: inc from words 2-3; from state 0, step, add words 0-1, step
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            start_state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            state["state"] = {"state": start_state, "inc": inc}
            bitgen.state = state
            raw[i] = bitgen.random_raw(width)
        at = slice(start, start + len(rows))
        by = raw.astype("<u8", copy=False).view(np.uint8)
        sent[:, at] = (by[:, sent_byte] >> 7).swapaxes(0, 1)
        noise[:, at] = (raw[:, noise_word] < cut).swapaxes(0, 1)
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
    the root keys (blocks x key_len) and, when lo is 0, the transcript of
    block 0 (None otherwise).
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
    return decode_ok, agree, root_key, _transcript(st, sent, masks, keys) if lo == 0 else None


def run_sim(g: Polytree, a, cfg: SimConfig, csv_path: Optional[str] = None) -> SimResult:
    """Run ``cfg.blocks`` independent protocol executions and score them.

    Deterministic given the seed: block b's randomness is derived from
    (seed, block-namespace, b).  Rate infeasibility, and then a ``csv_path``
    that cannot be opened for writing, are reported before any sampling
    happens.
    """
    st = _prepare(g, a, cfg)
    try:  # before the first block, so that an unwritable path costs no run
        out = nullcontext() if csv_path is None else open(csv_path, "w", newline="")
    except OSError as exc:
        raise SkacapError(f"cannot write CSV file: {exc}") from exc
    with out as fh:
        starts = range(0, cfg.blocks, _CHUNK_BLOCKS)
        chunks = [_run_blocks(st, lo, min(lo + _CHUNK_BLOCKS, cfg.blocks)) for lo in starts]
        decode_ok, agree, root_keys, transcripts = zip(*chunks)
        decode_ok = np.concatenate(decode_ok, axis=1)
        agree = np.concatenate(agree)
        labels = [_edge_label(g, eid) for eid in st.sub_edges]
        if fh is not None:
            writer = csv.writer(fh)
            writer.writerow(
                ["block_id"] + [f"decode_ok_{label}" for label in labels] + ["agree"]
            )
            rows = np.column_stack([np.arange(cfg.blocks), decode_ok.T, agree])
            writer.writerows(rows.tolist())
    failed = int(np.count_nonzero(~agree))

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
    """Chi-square p-value of the key bytes (or of their top bits, when too
    few) against uniform, as ``scipy.stats.chisquare`` computes it."""
    from scipy.special import chdtrc  # here, not at the top: scipy adds to the import time

    if bits.size < 64:
        return None
    by = np.packbits(bits[: (bits.size // 8) * 8])
    for nbins, shift in ((256, 0), (16, 4), (4, 6), (2, 7)):
        if by.size / nbins >= 5:
            counts = np.bincount(by >> shift, minlength=nbins)
            expected = counts.mean()
            return float(chdtrc(nbins - 1, np.sum((counts - expected) ** 2 / expected)))
    return None
