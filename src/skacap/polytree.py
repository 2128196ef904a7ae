"""Polytree-PIN capacities: one stacked, certified Arimoto step per edge shape.

The noninteractive SK capacity of a polytree-PIN is the max-min of the
per-edge mutual informations, and because each edge term depends only on
its own edge-input marginal the max-min separates: it equals the minimum
over edges of the ordinary channel capacity.  The decomposition is
cross-checked against the generic transceiver optimizer in the tests.

With a wiretap the key terminals are all terminals and the edges are
independent, so each edge is a cut: the key capacity is
min_e max_p I(T_e;Y_e|Z_e).  The two-party wiretap bound on each edge
gives the upper side (Ahlswede and Csiszar, IEEE Trans. IT 1993), and
per-edge keys joined by one-time pads over the tree reach it (Nitinawarat,
Ye, Barg, Narayan and Reznik, IEEE Trans. IT 2010).  Under T - Y - Z the
edge objective I(T;Y) - I(T;Z) is concave (van Dijk, IEEE Trans. IT 1997),
so both edge objectives share ``_edge_ascent``: Arimoto's multiplicative
step (with the wiretap term as in Yasui, Suko and Matsushima, ISIT 2007)
until its Frank-Wolfe gap, a bound over all inputs, is at most ``tol``.

The tree solvers step all edges of one (channel, wiretap) shape as one
stack, with the channel-only constants computed once; each edge leaves
the stack on its own stopping step, and every operation acts on each edge
alone, so an edge's iterates are those of its own loop.  No dense model
of the tree is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, InternalConsistencyError, ModelError
from .models import CapacityReport, Polytree
from .prob import Dmc, ZERO_CUTOFF

#: Blahut-Arimoto iteration cap.
BA_MAX_ITER = 100_000


@dataclass(frozen=True)
class EdgeCapacityResult:
    """Certified channel capacity of one edge."""

    edge: Optional[tuple[int, int]]
    capacity: float
    optimal_input: np.ndarray
    iterations: int
    gap: float


@dataclass(frozen=True)
class WiretapEdgeResult:
    """Certified value of max_p I(T;Y|Z) on one wiretapped edge.

    ``gap`` is the Frank-Wolfe gap at ``optimal_input``, so ``value + gap``
    bounds max_p I(T;Y|Z) from above over all inputs; ``converged`` says
    whether that gap reached the requested tolerance.
    """

    edge: Optional[tuple[int, int]]
    value: float
    optimal_input: np.ndarray
    converged: bool
    gap: float


def _rows_of(channel) -> np.ndarray:
    rows = channel.rows if isinstance(channel, Dmc) else np.asarray(channel, dtype=float)
    if rows.ndim != 2:
        raise ModelError("channel must be a matrix")
    if not np.all(np.isfinite(rows)):
        raise ModelError("channel has a non-finite entry")
    if np.any(rows < 0):
        raise ModelError("channel has negative entries")
    sums = rows.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > 1e-12)[0]
    if bad.size:
        raise ModelError(f"channel row {int(bad[0])} sums to {float(sums[bad[0]])!r}")
    return rows


def _hoist(w: np.ndarray):
    """The channel-only constants of a divergence step, for one channel or a stack.

    Returns (w, w clamped to >= 1e-300, mask of entries <= ZERO_CUTOFF or
    None when there are none).  Both operands of the step's division are
    clamped, so its log2 never sees 0 or infinity.
    """
    zero = w <= ZERO_CUTOFF
    return w, np.maximum(w, 1e-300), zero if zero.any() else None


def _divergences(chan, r: np.ndarray) -> np.ndarray:
    # d[..., x] = D(W_x || rW) in bits; r is (k,) or a stack (E, k)
    w, w_safe, zero = chan
    logs = np.log2(w_safe / np.maximum(r[..., None, :] @ w, 1e-300))
    if zero is not None:
        logs[zero] = 0.0
    return (w * logs).sum(axis=-1)


def mutual_information_matrix(p_in: np.ndarray, rows: np.ndarray) -> float:
    """I(T; Y) in bits for input distribution ``p_in`` through ``rows``."""
    return float(p_in @ _divergences(_hoist(rows), p_in))


def _gradient(chans, r: np.ndarray) -> np.ndarray:
    # g_x = D(W_x||rW) - D(V_x||rV), without the V term when there is no wiretap
    g = _divergences(chans[0], r)
    return g if len(chans) == 1 else g - _divergences(chans[1], r)


def _ascend_one(chans, r: np.ndarray, it: int, tol: float, max_iter: int):
    """The Arimoto loop of one edge from input ``r`` at step ``it``."""
    while True:
        g = _gradient(chans, r)
        value = float(r @ g)
        gap = float(g.max()) - value
        if gap <= tol or it == max_iter:
            return value, r, it, gap, gap <= tol
        r = r * np.exp2(g)
        r = r / r.sum()
        it += 1


def _edge_ascent(w_y: np.ndarray, w_z: Optional[np.ndarray], tol: float, max_iter: int):
    """Arimoto ascent of I(T;Y) - I(T;Z) from the uniform input, for a stack of edges.

    ``w_y`` is an (E, k, n) stack of channels and ``w_z`` an (E, k, n_z)
    stack or None (no Z term).  Each edge steps r <- r 2^g / sum with
    g_x = D(W_x||rW) - D(V_x||rV), V = its ``w_z``, until its Frank-Wolfe
    gap max_x g_x - r.g is at most ``tol``; then it leaves the stack.  Every
    operation acts on each edge alone, so its iterates are those of its own
    loop.  Returns one (value, r, iterations, gap, converged) per edge, at
    the last evaluated r.
    """
    if not 0 < tol < np.inf:
        raise ModelError(f"tolerance must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ModelError("iteration cap must be >= 1")
    ws = [w_y] if w_z is None else [w_y, w_z]
    n_edges, k = w_y.shape[:2]
    live = np.arange(n_edges)  # edge index of each stacked row
    r = np.full((n_edges, k), 1.0 / k)
    out = [None] * n_edges
    it = 1
    chans = [_hoist(w) for w in ws]
    while live.size > 1:
        g = _gradient(chans, r)
        value = (r[:, None, :] @ g[:, :, None])[:, 0, 0]
        gap = g.max(axis=1) - value
        done = (gap <= tol) | (it == max_iter)
        if done.any():
            for i in np.flatnonzero(done):
                out[live[i]] = (float(value[i]), r[i], it, float(gap[i]), bool(gap[i] <= tol))
            keep = ~done
            live, r, g = live[keep], r[keep], g[keep]
            ws = [w[keep] for w in ws]
            chans = [_hoist(w) for w in ws]
        if live.size:
            r = r * np.exp2(g)
            r = r / r.sum(axis=1, keepdims=True)
            it += 1
    if live.size:
        out[live[0]] = _ascend_one([_hoist(w[0]) for w in ws], r[0], it, tol, max_iter)
    return out


def _ascend_edges(pairs, tol: float, max_iter: int) -> list:
    """``_edge_ascent`` of each (w_y, w_z) pair, in order: one stacked call per shape."""
    groups: dict = {}
    for i, (w_y, w_z) in enumerate(pairs):
        groups.setdefault((w_y.shape, None if w_z is None else w_z.shape), []).append(i)
    out = [None] * len(pairs)
    for idx in groups.values():
        w_z = None if pairs[idx[0]][1] is None else np.stack([pairs[i][1] for i in idx])
        runs = _edge_ascent(np.stack([pairs[i][0] for i in idx]), w_z, tol, max_iter)
        for i, run in zip(idx, runs):
            out[i] = run
    return out


def _capacity_result(edge, run, max_iter: int) -> EdgeCapacityResult:
    value, r, it, gap, converged = run
    if not converged:
        raise ConvergenceError(
            f"Blahut-Arimoto hit the {max_iter}-iteration cap (gap {gap:.3e})", gap=gap
        )
    return EdgeCapacityResult(edge, max(value, 0.0), r, it, max(gap, 0.0))


def edge_capacity(channel, tol: float = 1e-9, max_iter: int = BA_MAX_ITER,
                  edge: Optional[tuple[int, int]] = None) -> EdgeCapacityResult:
    """Channel capacity by Blahut-Arimoto from the uniform input.

    Certified by the standard per-iteration bounds: the achieved mutual
    information I(r) lower-bounds capacity and max_x D(W(.|x)||p_y)
    upper-bounds it; iteration stops when their gap is at most ``tol``.
    """
    run = _ascend_edges([(_rows_of(channel), None)], tol, max_iter)[0]
    return _capacity_result(edge, run, max_iter)


def polytree_capacity(g: Polytree, tol: float = 1e-9) -> CapacityReport:
    """Noninteractive SK capacity of a polytree-PIN: min over edge capacities.

    The edges run as ``edge_capacity`` at ``BA_MAX_ITER``; at the cap the
    first capped edge in edge order raises.  The witness records each
    edge's certified capacity and optimal input; their product is a
    maximizing input distribution.
    """
    runs = _ascend_edges([(_rows_of(e.channel), None) for e in g.edges], tol, BA_MAX_ITER)
    results = [
        _capacity_result((e.sender, e.receiver), run, BA_MAX_ITER)
        for e, run in zip(g.edges, runs)
    ]
    value = min(r.capacity for r in results)
    witness = {
        "edges": [
            {
                "edge": [r.edge[0] + 1, r.edge[1] + 1],
                "capacity": r.capacity,
                "optimal_input": [float(x) for x in r.optimal_input],
                "iterations": r.iterations,
                "gap": r.gap,
            }
            for r in results
        ]
    }
    return CapacityReport(value, "exact", "polytree-min-edge-ba", witness)


def _wiretap_pair(channel, wiretap) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(W(y|t), W(z|t)) of one edge; no Z term without a wiretap."""
    w_y = _rows_of(channel)
    if wiretap is None:
        return w_y, None
    w_tap = _rows_of(wiretap)
    if w_tap.shape[0] != w_y.shape[1]:
        raise ModelError("wiretap input alphabet must match the edge output")
    return w_y, w_y @ w_tap


def _wiretap_result(edge, run) -> WiretapEdgeResult:
    value, p, _, gap, converged = run
    return WiretapEdgeResult(edge, max(value, 0.0), p, converged, max(gap, 0.0))


def wiretapped_edge_lower(
    channel, wiretap, tol: float = 1e-9, max_iter: int = BA_MAX_ITER,
    edge: Optional[tuple[int, int]] = None,
) -> WiretapEdgeResult:
    """Certified max_p [I(T;Y) - I(T;Z)] under the Markov chain T - Y - Z.

    Equals max_p I(T;Y|Z) by the Markov identity, so it lower-bounds the
    edge's wiretap key rate; an edge without a wiretap has no Z term.  The
    objective is concave, so the Frank-Wolfe gap at the returned input
    certifies value + gap as an upper bound over all inputs.  Hitting
    ``max_iter`` is not an error: both bounds stay valid, and the result
    says ``converged=False``.
    """
    run = _ascend_edges([_wiretap_pair(channel, wiretap)], tol, max_iter)[0]
    return _wiretap_result(edge, run)


def wiretapped_polytree_bounds(
    g: Polytree, tol: float = 1e-9
) -> tuple[CapacityReport, CapacityReport]:
    """Wiretap key-capacity bounds for a wiretapped polytree-PIN, A = all terminals.

    Every edge is a cut, so the key capacity is min_e max_p I(T_e;Y_e|Z_e).
    Lower: min over edges of the certified I(T;Y|Z).  Upper: min over
    edges of that value plus its Frank-Wolfe gap, a bound over all inputs.
    """
    runs = _ascend_edges([_wiretap_pair(e.channel, e.wiretap) for e in g.edges],
                         tol, BA_MAX_ITER)
    per_edge = [_wiretap_result((e.sender, e.receiver), run) for e, run in zip(g.edges, runs)]
    lower = CapacityReport(
        min(r.value for r in per_edge),
        "lower_bound",
        "wiretapped-pin-edges",
        {
            "edges": [
                {
                    "edge": [r.edge[0] + 1, r.edge[1] + 1],
                    "value": r.value,
                    "optimal_input": [float(x) for x in r.optimal_input],
                    "converged": r.converged,
                }
                for r in per_edge
            ],
            "all_converged": all(r.converged for r in per_edge),
        },
    )
    upper = CapacityReport(
        min(r.value + r.gap for r in per_edge),
        "upper_bound",
        "wiretapped-pin-edge-cut",
        {
            "edges": [
                {
                    "edge": [r.edge[0] + 1, r.edge[1] + 1],
                    "value": r.value + r.gap,
                    "gap": r.gap,
                }
                for r in per_edge
            ]
        },
    )
    if lower.value > upper.value + 1e-7:
        raise InternalConsistencyError(
            f"wiretap lower bound {lower.value} exceeds upper bound {upper.value}"
        )
    return lower, upper
