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
alone, so an edge's iterates are those of its own loop.  For the capacity,
an edge whose value reaches the least value + gap of any edge cannot be
the minimum, and stops early.  No dense model of the tree is built.

``polytree_capacity`` and ``wiretapped_polytree_bounds`` are the module's
two routes; a single channel is a one-edge tree ``Polytree(2, (edge(0, 1,
W),))``.  Both read the edges' ``Dmc`` rows, which ``Dmc`` checked when
it was built.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConvergenceError, ModelError
from .models import CapacityReport, Polytree
from .prob import ZERO_CUTOFF

#: Blahut-Arimoto iteration cap.
BA_MAX_ITER = 100_000


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


def _gradient(chans, r: np.ndarray) -> np.ndarray:
    # g_x = D(W_x||rW) - D(V_x||rV), without the V term when there is no wiretap
    g = _divergences(chans[0], r)
    return g if len(chans) == 1 else g - _divergences(chans[1], r)


def _lower(ceil, bound: float) -> float:
    # the running ceiling, a one-item list, lowered to ``bound``; infinite without one
    if ceil is None:
        return np.inf
    ceil[0] = min(ceil[0], bound)
    return ceil[0]


def _stop(value, gap, tol: float, top: float) -> Optional[str]:
    # why an edge leaves its loop: its gap certifies it, or its value reached the ceiling
    return "gap" if gap <= tol else "bound" if value >= top else None


def _ascend_one(chans, r: np.ndarray, it: int, tol: float, max_iter: int, ceil):
    """The Arimoto loop of one edge from input ``r`` at step ``it``; yields after each step."""
    while True:
        g = _gradient(chans, r)
        value = float(r @ g)
        gap = float(g.max()) - value
        stop = _stop(value, gap, tol, _lower(ceil, value + gap))
        if stop or it == max_iter:
            return value, r, it, gap, stop
        r = r * np.exp2(g)
        r = r / r.sum()
        it += 1
        yield


def _edge_ascent(ws: list, tol: float, max_iter: int, ceil, out: list, idx):
    """Arimoto ascent of I(T;Y) - I(T;Z) from the uniform input, for a stack of edges.

    ``ws`` holds an (E, k, n) stack of channels W and, for a Z term, an
    (E, k, n_z) stack V.  Each edge steps r <- r 2^g / sum with
    g_x = D(W_x||rW) - D(V_x||rV); its value r.g plus its Frank-Wolfe gap
    max_x g_x - r.g bounds its maximum over all inputs.  It leaves the stack
    on "gap", a gap at most ``tol``, or on "bound", a value at least the
    ceiling U in ``ceil`` (a one-item list, lowered in place to the least
    such bound over every edge and step so far): then its maximum is at
    least the least one, so it cannot lower the minimum.  Every operation
    acts on each edge alone, so its iterates are those of its own loop.  A
    generator, one step per ``next``: edge e's (value, r, iterations, gap,
    stopped) at its last evaluated r goes to ``out[idx[e]]``, stopped None
    at ``max_iter``.  Only the capacity minimum prunes: a wiretapped tree
    reports each edge's gap, and its upper bound, the least value + gap,
    could rise if an edge stopped early.
    """
    if not 0 < tol < np.inf:
        raise ModelError(f"tolerance must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ModelError("iteration cap must be >= 1")
    live = np.asarray(idx)  # index into ``out`` of each stacked row
    r = np.full((live.size, ws[0].shape[1]), 1.0 / ws[0].shape[1])
    it = 1
    chans = [_hoist(w) for w in ws]
    while live.size > 1:
        g = _gradient(chans, r)
        value = (r[:, None, :] @ g[:, :, None])[:, 0, 0]
        gap = g.max(axis=1) - value
        top = np.inf if ceil is None else _lower(ceil, float((value + gap).min()))
        done = (gap <= tol) | (value >= top) | (it == max_iter)
        if done.any():
            for i in np.flatnonzero(done):
                out[live[i]] = (float(value[i]), r[i], it, float(gap[i]),
                                _stop(value[i], gap[i], tol, top))
            keep = ~done
            live, r, g = live[keep], r[keep], g[keep]
            ws = [w[keep] for w in ws]
            chans = [_hoist(w) for w in ws]
        if live.size:
            r = r * np.exp2(g)
            r = r / r.sum(axis=1, keepdims=True)
            it += 1
        yield
    if live.size:
        chans = [_hoist(w[0]) for w in ws]
        out[live[0]] = yield from _ascend_one(chans, r[0], it, tol, max_iter, ceil)


def _ascend_edges(edges: list, tol: float, max_iter: int, ceil=None) -> list:
    """``_edge_ascent`` runs of the edges' channels ([W] or [W, V]), in order, a stack per shape.

    The stacks step in turn, so every edge meets the ceiling of all edges'
    bounds so far, whatever the order of the shapes.
    """
    groups: dict = {}
    for i, ws in enumerate(edges):
        groups.setdefault(tuple(w.shape for w in ws), []).append(i)
    out = [None] * len(edges)
    stacks = [_edge_ascent([np.stack(w) for w in zip(*(edges[i] for i in idx))],
                           tol, max_iter, ceil, out, idx) for idx in groups.values()]
    while stacks:
        stacks = [s for s in stacks if next(s, "done") is None]  # one step each
    return out


def _uncapped(run, max_iter: int):
    """``run`` with value and gap clamped at 0; ConvergenceError if it hit the cap."""
    value, r, it, gap, stop = run
    if stop is None:
        raise ConvergenceError(
            f"Blahut-Arimoto hit the {max_iter}-iteration cap (gap {gap:.3e})", gap=gap
        )
    return max(value, 0.0), r, it, max(gap, 0.0), stop


def polytree_capacity(g: Polytree, tol: float = 1e-9) -> CapacityReport:
    """Noninteractive SK capacity of a polytree-PIN: the least edge capacity C*.

    The edges run ``_edge_ascent`` at ``BA_MAX_ITER`` under one ceiling U >= C*.
    The value, the least edge value, lies in [C* - tol, C*]: a minimizing
    edge's value is at most C*, a gap-stopped edge is within ``tol`` of its
    capacity and a bound-stopped one is at least U.  The product of the
    witness inputs achieves the value.  The witness records each edge's
    value, input, steps, gap and stop, and ``upper``, the final U.  An edge
    at the cap with neither stop raises, the first in edge order.
    """
    ceil = [np.inf]
    runs = _ascend_edges([[e.channel.rows] for e in g.edges], tol, BA_MAX_ITER, ceil)
    edges = [
        {"edge": [e.sender + 1, e.receiver + 1], "value": value,
         "optimal_input": [float(x) for x in r], "iterations": it, "gap": gap, "stopped": stop}
        for e, (value, r, it, gap, stop) in zip(g.edges, [_uncapped(x, BA_MAX_ITER) for x in runs])
    ]
    return CapacityReport(min(x["value"] for x in edges), "exact", "polytree-min-edge-ba",
                          {"edges": edges, "upper": max(ceil[0], 0.0)})


def _edge_channels(e) -> list:
    """[W(y|t), W(z|t)] of edge ``e``; [W(y|t)], no Z term, without a wiretap."""
    w_y = e.channel.rows
    return [w_y] if e.wiretap is None else [w_y, w_y @ e.wiretap.rows]


def wiretapped_polytree_bounds(
    g: Polytree, tol: float = 1e-9
) -> tuple[CapacityReport, CapacityReport]:
    """Wiretap key-capacity bounds for a wiretapped polytree-PIN, A = all terminals.

    Every edge is a cut, so the key capacity is min_e max_p I(T_e;Y_e|Z_e).
    Each edge runs ``_edge_ascent`` of I(T;Y) - I(T;Z), which equals
    I(T;Y|Z) under T - Y - Z; an edge without a wiretap has no Z term.
    Lower: min over edges of the certified value.  Upper: min over edges
    of that value plus its Frank-Wolfe gap, a bound over all inputs.  An
    edge at ``BA_MAX_ITER`` is not an error: both bounds stay valid, and
    its ``converged`` is false.  Lower <= upper needs no check: both take
    each edge's clamped value, and the upper one adds a gap clamped to >= 0.
    """
    runs = _ascend_edges([_edge_channels(e) for e in g.edges], tol, BA_MAX_ITER)
    low, up = [], []
    for e, (value, r, _, gap, stop) in zip(g.edges, runs):
        value, gap = max(value, 0.0), max(gap, 0.0)
        name = [e.sender + 1, e.receiver + 1]
        low.append({"edge": name, "value": value, "optimal_input": [float(x) for x in r],
                    "converged": stop == "gap"})
        up.append({"edge": name, "value": value + gap, "gap": gap})
    lower = CapacityReport(min(x["value"] for x in low), "lower_bound", "wiretapped-pin-edges",
                           {"edges": low, "all_converged": all(x["converged"] for x in low)})
    upper = CapacityReport(min(x["value"] for x in up), "upper_bound",
                           "wiretapped-pin-edge-cut", {"edges": up})
    return lower, upper
