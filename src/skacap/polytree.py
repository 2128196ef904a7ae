"""Polytree-PIN capacities: one certified Arimoto loop per edge.

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
so both edge objectives share ``_ascend``: Arimoto's multiplicative step
(with the wiretap term as in Yasui, Suko and Matsushima, ISIT 2007) until
its Frank-Wolfe gap, a bound over all inputs, is at most ``tol``.

The tree solvers run each edge's own loop, the edges stepped in turn.
For the capacity, an edge whose value reaches the least value + gap of
any edge cannot be the minimum, and stops early: at each step every edge
lowers that shared ceiling before any edge compares with it, so where an
edge stops does not depend on the order of the edges.  No dense model of
the tree is built.

``polytree_capacity`` and ``wiretapped_polytree_bounds`` are the module's
two routes; a single channel is a one-edge tree ``Polytree(2, (edge(0, 1,
W),))``.  Both read the edges' ``Dmc`` rows, which ``Dmc`` checked when
it was built.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ModelError
from .models import CapacityReport, Polytree
from .prob import ZERO_CUTOFF

#: Blahut-Arimoto iteration cap.
BA_MAX_ITER = 100_000


def _hoist(w: np.ndarray):
    """The channel-only constants of one channel's divergence step.

    Returns (w, w clamped to >= 1e-300, mask of entries <= ZERO_CUTOFF or
    None when there are none).  Both operands of the step's division are
    clamped, so its log2 never sees 0 or infinity.
    """
    zero = w <= ZERO_CUTOFF
    return w, np.maximum(w, 1e-300), zero if zero.any() else None


def _divergences(chan, r: np.ndarray) -> np.ndarray:
    # d[x] = D(W_x || rW) in bits
    w, w_safe, zero = chan
    logs = np.log2(w_safe / np.maximum(r[None, :] @ w, 1e-300))
    if zero is not None:
        logs[zero] = 0.0
    return (w * logs).sum(axis=-1)


def _gradient(chans, r: np.ndarray) -> np.ndarray:
    # g_x = D(W_x||rW) - D(V_x||rV), without the V term when there is no wiretap
    g = _divergences(chans[0], r)
    return g if len(chans) == 1 else g - _divergences(chans[1], r)


def _ascend(chans, tol: float, max_iter: int, ceil):
    """Arimoto ascent of I(T;Y) - I(T;Z) for one edge, from the uniform input.

    ``chans`` holds the hoisted channel W and, for a Z term, V.  The edge
    steps r <- r 2^g / sum with g_x = D(W_x||rW) - D(V_x||rV); its value
    r.g plus its Frank-Wolfe gap max_x g_x - r.g bounds its maximum over
    all inputs.  It stops on "gap", a gap at most ``tol``, or on "bound", a
    value at least the ceiling U in ``ceil`` (a one-item list, or None for
    no ceiling): then its maximum is at least the least bound of any edge,
    so it cannot lower the minimum.  A generator that yields twice a step,
    after lowering U to its value + gap and after comparing with U, so
    edges stepped in turn each compare with every edge's bound of that
    step.  Returns (value, r, iterations, gap, stopped) at its last
    evaluated r, stopped None at ``max_iter``.
    """
    k = chans[0][0].shape[0]
    r = np.full(k, 1.0 / k)
    it = 1
    while True:
        g = _gradient(chans, r)
        value = float(r @ g)
        gap = float(g.max()) - value
        if ceil is not None:
            ceil[0] = min(ceil[0], value + gap)
        yield
        stop = "gap" if gap <= tol else "bound" if ceil is not None and value >= ceil[0] else None
        if stop or it == max_iter:
            return value, r, it, gap, stop
        r = r * np.exp2(g)
        r = r / r.sum()
        it += 1
        yield


def _ascend_edges(edges: list, tol: float, max_iter: int, ceil=None) -> list:
    """``_ascend`` runs of the edges' channels ([W] or [W, V]), in order, stepped in turn.

    Only the capacity minimum prunes: a wiretapped tree passes no ceiling
    and reports each edge's gap, since its upper bound, the least value +
    gap, could rise if an edge stopped early.
    """
    if not 0 < tol < np.inf:
        raise ModelError(f"tolerance must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ModelError("iteration cap must be >= 1")
    out = [None] * len(edges)

    def run(i, ws):
        out[i] = yield from _ascend([_hoist(w) for w in ws], tol, max_iter, ceil)

    steps = [run(i, ws) for i, ws in enumerate(edges)]
    while steps:
        steps = [s for s in steps if next(s, "done") is None]  # half a step each
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

    The edges run ``_ascend`` at ``BA_MAX_ITER`` under one ceiling U >= C*.
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
    Each edge runs ``_ascend`` of I(T;Y) - I(T;Z), which equals
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
