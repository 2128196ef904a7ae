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
so both edge objectives share ``_edge_ascent``: Arimoto's multiplicative
step (with the wiretap term as in Yasui, Suko and Matsushima, ISIT 2007)
until its Frank-Wolfe gap, a bound over all inputs, is at most ``tol``.
No dense model of the tree is built.
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
    if np.any(rows < 0):
        raise ModelError("channel has negative entries")
    sums = rows.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > 1e-12)[0]
    if bad.size:
        raise ModelError(f"channel row {int(bad[0])} sums to {float(sums[bad[0]])!r}")
    return rows


def _divergences(rows: np.ndarray, p_y: np.ndarray) -> np.ndarray:
    # d[x] = D(W(.|x) || p_y) in bits, rows with zeros handled by masking
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(
            rows > ZERO_CUTOFF,
            np.log2(np.maximum(rows, 1e-300) / np.maximum(p_y, 1e-300)),
            0.0,
        )
    return (rows * logs).sum(axis=1)


def mutual_information_matrix(p_in: np.ndarray, rows: np.ndarray) -> float:
    """I(T; Y) in bits for input distribution ``p_in`` through ``rows``."""
    return float(p_in @ _divergences(rows, p_in @ rows))


def _edge_ascent(w_y: np.ndarray, w_z: Optional[np.ndarray], tol: float, max_iter: int):
    """Arimoto ascent of I(T;Y) - I(T;Z) from the uniform input; no Z if ``w_z`` is None.

    Step r <- r 2^g / sum with g_x = D(W_x||rW) - D(V_x||rV), V = ``w_z``,
    until the Frank-Wolfe gap max_x g_x - r.g is at most ``tol``.  Returns
    (value, r, iterations, gap, converged) at the last evaluated r.
    """
    if not 0 < tol < np.inf:
        raise ModelError(f"tolerance must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ModelError("iteration cap must be >= 1")
    k = w_y.shape[0]
    r = np.full(k, 1.0 / k)
    for it in range(1, max_iter + 1):
        g = _divergences(w_y, r @ w_y)
        if w_z is not None:
            g = g - _divergences(w_z, r @ w_z)
        value = float(r @ g)
        gap = float(g.max()) - value
        if gap <= tol or it == max_iter:
            return value, r, it, gap, gap <= tol
        r = r * np.exp2(g)
        r = r / r.sum()


def edge_capacity(channel, tol: float = 1e-9, max_iter: int = BA_MAX_ITER,
                  edge: Optional[tuple[int, int]] = None) -> EdgeCapacityResult:
    """Channel capacity by Blahut-Arimoto from the uniform input.

    Certified by the standard per-iteration bounds: the achieved mutual
    information I(r) lower-bounds capacity and max_x D(W(.|x)||p_y)
    upper-bounds it; iteration stops when their gap is at most ``tol``.
    """
    value, r, it, gap, converged = _edge_ascent(_rows_of(channel), None, tol, max_iter)
    if not converged:
        raise ConvergenceError(
            f"Blahut-Arimoto hit the {max_iter}-iteration cap (gap {gap:.3e})", gap=gap
        )
    return EdgeCapacityResult(edge, max(value, 0.0), r, it, max(gap, 0.0))


def polytree_capacity(g: Polytree, tol: float = 1e-9) -> CapacityReport:
    """Noninteractive SK capacity of a polytree-PIN: min over edge capacities.

    The witness records each edge's certified capacity and optimal input;
    their product is a maximizing input distribution.
    """
    results = [
        edge_capacity(e.channel, tol=tol, edge=(e.sender, e.receiver)) for e in g.edges
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
    w_y = _rows_of(channel)
    w_z = None
    if wiretap is not None:
        w_tap = _rows_of(wiretap)
        if w_tap.shape[0] != w_y.shape[1]:
            raise ModelError("wiretap input alphabet must match the edge output")
        w_z = w_y @ w_tap
    value, p, _, gap, converged = _edge_ascent(w_y, w_z, tol, max_iter)
    return WiretapEdgeResult(edge, max(value, 0.0), p, converged, max(gap, 0.0))


def wiretapped_polytree_bounds(
    g: Polytree, tol: float = 1e-9
) -> tuple[CapacityReport, CapacityReport]:
    """Wiretap key-capacity bounds for a wiretapped polytree-PIN, A = all terminals.

    Every edge is a cut, so the key capacity is min_e max_p I(T_e;Y_e|Z_e).
    Lower: min over edges of the certified I(T;Y|Z).  Upper: min over
    edges of that value plus its Frank-Wolfe gap, a bound over all inputs.
    """
    per_edge = [
        wiretapped_edge_lower(e.channel, e.wiretap, tol=tol, edge=(e.sender, e.receiver))
        for e in g.edges
    ]
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
