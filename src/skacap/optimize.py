"""Deterministic multistart coordinate ascent over products of simplices.

Used only by the noninteractive capacity optimizer of transceiver models;
the concave per-edge objectives of a polytree have their own certified
loop in ``polytree.py``.  The objective is treated as a black box; it is
piecewise smooth but not assumed concave, so the search is honest:
multistart (Dirichlet restarts split from one master seed, plus a coarse
grid pass), cyclic line searches along mass-exchange directions, and an
explicit converged flag.

The line search first scans the segment, centers on the plateau of
near-maximal scan values, then refines by golden section.  Centering
matters: objectives of min-of-concave shape (polytree capacities) have
flat plateaus along single coordinates, and a plateau-edge point would
stall the ascent one coordinate at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ModelError

#: Cap on the number of coarse grid seeds actually evaluated.
GRID_CAP = 128

#: Scan points per line search (including both endpoints).
SCAN_POINTS = 9

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class InputOptimizerConfig:
    """Search budget for input-distribution optimization.

    restarts: Dirichlet-random ascent starts (on top of uniform + grid).
    grid_resolution: per-simplex step of the coarse seeding grid.
    ascent: cap on coordinate-ascent sweeps per start.
    tolerance: a sweep gaining less than this ends the ascent.
    seed: master RNG seed; identical configs give identical results.
    """

    restarts: int = 32
    grid_resolution: float = 0.125
    ascent: int = 50
    tolerance: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ModelError("restarts must be >= 1")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")
        if self.tolerance <= 0:
            raise ModelError("tolerance must be > 0")
        if not 0 < self.grid_resolution <= 0.5:
            raise ModelError("grid_resolution must lie in (0, 0.5]")
        if self.ascent < 1:
            raise ModelError("ascent sweep cap must be >= 1")


@dataclass
class AscentResult:
    value: float
    point: list[np.ndarray]
    converged: bool
    evaluations: int
    finals: list[tuple[float, list[np.ndarray]]]


def _normalize(v: np.ndarray) -> np.ndarray:
    v = np.clip(v, 0.0, None)
    s = v.sum()
    if s <= 0:
        raise ModelError("degenerate point off the simplex")
    return v / s


def _composition(total: int, parts: int, rank: int) -> list[int]:
    """The ``rank``-th nonnegative vector of length ``parts`` summing to
    ``total``, in lexicographic order (combinatorial number system)."""
    out = []
    for rest in range(parts - 1, 0, -1):
        head = 0
        while rank >= (count := math.comb(total - head + rest - 1, rest - 1)):
            rank -= count
            head += 1
        out.append(head)
        total -= head
    return out + [total]


def _grid_seeds(dims: Sequence[int], resolution: float) -> list[list[np.ndarray]]:
    """Every stride-th point of the product of the grid simplices (fewer
    than 2 * ``GRID_CAP``), unranked one by one, so only kept points are built."""
    g = max(1, int(round(1.0 / resolution)))
    radices = [math.comb(g + k - 1, k - 1) for k in dims]
    total = math.prod(radices)
    seeds = []
    for flat in range(0, total, max(1, total // GRID_CAP)):
        idx, x = [], flat
        for r in reversed(radices):
            idx.append(x % r)
            x //= r
        seeds.append([np.array(_composition(g, k, j), dtype=float) / g
                      for k, j in zip(dims, reversed(idx))])
    return seeds


def _line_search(point, s, a, b, value, objective, tolerance):
    """Maximize along moving mass between symbols a and b of simplex s."""
    p = point[s]
    lo, hi = -float(p[b]), float(p[a])
    span = hi - lo
    if span < 1e-12:
        return value, point, 0

    evals = 0

    def at(t):
        nonlocal evals
        q = p.copy()
        q[a] -= t
        q[b] += t
        trial = list(point)
        trial[s] = _normalize(q)
        evals += 1
        return objective(trial), trial

    ts = np.linspace(lo, hi, SCAN_POINTS)
    scanned = [at(t) for t in ts]
    values = np.array([v for v, _ in scanned])
    vmax = float(values.max())
    flat = np.where(values >= vmax - 1e-12)[0]
    center = int(flat[(len(flat) - 1) // 2])
    if values[center] < vmax - 1e-12:  # non-contiguous plateau
        center = int(values.argmax())
    best_v, best_trial = scanned[center]

    if vmax <= value + tolerance / 16:
        # No real gain on this line.  If the scan shows a strict plateau,
        # recenter on it: min-of-concave objectives go flat one coordinate
        # at a time and a plateau-edge point would stall the whole ascent.
        if best_v >= value - 1e-13 and len(flat) < SCAN_POINTS:
            return best_v, best_trial, evals
        return value, point, evals

    left = ts[max(center - 1, 0)]
    right = ts[min(center + 1, SCAN_POINTS - 1)]
    x1 = right - _INVPHI * (right - left)
    x2 = left + _INVPHI * (right - left)
    f1, t1 = at(x1)
    f2, t2 = at(x2)
    for _ in range(40):
        if right - left < 1e-6 * max(span, 1e-6):
            break
        if f1 < f2:
            left, x1, f1, t1 = x1, x2, f2, t2
            if f1 >= best_v:
                best_v, best_trial = f1, t1
            x2 = left + _INVPHI * (right - left)
            f2, t2 = at(x2)
        else:
            right, x2, f2, t2 = x2, x1, f1, t1
            if f2 >= best_v:
                best_v, best_trial = f2, t2
            x1 = right - _INVPHI * (right - left)
            f1, t1 = at(x1)
    for f, t in ((f1, t1), (f2, t2)):
        if f > best_v:
            best_v, best_trial = f, t
    if best_v > value:
        return best_v, best_trial, evals
    return value, point, evals


def _ascend(start, objective, cfg):
    point = [p.copy() for p in start]
    value = objective(point)
    evals = 1
    converged = False
    for _ in range(cfg.ascent):
        before = value
        for s, p in enumerate(point):
            k = p.size
            if k == 1:
                continue
            for a in range(k):
                for b in range(a + 1, k):
                    value, point, used = _line_search(
                        point, s, a, b, value, objective, cfg.tolerance
                    )
                    evals += used
        if value - before < cfg.tolerance:
            converged = True
            break
    return value, point, converged, evals


def maximize_product_simplices(
    dims: Sequence[int],
    objective: Callable[[list[np.ndarray]], float],
    cfg: InputOptimizerConfig,
    extra_seeds: Sequence[list[np.ndarray]] = (),
) -> AscentResult:
    """Maximize ``objective`` over a product of probability simplices.

    Returns the best point found, whether the best ascent converged, and
    the converged endpoint of every start (``finals``) so callers can reuse
    the evaluated family.
    """
    dims = [int(k) for k in dims]
    if any(k < 1 for k in dims):
        raise ModelError("simplex dimensions must be >= 1")

    uniform = [np.full(k, 1.0 / k) for k in dims]
    seeds: list[list[np.ndarray]] = [uniform]
    seeds.extend([_normalize(np.asarray(p, dtype=float)) for p in s] for s in extra_seeds)
    seeds.extend(_grid_seeds(dims, cfg.grid_resolution))

    evals = 0
    scored = []
    for sd in seeds:
        scored.append((objective(sd), sd))
        evals += 1
    scored.sort(key=lambda t: -t[0])
    starts = [sd for _, sd in scored[:2]]

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    for child in children:
        rng = np.random.default_rng(child)
        starts.append([rng.dirichlet(np.ones(k)) if k > 1 else np.ones(1) for k in dims])

    best_value, best_point = scored[0]
    best_converged = True  # a seed that no ascent improves counts as converged
    finals: list[tuple[float, list[np.ndarray]]] = []
    for start in starts:
        value, point, converged, used = _ascend(start, objective, cfg)
        evals += used
        finals.append((value, point))
        if value > best_value:
            best_value, best_point, best_converged = value, point, converged
    return AscentResult(
        value=best_value,
        point=[p.copy() for p in best_point],
        converged=best_converged,
        evaluations=evals,
        finals=finals,
    )
