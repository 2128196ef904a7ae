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

The objective scores stacks of points.  Points whose values the search
needs before it decides anything are passed as one stack: the whole
seed set, the scan of each line search, and the first pair of its golden
section.  Golden steps are pure functions of the bracket and of which
side wins, so that pair and each later step's point go with the points
of the steps after them down both outcomes, ``GOLDEN_LOOKAHEAD`` levels
in all.  The objective must give each point the value it would give it
alone, so the search takes the same steps, and counts the same
evaluations (the points it uses), as it would scoring one at a time.  A
line search keeps each value with its row of the simplex it moves along,
and builds the whole point only for the one it returns.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ModelError

#: Cap on the number of coarse grid seeds actually evaluated.
GRID_CAP = 128

#: Scan points per line search (including both endpoints).
SCAN_POINTS = 9

#: A sweep gaining less than this ends an ascent.
TOLERANCE = 1e-7

#: Cap on golden-section steps per line search.
GOLDEN_STEPS = 40

#: Golden levels one objective call scores: a step's point (or the first
#: pair) and, for either outcome, the points of the steps after it.
GOLDEN_LOOKAHEAD = 3

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class InputOptimizerConfig:
    """Search budget for input-distribution optimization.

    restarts: Dirichlet-random ascent starts (on top of uniform + grid).
    grid_resolution: per-simplex step of the coarse seeding grid.
    ascent: cap on coordinate-ascent sweeps per start.
    seed: master RNG seed; identical configs give identical results.
    """

    restarts: int = 32
    grid_resolution: float = 0.125
    ascent: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ModelError("restarts must be >= 1")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")
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
        # vectors with a head below h, by the hockey-stick identity
        every = math.comb(total + rest, rest)
        below = lambda h: every - math.comb(total - h + rest, rest)  # noqa: E731
        head = bisect.bisect_right(range(total + 1), rank, key=below) - 1
        rank -= below(head)
        out.append(head)
        total -= head
    return out + [total]


def _grid_seeds(dims: Sequence[int], resolution: float) -> list[list[np.ndarray]]:
    """Every stride-th point of the product of the grid simplices (fewer
    than 2 * ``GRID_CAP``), unranked so only kept points are built.  Each
    distinct (simplex size, rank) is unranked once and its row shared by
    every seed that holds it, so the rows are read-only."""
    g = max(1, int(round(1.0 / resolution)))
    radices = [math.comb(g + k - 1, k - 1) for k in dims]
    total = math.prod(radices)
    rows: dict[tuple[int, int], np.ndarray] = {}
    seeds = []
    for flat in range(0, total, max(1, total // GRID_CAP)):
        idx, x = [], flat
        for r in reversed(radices):
            idx.append(x % r)
            x //= r
        keys = list(zip(dims, reversed(idx)))
        for key in keys:
            if key not in rows:
                rows[key] = np.array(_composition(g, *key), dtype=float) / g
                rows[key].setflags(write=False)
        seeds.append([rows[key] for key in keys])
    return seeds


def stack_points(points: Sequence[list[np.ndarray]]) -> list[np.ndarray]:
    """Points of a product of simplices as one (points, k_s) array per simplex."""
    return [np.stack(vs) for vs in zip(*points)]


def _trials(point, s, a, b, ts):
    """The points that move mass t from symbol a to symbol b of simplex s,
    one per t: the stack passed to the objective, and their rows of simplex s."""
    q = np.repeat(point[s][None], len(ts), axis=0)
    q[:, a] -= ts
    q[:, b] += ts
    np.maximum(q, 0.0, out=q)
    total = q.sum(axis=1)
    if total.min() <= 0:
        raise ModelError("degenerate point off the simplex")
    q /= total[:, None]
    stack = [q if i == s else v[None].repeat(len(ts), axis=0) for i, v in enumerate(point)]
    return stack, q


def _golden_step(bracket, up):
    """The bracket (left, right, x1, x2) after one golden step, and the
    point it adds: ``up`` when f1 < f2, so the left end moves up to x1."""
    left, right, x1, x2 = bracket
    if up:
        left, x1 = x1, x2
        x2 = left + _INVPHI * (right - left)
        return (left, right, x1, x2), x2
    right, x2 = x2, x1
    x1 = right - _INVPHI * (right - left)
    return (left, right, x1, x2), x1


def _golden_ahead(bracket, points, step, stop):
    """``points``, added by golden step ``step`` (-1: the first pair) and
    leaving ``bracket``, then the points of the steps after it down either
    outcome, ``GOLDEN_LOOKAHEAD`` levels in all, as far as the search goes."""
    level = [bracket]
    for _ in range(step + 1, min(step + GOLDEN_LOOKAHEAD, GOLDEN_STEPS)):
        level = [_golden_step(b, up) for b in level if b[1] - b[0] >= stop for up in (True, False)]
        points = points + [x for _, x in level]
        level = [b for b, _ in level]
    return points


def _line_search(point, s, a, b, value, objective):
    """Maximize along moving mass between symbols a and b of simplex s.

    The scan is one stack; the golden section's first pair, and each later
    step's point that no earlier stack held, go with ``_golden_ahead``.
    """
    p = point[s]
    lo, hi = -float(p[b]), float(p[a])
    span = hi - lo
    if span < 1e-12:
        return value, point, 0

    def at(ts):
        stack, rows = _trials(point, s, a, b, np.array(ts))
        return list(zip(objective(stack).tolist(), rows))

    def moved(row):
        trial = list(point)
        trial[s] = row
        return trial

    ts = np.linspace(lo, hi, SCAN_POINTS)
    scanned = at(ts)
    evals = SCAN_POINTS
    values = np.array([v for v, _ in scanned])
    vmax = float(values.max())
    flat = np.where(values >= vmax - 1e-12)[0]
    center = int(flat[(len(flat) - 1) // 2])
    if values[center] < vmax - 1e-12:  # non-contiguous plateau
        center = int(values.argmax())
    best_v, best_row = scanned[center]

    if vmax <= value + TOLERANCE / 16:
        # No real gain on this line.  If the scan shows a strict plateau,
        # recenter on it: min-of-concave objectives go flat one coordinate
        # at a time and a plateau-edge point would stall the whole ascent.
        if best_v >= value - 1e-13 and len(flat) < SCAN_POINTS:
            return best_v, moved(best_row), evals
        return value, point, evals

    left = ts[max(center - 1, 0)]
    right = ts[min(center + 1, SCAN_POINTS - 1)]
    x1 = right - _INVPHI * (right - left)
    x2 = left + _INVPHI * (right - left)
    stop = 1e-6 * max(span, 1e-6)

    def score_ahead(bracket, points, step):
        points = _golden_ahead(bracket, points, step, stop)
        return dict(zip(points, at(points)))

    bracket = (left, right, x1, x2)
    ahead = score_ahead(bracket, [x1, x2], -1)
    (f1, t1), (f2, t2) = ahead[x1], ahead[x2]
    evals += 2
    for step in range(GOLDEN_STEPS):
        if bracket[1] - bracket[0] < stop:
            break
        up = f1 < f2
        kept = (f2, t2) if up else (f1, t1)
        if kept[0] >= best_v:
            best_v, best_row = kept
        bracket, x = _golden_step(bracket, up)
        if x not in ahead:
            ahead = score_ahead(bracket, [x], step)
        evals += 1
        (f1, t1), (f2, t2) = (kept, ahead[x]) if up else (ahead[x], kept)
    for f, t in ((f1, t1), (f2, t2)):
        if f > best_v:
            best_v, best_row = f, t
    if best_v > value:
        return best_v, moved(best_row), evals
    return value, point, evals


def _ascend(start, objective, cfg):
    point = [p.copy() for p in start]
    value = float(objective(stack_points([point]))[0])
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
                    value, point, used = _line_search(point, s, a, b, value, objective)
                    evals += used
        if value - before < TOLERANCE:
            converged = True
            break
    return value, point, converged, evals


def maximize_product_simplices(
    dims: Sequence[int],
    objective: Callable[[list[np.ndarray]], np.ndarray],
    cfg: InputOptimizerConfig,
    extra_seeds: Sequence[list[np.ndarray]] = (),
) -> AscentResult:
    """Maximize ``objective`` over a product of probability simplices.

    ``objective`` scores a stack of points, given as one (points, k_s)
    array per simplex (``stack_points``), and returns one value per point;
    a point's value must not depend on the points stacked with it.
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

    evals = len(seeds)
    scored = [(float(v), sd) for v, sd in zip(objective(stack_points(seeds)), seeds)]
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
