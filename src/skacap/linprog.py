"""Dense simplex solver from the surplus basis: Dantzig pricing with a Bland fallback.

Solves   minimize c.x   subject to   a_ge.x >= b_ge,  x >= 0,   with b_ge <= 0.

That is the one form every LP of this package takes, and the point x = 0
with surplus s = a_ge.x - b_ge = -b_ge >= 0 is feasible in it, so the
simplex starts from the surplus basis: one phase, no artificial columns.
The CO LP is solved as its packing dual, max h.lam s.t. incidence^T lam
<= 1, lam >= 0, which is this form with a_ge = -incidence^T and b_ge = -1;
``omniscience`` reduces the fractional-cover LP to the same packing LP.

The constraint matrices in this package are small 0/1 incidence matrices
with entropy costs, so a dense tableau is plenty.  The entering column is
the most negative reduced cost (Dantzig); after ``DEGENERATE_RUN``
degenerate pivots in a row the solver switches to Bland's smallest-index
rule until the next nondegenerate pivot, which rules out cycling (Bland
1977).

The simplex only finds an optimal basis B.  Every number a caller gets is
read off B^-1 (``_factor``) and certified by one check (``_read``): the
point x_B = B^-1 b_ge must be primal feasible, the duals y = B^-T c_B dual
feasible (held to ``FEAS_TOL``, where ``_simplex`` stops), and the duality
gap and complementary slackness small; a basis that fails raises instead
of returning a wrong answer.  ``lp_solve`` runs that check on its one
basis and cost, and returns the factors with the solution.  A search that
solves many LPs over one fixed polytope, changing only the cost, keeps the
optimal bases of its last full solves, with those factors, in a
``BasisHint``, and ``BasisHint.reuse_all`` runs the same check on a cost
stack against every pooled basis at once and reads each row off the first
basis that passes, without pivoting; the caller solves a row that no basis
passes in full and hands the solution to ``BasisHint.adopt``.  So every
basis is factored once, by the solve that found it.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import (
    LpCertificationError,
    LpIterationLimitError,
    LpUnboundedError,
    ModelError,
)

#: Feasibility / optimality tolerance for the simplex and its certificates.
FEAS_TOL = 1e-9

#: Consecutive degenerate pivots after which pricing falls back to Bland's rule.
DEGENERATE_RUN = 10

#: Factored optimal bases a ``BasisHint`` keeps, most recently adopted first.
POOL_SIZE = 32


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  a_ge.x >= b_ge,  x >= 0."""

    c: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.c, dtype=float).ravel()
        if c.size == 0:
            raise ModelError("LP needs at least one variable")
        # any memory order: a basis hint's constraints are used without a copy
        a_ge = np.asarray(self.a_ge, dtype=float).reshape(-1, c.size)
        b_ge = np.ascontiguousarray(self.b_ge, dtype=float).ravel()
        if a_ge.shape[0] != b_ge.size:
            raise ModelError(f"a_ge: {a_ge.shape[0]} rows but {b_ge.size} bounds")
        for name, val in (("c", c), ("a_ge", a_ge), ("b_ge", b_ge)):
            object.__setattr__(self, name, val)

    @property
    def a_eq(self) -> np.ndarray:
        # no equality rows; the traced bench counts them until ROADMAP item 2 drops WRAPS
        return np.zeros((0, self.c.size))


@dataclass(frozen=True)
class LpSolution:
    """Optimum, duals and pivot count; ``basis`` lists the final basic
    columns, numbered over [x | surplus of each >= row], and ``factors``
    is ``_factor``'s output for it.
    """

    value: float
    x: np.ndarray
    dual_ge: np.ndarray
    iterations: int
    basis: tuple[int, ...]
    factors: tuple


def _pivot(tab: np.ndarray, obj: np.ndarray, row: int, col: int):
    # row by row, so no temporary as large as the tableau
    pivot = tab[row]
    pivot /= pivot[col]
    for i, f in enumerate(tab[:, col].tolist()):
        if i != row and f != 0.0:
            tab[i] -= f * pivot
    obj -= obj[col] * pivot


def _simplex(tab, obj, basis, cap):
    """Simplex on a tableau whose basis columns are identity.

    ``tab`` is (m, n+1) with the rhs in the last column; ``obj`` is the
    reduced-cost row of length n+1 (last entry = -objective).  The entering
    column is the most negative reduced cost, or the first negative one
    once ``DEGENERATE_RUN`` pivots in a row have not moved (Bland), until a
    pivot moves again.  Ratio ties leave by the smallest basis index.
    Mutates all three arguments; returns the iteration count.
    """
    it = 0
    degenerate = 0
    reduced, rhs = obj[:-1], tab[:, -1]  # views; pivots update them in place
    while True:
        if degenerate < DEGENERATE_RUN:
            enter = int(reduced.argmin())
            if reduced[enter] >= -FEAS_TOL:
                return it
        else:
            negative = np.flatnonzero(reduced < -FEAS_TOL)
            if not negative.size:
                return it
            enter = int(negative[0])
        # The rows are few (one per terminal in this package's LPs), so the
        # ratio test is a scalar loop: numpy calls would cost more than it.
        row, best = -1, np.inf
        for i, (a, b) in enumerate(zip(tab[:, enter].tolist(), rhs.tolist())):
            if a > FEAS_TOL:
                r = b / a
                if r < best - FEAS_TOL or (abs(r - best) <= FEAS_TOL and basis[i] < basis[row]):
                    row, best = i, r
        if row < 0:
            raise LpUnboundedError("LP is unbounded below")
        degenerate = degenerate + 1 if best <= FEAS_TOL else 0
        _pivot(tab, obj, row, enter)
        basis[row] = enter
        it += 1
        if it > cap:
            raise LpIterationLimitError(f"simplex iteration cap {cap} exhausted")


def _factor(a_ge: np.ndarray, b_ge: np.ndarray, basis):
    """x, slack, primal minimum and dual map of ``basis``; None when singular."""
    k, n = a_ge.shape
    cols = list(basis)
    bmat = np.zeros((k, k))  # the columns ``basis`` of the standard form [a_ge  -I]
    for i, j in enumerate(cols):
        if j < n:
            bmat[:, i] = a_ge[:, j]
        else:
            bmat[j - n, i] = -1.0
    try:
        binv = np.linalg.inv(bmat)
    except np.linalg.LinAlgError:
        return None
    x = np.zeros(n + k)
    x[cols] = binv @ b_ge
    x = x[:n]
    x.setflags(write=False)
    # The primal checks run on the constraints themselves, so an
    # inaccurate inverse cannot pass them.
    slack = a_ge @ x - b_ge
    primal_min = min(np.minimum.reduce(slack, initial=0.0), np.minimum.reduce(x, initial=0.0))
    # Surplus columns cost 0, so only the structural basic columns enter.
    dual_map = np.zeros((k, n + k))
    dual_map[:, cols] = binv.T
    return x, slack, primal_min, dual_map[:, :n]


def _read(a_ge: np.ndarray, b_ge: np.ndarray, stacked, costs: np.ndarray):
    """Each row c of the cost stack ``costs`` read off the first of the
    factored bases ``stacked`` (``_factor``'s arrays, stacked) that
    certifies it: that basis's index (-1 for none) and the value c.x, the
    point x and the duals, one array each.

    Certified means, at the row's scale tol = ``FEAS_TOL`` * max(1, |c|,
    |b_ge|), on every (basis, row) pair at once: primal feasibility within
    tol, dual feasibility (the duals' signs and the reduced costs) within
    ``FEAS_TOL`` itself, where ``_simplex`` stops, and the duality gap and
    complementary slackness within tol * max(1, |c.x|) and ten times that.
    The values and duals are one stacked product each over the rows'
    gathered bases: row by row, the ``c @ x`` and ``dual_map @ c`` of a
    one-row stack.
    """
    xs, slacks, primal_min, maps = stacked
    # ufunc reductions: the array methods add a Python call to each
    b_top = np.maximum.reduce(np.abs(b_ge), initial=1.0)
    tol = FEAS_TOL * np.maximum.reduce(np.abs(costs), axis=1, initial=b_top)
    duals = maps @ costs.T  # [basis, dual, row]
    sigma = costs.T - a_ge.T @ duals  # [basis, reduced cost, row]
    values = xs @ costs.T
    scale = tol * np.maximum(1.0, np.abs(values))
    comp = np.abs(slacks[:, None] @ duals) + np.abs(xs[:, None] @ sigma)
    lowest = np.minimum.reduce(duals, axis=1)
    np.minimum(lowest, np.minimum.reduce(sigma, axis=1), out=lowest)
    ok = (
        (primal_min[:, None] >= -tol)
        & (lowest >= -FEAS_TOL)
        & (np.abs(values - b_ge @ duals) <= scale)
        & (comp[:, 0] <= 10 * scale)
    )
    if len(xs) == len(costs) == 1:  # the products above have the one-row shapes
        return np.where(ok[0], 0, -1), values[0], xs.copy(), duals[:, :, 0]
    first = ok.argmax(axis=0)
    which = np.where(np.logical_or.reduce(ok, axis=0), first, -1)
    x, col = xs[first], costs[:, :, None]
    return which, (costs[:, None] @ x[:, :, None])[:, 0, 0], x, (maps[first] @ col)[:, :, 0]


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP from its surplus basis and read the optimum off that
    basis through the certificate; raises on unbounded / uncertified results.

    Refuses b_ge > 0, where the surplus basis is infeasible.
    """
    k, n = lp.a_ge.shape
    if np.any(lp.b_ge > 0):
        raise ModelError("lp_solve needs b_ge <= 0 (a feasible surplus basis)")
    # Standard form [a_ge  -I] [x; s] = b_ge.  Negated, its surplus columns
    # are the identity and its rhs -b_ge >= 0: the surplus basis is feasible.
    tab = np.empty((k, n + k + 1))
    np.negative(lp.a_ge, out=tab[:, :n])
    tab[:, n:-1] = np.eye(k)
    np.negative(lp.b_ge, out=tab[:, -1])
    obj = np.concatenate([lp.c, np.zeros(k + 1)])
    basis = list(range(n, n + k))
    it = _simplex(tab, obj, basis, cap=10 * (n + 2 * k) + 10)
    del tab  # as large as a_ge: not kept through the certificate

    factors = _factor(lp.a_ge, lp.b_ge, basis)
    if factors is None:
        raise LpCertificationError("singular basis at optimum")
    stacked = [f[None] for f in factors]  # a stack of one basis, read for one row
    (which,), (value,), (x,), (dual_ge,) = _read(lp.a_ge, lp.b_ge, stacked, lp.c[None])
    if which < 0:
        raise LpCertificationError("final basis fails the certificate (primal, dual or gap)")
    return LpSolution(float(value), x, dual_ge, it, tuple(basis), factors)


class BasisHint:
    """The optimal bases of the last full solves of  min c.x  s.t.
    a_ge.x >= b_ge, x >= 0, reused while only the cost c changes.

    The hint keeps ``a_ge`` itself, without a copy when it is already
    float, and never writes to it; the caller hands it over.  The
    right-hand side is fixed, so the primal point x_B = B^-1 b_ge depends
    on the basis alone.  ``lp_solve`` forms it once per solve, together
    with the map c -> y = B^-T c_B from a cost to the basis duals, and the
    pool keeps both with the basis.
    """

    def __init__(self, a_ge: np.ndarray, b_ge: np.ndarray):
        self.a_ge = np.asarray(a_ge, dtype=float)
        self.b_ge = np.array(b_ge, dtype=float).ravel()
        self._pool: list = []  # (basis, factors), most recent first
        self._stacked = None  # the factors of the pool, stacked

    @property
    def pool(self) -> tuple[tuple[int, ...], ...]:
        """The pooled bases, most recently adopted first."""
        return tuple(basis for basis, _ in self._pool)

    def adopt(self, sol: LpSolution):
        """Put the basis of ``sol``, an ``lp_solve`` of this hint's LP, first
        in the pool with its factors, dropping the least recent past
        ``POOL_SIZE``."""
        entry = next((e for e in self._pool if e[0] == sol.basis), (sol.basis, sol.factors))
        self._pool = [entry] + [e for e in self._pool if e is not entry][:POOL_SIZE - 1]
        self._stacked = None

    def reuse_all(self, costs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each row c of the cost stack ``costs`` read off the first pooled
        basis that certifies it, by ``_read``, without pivoting: that
        basis's pool index (-1 for none, and the caller solves the row in
        full) and the value c.x, the point x and the duals, one array each.
        """
        rows = len(costs)
        if not rows or not self._pool:
            k, n = self.a_ge.shape
            return np.full(rows, -1), np.zeros(rows), np.zeros((rows, n)), np.zeros((rows, k))
        if self._stacked is None:
            self._stacked = [np.stack(a) for a in zip(*(f for _, f in self._pool))]
        return _read(self.a_ge, self.b_ge, self._stacked, costs)
