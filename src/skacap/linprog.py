"""Dense simplex solver from the surplus basis: Dantzig pricing with a Bland fallback.

Solves   minimize c.x   subject to   a_ge.x >= b_ge,  x >= 0,   with b_ge <= 0.

That is the one form every LP of this package takes, and the point x = 0
with surplus s = a_ge.x - b_ge = -b_ge >= 0 is feasible in it, so the
simplex starts from the surplus basis: one phase, no artificial columns.
The CO LP is solved as its packing dual, max h.lam s.t. incidence^T lam
<= 1, lam >= 0, which is this form with a_ge = -incidence^T and b_ge = -1.
The fractional-cover LP, max g.lam over lam >= 0 with every terminal j
covered exactly once, becomes the same packing LP by the singleton
completion of ``omniscience.max_cover``: it equals sum_j g_{j} plus the
packing LP with costs g'_B = g_B - sum(g_{j}, j in B), since any packing
completes to a cover by adding 1 - cover_j to each singleton {j}.  Every
singleton is a member of the family Gamma(A) exactly when |A| >= 2, which
key agreement needs anyway.

The constraint matrices in this package are small 0/1 incidence matrices
with entropy costs, so a dense tableau is plenty.  The entering column is
the most negative reduced cost (Dantzig); after ``DEGENERATE_RUN``
degenerate pivots in a row the solver switches to Bland's smallest-index
rule until the next nondegenerate pivot, which rules out cycling (Bland
1977).  Every solve is certified after the fact: primal feasibility, dual
feasibility, and the complementary-slackness / duality-gap residual must
all be within ``FEAS_TOL`` or the solver raises instead of returning a
wrong answer.

A search that solves many LPs over one fixed polytope, changing only the
cost, keeps the optimal bases of its last full solves in a ``BasisHint``.
A basis B stays optimal for a new cost exactly when the duals
y = B^-T c_B are dual feasible, so ``BasisHint.reuse_all`` checks a cost
stack against every pooled basis at once with the checks of ``_certify``
(dual feasibility held to the threshold at which ``_simplex`` stops) and
reads each row off B^-1 of the first basis that passes, as arrays and
without pivoting; the caller solves a row that no basis passes in full
and hands the new basis to ``BasisHint.adopt``.
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
    """Optimum, duals and pivot count; ``basis`` lists the final basic columns.

    Columns are numbered over [x | surplus of each >= row].
    """

    value: float
    x: np.ndarray
    dual_ge: np.ndarray
    iterations: int
    basis: tuple[int, ...] = ()


def _basis_matrix(a_ge: np.ndarray, basis) -> np.ndarray:
    """The columns ``basis`` of the standard form [a_ge  -I]."""
    k, n = a_ge.shape
    out = np.zeros((k, len(basis)))
    for i, j in enumerate(basis):
        if j < n:
            out[:, i] = a_ge[:, j]
        else:
            out[j - n, i] = -1.0
    return out


def _pivot(tab: np.ndarray, obj: np.ndarray, row: int, col: int):
    # row by row, so no temporary as large as the tableau
    pivot = tab[row]
    pivot /= pivot[col]
    for i, f in enumerate(tab[:, col].tolist()):
        if i != row and f != 0.0:
            tab[i] -= f * pivot
    obj -= obj[col] * pivot


def _simplex(tab, obj, basis, cap, tol=FEAS_TOL):
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
            if reduced[enter] >= -tol:
                return it
        else:
            negative = np.flatnonzero(reduced < -tol)
            if not negative.size:
                return it
            enter = int(negative[0])
        # The rows are few (one per terminal in this package's LPs), so the
        # ratio test is a scalar loop: numpy calls would cost more than it.
        row, best = -1, np.inf
        for i, (a, b) in enumerate(zip(tab[:, enter].tolist(), rhs.tolist())):
            if a > tol:
                r = b / a
                if r < best - tol or (abs(r - best) <= tol and basis[i] < basis[row]):
                    row, best = i, r
        if row < 0:
            raise LpUnboundedError("LP is unbounded below")
        degenerate = degenerate + 1 if best <= tol else 0
        _pivot(tab, obj, row, enter)
        basis[row] = enter
        it += 1
        if it > cap:
            raise LpIterationLimitError(f"simplex iteration cap {cap} exhausted")


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP from its surplus basis; raises on unbounded / uncertified results.

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
    c_std = np.concatenate([lp.c, np.zeros(k)])
    obj = np.append(c_std, 0.0)
    basis = list(range(n, n + k))
    it = _simplex(tab, obj, basis, cap=10 * (n + 2 * k) + 10)

    y = np.zeros(n + k)
    y[basis] = tab[:, -1]
    del tab  # as large as a_ge: not kept through the certificate
    x = y[:n]
    value = float(lp.c @ x)
    try:
        dual_ge = np.linalg.solve(_basis_matrix(lp.a_ge, basis).T, c_std[basis])
    except np.linalg.LinAlgError as exc:
        raise LpCertificationError(f"singular basis at optimum: {exc}") from exc

    _certify(lp, x, value, dual_ge)
    return LpSolution(value, x, dual_ge, it, tuple(basis))


def _certify(lp: LinearProgram, x, value, dual_ge):
    scale = max(
        1.0,
        float(np.abs(lp.c).max(initial=0.0)),
        float(np.abs(lp.b_ge).max(initial=0.0)),
    )
    tol = FEAS_TOL * scale

    slack_ge = lp.a_ge @ x - lp.b_ge
    if slack_ge.size and slack_ge.min() < -tol:
        raise LpCertificationError(f"primal >= violation {slack_ge.min():.3e}")
    if x.min() < -tol:
        raise LpCertificationError("variable lower-bound violation")
    if dual_ge.size and dual_ge.min() < -tol:
        raise LpCertificationError(f"dual sign violation {dual_ge.min():.3e}")
    sigma = lp.c - lp.a_ge.T @ dual_ge
    if sigma.min() < -tol:
        raise LpCertificationError(f"reduced-cost violation {sigma.min():.3e}")
    dual_value = float(dual_ge @ lp.b_ge)
    gap = abs(value - dual_value)
    comp = abs(float(dual_ge @ slack_ge)) + abs(float(sigma @ x))
    if gap > tol * max(1.0, abs(value)) or comp > 10 * tol * max(1.0, abs(value)):
        raise LpCertificationError(
            f"duality gap {gap:.3e} / complementary slackness {comp:.3e} too large"
        )


class BasisHint:
    """The optimal bases of the last full solves of  min c.x  s.t.
    a_ge.x >= b_ge, x >= 0, reused while only the cost c changes.

    ``key`` names what the caller built the constraints from, so that it
    can refuse a hint built for other constraints.  The hint keeps
    ``a_ge`` itself, without a copy when it is already float, and never
    writes to it; the caller hands it over.  The right-hand side is
    fixed, so the primal point x_B = B^-1 b_ge depends on the basis alone
    and is formed once per pooled basis, together with the map
    c -> y = B^-T c_B from a cost to the basis duals.  A basis is
    factored at the first read after its adoption, so a hint that is
    never read again pays for no factorization.
    """

    def __init__(self, a_ge: np.ndarray, b_ge: np.ndarray, key=None):
        self.a_ge = np.asarray(a_ge, dtype=float)
        self.b_ge = np.array(b_ge, dtype=float).ravel()
        self.key = key
        self._b_max = float(np.abs(self.b_ge).max(initial=0.0))
        self._pool: list = []  # [basis, factors or None], most recent first
        self._stacked = None  # the factors of the pool, stacked

    @property
    def pool(self) -> tuple[tuple[int, ...], ...]:
        """The pooled bases, most recently adopted first."""
        return tuple(basis for basis, _ in self._pool)

    def adopt(self, basis):
        """Put ``basis`` (an ``LpSolution.basis``) first in the pool, dropping
        the least recent past ``POOL_SIZE``; B^-1 is formed at the next read."""
        basis = tuple(basis)
        entry = next((e for e in self._pool if e[0] == basis), [basis, None])
        self._pool = [entry] + [e for e in self._pool if e is not entry][:POOL_SIZE - 1]
        self._stacked = None

    def _factor(self, basis):
        """x, slack, primal minimum and dual map of ``basis``; None when unusable."""
        k, n = self.a_ge.shape
        if len(basis) != k:
            return None
        cols = list(basis)
        try:
            binv = np.linalg.inv(_basis_matrix(self.a_ge, cols))
        except np.linalg.LinAlgError:
            return None
        x_std = np.zeros(n + k)
        x_std[cols] = binv @ self.b_ge
        x = x_std[:n]
        x.setflags(write=False)
        # The primal checks of _certify, on the constraints themselves, so
        # an inaccurate inverse cannot pass them.
        slack = self.a_ge @ x - self.b_ge
        primal_min = min(float(slack.min(initial=0.0)), float(x.min(initial=0.0)))
        # Surplus columns cost 0, so only the structural basic columns enter.
        dual_map = np.zeros((n + k, k))
        dual_map[cols] = binv
        return x, slack, primal_min, np.ascontiguousarray(dual_map[:n].T)

    def reuse_all(self, costs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each row c of the cost stack ``costs`` read off the first pooled
        basis that certifies it, without pivoting: that basis's pool index
        (-1 for none, and the caller solves the row in full) and the value
        c.x, the point x and the duals, one array each.

        Certified means the checks of ``_certify`` at the row's
        ``FEAS_TOL`` scale, on every (basis, row) pair at once: primal
        feasibility, dual feasibility (the duals' signs and the reduced
        costs, held to ``FEAS_TOL`` itself, where ``_simplex`` stops), and
        the duality gap and complementary slackness.  The values and duals
        are one stacked product each over the rows' gathered bases: row by
        row, the ``c @ x`` and ``dual_map @ c`` of a one-row stack.
        """
        rows = len(costs)
        if rows and self._stacked is None:  # factor new bases, drop unusable ones
            for entry in self._pool:
                entry[1] = entry[1] or self._factor(entry[0])
            self._pool = [e for e in self._pool if e[1]]
            self._stacked = [np.stack(a) for a in zip(*(f for _, f in self._pool))]
        if not rows or not self._pool:
            k, n = self.a_ge.shape
            return np.full(rows, -1), np.zeros(rows), np.zeros((rows, n)), np.zeros((rows, k))
        xs, slacks, primal_min, maps = self._stacked
        tol = FEAS_TOL * np.maximum(np.abs(costs).max(axis=1), max(1.0, self._b_max))
        duals = maps @ costs.T  # [basis, dual, row]
        sigma = costs.T - self.a_ge.T @ duals  # [basis, reduced cost, row]
        values = xs @ costs.T
        scale = tol * np.maximum(1.0, np.abs(values))
        comp = np.abs(slacks[:, None] @ duals) + np.abs(xs[:, None] @ sigma)
        ok = (
            (primal_min[:, None] >= -tol)
            & (np.minimum(duals.min(axis=1), sigma.min(axis=1)) >= -FEAS_TOL)
            & (np.abs(values - self.b_ge @ duals) <= scale)
            & (comp[:, 0] <= 10 * scale)
        )
        first = ok.argmax(axis=0)
        x, col = xs[first], costs[:, :, None]
        which = np.where(ok[first, np.arange(rows)], first, -1)
        return which, (costs[:, None] @ x[:, :, None])[:, 0, 0], x, (maps[first] @ col)[:, :, 0]
