"""Dense two-phase simplex solver: Dantzig pricing with a Bland fallback.

Solves   minimize c.x   subject to   a_ge.x >= b_ge,  a_eq.x == b_eq,
x >= lower (finite, componentwise).

The constraint matrices in this package are small 0/1 incidence matrices
with entropy right-hand sides, so a dense tableau is plenty.  The entering
column is the most negative reduced cost (Dantzig); after
``DEGENERATE_RUN`` degenerate pivots in a row the solver switches to
Bland's smallest-index rule until the next nondegenerate pivot, which
rules out cycling (Bland 1977).  Every solve is certified after the fact:
primal feasibility, dual feasibility, and the complementary-slackness /
duality-gap residual must all be within ``FEAS_TOL`` or the solver raises
instead of returning a wrong answer.

A search that solves many LPs over one fixed polytope, changing only the
cost, can keep the optimal basis of its last full solve in a
``BasisHint``.  A basis B stays optimal for a new cost exactly when the
duals y = B^-T c_B are dual feasible, so ``BasisHint.reuse`` reads the
solution off B^-1 without pivoting, and returns it only when it passes
the checks of ``_certify`` (dual feasibility held to the threshold at
which ``_simplex`` stops); otherwise the caller solves in full and hands
the new basis to ``BasisHint.adopt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    LpCertificationError,
    LpInfeasibleError,
    LpIterationLimitError,
    LpUnboundedError,
    ModelError,
)

#: Feasibility / optimality tolerance for the simplex and its certificates.
FEAS_TOL = 1e-9

#: Consecutive degenerate pivots after which pricing falls back to Bland's rule.
DEGENERATE_RUN = 10


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  a_ge.x >= b_ge,  a_eq.x == b_eq,  x >= lower."""

    c: np.ndarray
    a_ge: Optional[np.ndarray] = None
    b_ge: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.ascontiguousarray(self.c, dtype=float).ravel()
        n = c.size
        if n == 0:
            raise ModelError("LP needs at least one variable")

        def mat(a, b, name):
            if a is None or np.size(a) == 0:
                return np.zeros((0, n)), np.zeros(0)
            a = np.ascontiguousarray(a, dtype=float).reshape(-1, n)
            b = np.ascontiguousarray(b, dtype=float).ravel()
            if a.shape[0] != b.size:
                raise ModelError(f"{name}: {a.shape[0]} rows but {b.size} bounds")
            return a, b

        a_ge, b_ge = mat(self.a_ge, self.b_ge, "a_ge")
        a_eq, b_eq = mat(self.a_eq, self.b_eq, "a_eq")
        lower = (
            np.zeros(n)
            if self.lower is None
            else np.ascontiguousarray(self.lower, dtype=float).ravel()
        )
        if lower.size != n or not np.all(np.isfinite(lower)):
            raise ModelError("lower bounds must be finite and match the variable count")
        for name, val in (
            ("c", c),
            ("a_ge", a_ge),
            ("b_ge", b_ge),
            ("a_eq", a_eq),
            ("b_eq", b_eq),
        ):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "lower", lower)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    """Optimum, duals and pivot count; ``basis`` lists the final basic columns.

    Columns are numbered over [x | surplus of each >= row], one per row the
    solve kept (phase 1 drops redundant rows).
    """

    value: float
    x: np.ndarray
    dual_ge: np.ndarray
    dual_eq: np.ndarray
    iterations: int
    basis: tuple[int, ...] = ()


def _pivot(tab: np.ndarray, obj: np.ndarray, row: int, col: int):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    obj -= obj[col] * tab[row]


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
    """Solve the LP; raises on infeasible / unbounded / uncertified results."""
    n = lp.n_vars
    k = lp.a_ge.shape[0]
    l = lp.a_eq.shape[0]
    m = k + l

    # Shift to y = x - lower >= 0 and build the standard-form system
    #   [a_ge  -I] [y; s] = b_ge - a_ge.lower
    #   [a_eq   0] [y; s] = b_eq - a_eq.lower
    b1 = lp.b_ge - lp.a_ge @ lp.lower
    b2 = lp.b_eq - lp.a_eq @ lp.lower
    a_std = np.zeros((m, n + k))
    a_std[:k, :n] = lp.a_ge
    a_std[:k, n : n + k] = -np.eye(k)
    a_std[k:, :n] = lp.a_eq
    b_std = np.concatenate([b1, b2])
    signs = np.ones(m)
    neg = b_std < 0
    signs[neg] = -1.0
    a_std[neg] *= -1.0
    b_std[neg] *= -1.0

    if m == 0:
        # No constraints: optimum at the lower bounds (c >= 0 required).
        if np.any(lp.c < -FEAS_TOL):
            raise LpUnboundedError("LP is unbounded below")
        x = lp.lower.copy()
        return LpSolution(float(lp.c @ x), x, np.zeros(0), np.zeros(0), 0)

    n_tot = n + k
    cap = 10 * (m + n_tot + m) + 10

    # Crash basis: a ge-row whose rhs came out nonpositive was negated above,
    # so its surplus column now has coefficient +1 and can start in the basis.
    # Only the remaining rows need artificial variables.
    basis = [-1] * m
    art_rows = []
    for i in range(m):
        if i < k and a_std[i, n + i] == 1.0:
            basis[i] = n + i
        else:
            art_rows.append(i)
    n_art = len(art_rows)

    if n_art:
        art_cols = np.zeros((m, n_art))
        for col, i in enumerate(art_rows):
            art_cols[i, col] = 1.0
            basis[i] = n_tot + col
        tab = np.hstack([a_std, art_cols, b_std[:, None]])
        obj = np.zeros(n_tot + n_art + 1)
        obj[n_tot : n_tot + n_art] = 1.0
        for i in art_rows:
            obj -= tab[i]
        it1 = _simplex(tab, obj, basis, cap)
        if -obj[-1] > FEAS_TOL * max(1.0, float(np.abs(b_std).max(initial=0.0))):
            raise LpInfeasibleError(f"LP infeasible (phase-1 residual {-obj[-1]:.3e})")
        # Drive remaining artificials out of the basis or drop redundant rows.
        keep_rows = []
        for i in range(m):
            if basis[i] >= n_tot:
                nonzero = np.flatnonzero(np.abs(tab[i, :n_tot]) > FEAS_TOL)
                if nonzero.size:
                    piv = int(nonzero[0])
                    _pivot(tab, obj, i, piv)
                    basis[i] = piv
                    keep_rows.append(i)
                # else: redundant zero row, dropped below
            else:
                keep_rows.append(i)
        tab = tab[keep_rows][:, list(range(n_tot)) + [n_tot + n_art]]
        basis = [basis[i] for i in keep_rows]
    else:
        tab = np.hstack([a_std, b_std[:, None]])
        keep_rows = list(range(m))
        it1 = 0

    # Phase 2
    c_std = np.concatenate([lp.c, np.zeros(k)])
    obj = np.zeros(n_tot + 1)
    obj[:n_tot] = c_std
    for i, bi in enumerate(basis):
        obj -= obj[bi] * tab[i]
    it2 = _simplex(tab, obj, basis, cap)

    y = np.zeros(n_tot)
    y[basis] = tab[:, -1]
    x = y[:n] + lp.lower
    value = float(lp.c @ x)

    # Dual extraction: rows kept after phase 1, mapped back through signs.
    a_full = np.zeros((m, n_tot))
    a_full[:k, :n] = lp.a_ge
    a_full[:k, n:] = -np.eye(k)
    a_full[k:, :n] = lp.a_eq
    a_signed = signs[:, None] * a_full
    bmat = a_signed[keep_rows][:, basis]
    try:
        ydual = np.linalg.solve(bmat.T, c_std[basis])
    except np.linalg.LinAlgError as exc:
        raise LpCertificationError(f"singular basis at optimum: {exc}") from exc
    nu = np.zeros(m)
    nu[keep_rows] = ydual
    nu *= signs
    dual_ge = nu[:k]
    dual_eq = nu[k:]

    _certify(lp, x, value, dual_ge, dual_eq)
    return LpSolution(value, x, dual_ge, dual_eq, it1 + it2, tuple(basis))


def _certify(lp: LinearProgram, x, value, dual_ge, dual_eq):
    scale = max(
        1.0,
        float(np.abs(lp.c).max(initial=0.0)),
        float(np.abs(lp.b_ge).max(initial=0.0)),
        float(np.abs(lp.b_eq).max(initial=0.0)),
    )
    tol = FEAS_TOL * scale

    slack_ge = lp.a_ge @ x - lp.b_ge
    if slack_ge.size and slack_ge.min() < -tol:
        raise LpCertificationError(f"primal >= violation {slack_ge.min():.3e}")
    res_eq = lp.a_eq @ x - lp.b_eq
    if res_eq.size and np.abs(res_eq).max() > tol:
        raise LpCertificationError(f"primal == violation {np.abs(res_eq).max():.3e}")
    if (x - lp.lower).min() < -tol:
        raise LpCertificationError("variable lower-bound violation")
    if dual_ge.size and dual_ge.min() < -tol:
        raise LpCertificationError(f"dual sign violation {dual_ge.min():.3e}")
    sigma = lp.c - lp.a_ge.T @ dual_ge - lp.a_eq.T @ dual_eq
    if sigma.min() < -tol:
        raise LpCertificationError(f"reduced-cost violation {sigma.min():.3e}")
    dual_value = float(dual_ge @ lp.b_ge + dual_eq @ lp.b_eq + sigma @ lp.lower)
    gap = abs(value - dual_value)
    comp = abs(float(dual_ge @ slack_ge)) + abs(float(sigma @ (x - lp.lower)))
    if gap > tol * max(1.0, abs(value)) or comp > 10 * tol * max(1.0, abs(value)):
        raise LpCertificationError(
            f"duality gap {gap:.3e} / complementary slackness {comp:.3e} too large"
        )


class BasisHint:
    """The optimal basis of the last full solve of  min c.x  s.t.
    a_ge.x >= b_ge, x >= 0, reused while only the cost c changes.

    ``key`` names what the caller built the constraints from, so that it
    can refuse a hint built for other constraints.  The right-hand side is
    fixed, so the primal point x_B = B^-1 b_ge depends on the basis alone
    and is formed once per adopted basis, together with the map
    c -> y = B^-T c_B from a cost to the basis duals.
    """

    def __init__(self, a_ge: np.ndarray, b_ge: np.ndarray, key=None):
        self.a_ge = np.array(a_ge, dtype=float)
        self.b_ge = np.array(b_ge, dtype=float).ravel()
        self.key = key
        self._b_max = float(np.abs(self.b_ge).max(initial=0.0))
        self.adopt(())

    def adopt(self, basis):
        """Keep ``basis`` (an ``LpSolution.basis``); B^-1 is formed at the next reuse."""
        self._basis = tuple(basis)
        self._dual_map = None

    def _factor(self) -> bool:
        """Factor the kept basis; False (and the basis dropped) when it is unusable."""
        k, n = self.a_ge.shape
        if len(self._basis) != k:
            return False
        cols = list(self._basis)
        try:
            binv = np.linalg.inv(np.hstack([self.a_ge, -np.eye(k)])[:, cols])
        except np.linalg.LinAlgError:
            self._basis = ()
            return False
        x_std = np.zeros(n + k)
        x_std[cols] = binv @ self.b_ge
        self._x = x_std[:n]
        self._x.setflags(write=False)
        # The primal checks of _certify, on the constraints themselves, so
        # an inaccurate inverse cannot pass them.
        self._slack = self.a_ge @ self._x - self.b_ge
        self._primal_min = min(
            float(self._slack.min(initial=0.0)), float(self._x.min(initial=0.0))
        )
        # Surplus columns cost 0, so only the structural basic columns enter.
        dual_map = np.zeros((n + k, k))
        dual_map[cols] = binv
        self._dual_map = np.ascontiguousarray(dual_map[:n].T)
        return True

    def reuse(self, c: np.ndarray) -> Optional[LpSolution]:
        """The solution for cost ``c`` off the kept basis, or None to solve in full.

        Returned only when it passes the checks of ``_certify`` at its
        ``FEAS_TOL`` scale: primal feasibility, dual feasibility (the
        duals' signs and the reduced costs), and the duality gap and
        complementary slackness.  Dual feasibility is held to ``FEAS_TOL``
        itself, the threshold at which ``_simplex`` stops, so a reused
        basis is one at which a full solve would stop too.
        """
        if self._dual_map is None and not self._factor():
            return None
        tol = FEAS_TOL * max(1.0, float(np.abs(c).max()), self._b_max)
        dual = self._dual_map @ c
        sigma = c - dual @ self.a_ge
        if self._primal_min < -tol or min(dual.min(), sigma.min()) < -FEAS_TOL:
            return None
        x = self._x
        value = float(c @ x)
        scale = tol * max(1.0, abs(value))
        if abs(value - float(dual @ self.b_ge)) > scale:
            return None
        if abs(float(dual @ self._slack)) + abs(float(sigma @ x)) > 10 * scale:
            return None
        return LpSolution(value, x, dual, np.zeros(0), 0, self._basis)
