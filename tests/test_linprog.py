import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from skacap import linprog
from skacap.errors import LpUnboundedError, ModelError
from skacap.linprog import FEAS_TOL, BasisHint, LinearProgram, lp_solve
from skacap.models import PartySpec
from skacap.omniscience import co_basis_hint


def packing(h, a, c=None):
    """max h.u  s.t.  a.u <= c (default 1), u >= 0, in lp_solve's one form."""
    a = np.asarray(a, dtype=float)
    c = np.ones(a.shape[0]) if c is None else np.asarray(c, dtype=float)
    return LinearProgram(c=-np.asarray(h, dtype=float), a_ge=-a, b_ge=-c)


def test_single_bound():
    # max 3u s.t. u <= 1: the dual of min x s.t. x >= 3
    sol = lp_solve(packing([3.0], [[1.0]]))
    assert sol.value == pytest.approx(-3.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.dual_ge[0] == pytest.approx(3.0, abs=1e-12)


def test_binding_joint_constraint():
    # max u1 + 2 u2 + 4 u3 s.t. u1 + u3 <= 1, u2 + u3 <= 1: the dual of
    # min x + y s.t. x >= 1, y >= 2, x + y >= 4, whose joint row binds
    a = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    sol = lp_solve(packing([1.0, 2.0, 4.0], a))
    ref = scipy_linprog([-1.0, -2.0, -4.0], A_ub=a, b_ub=[1.0, 1.0], bounds=(0, None))
    assert ref.success
    assert sol.value == pytest.approx(ref.fun, abs=1e-12)
    assert sol.value == pytest.approx(-4.0, abs=1e-12)
    np.testing.assert_allclose(sol.x, [0.0, 0.0, 1.0], atol=1e-12)
    assert sol.dual_ge.sum() == pytest.approx(4.0, abs=1e-12)
    assert np.all(sol.dual_ge >= [1.0 - 1e-12, 2.0 - 1e-12])


def test_two_terminal_omniscience_shape():
    # max h1 u1 + h2 u2 s.t. u1, u2 <= 1 has value h1 + h2, and its duals
    # are the rates R1 = h1, R2 = h2 of min R1 + R2 s.t. R1 >= h1, R2 >= h2
    h1, h2 = 0.4999, 0.1234
    sol = lp_solve(packing([h1, h2], np.eye(2)))
    ref = scipy_linprog([-h1, -h2], A_ub=np.eye(2), b_ub=[1.0, 1.0], bounds=(0, None))
    assert ref.success
    assert sol.value == pytest.approx(ref.fun, abs=1e-12)
    assert sol.value == pytest.approx(-(h1 + h2), abs=1e-12)
    np.testing.assert_allclose(sol.dual_ge, [h1, h2], atol=1e-12)


def test_unbounded():
    with pytest.raises(LpUnboundedError):
        lp_solve(LinearProgram(c=[-1.0], a_ge=[[1.0]], b_ge=[-1.0]))


def test_positive_b_ge_is_refused():
    # the surplus basis would start infeasible, and there is no phase 1
    with pytest.raises(ModelError, match="b_ge <= 0"):
        lp_solve(LinearProgram(c=[1.0], a_ge=[[1.0], [1.0]], b_ge=[-1.0, 3.0]))


def test_random_covering_lps_match_scipy():
    # Random 0/1 covering LPs shaped like the omniscience program, solved as
    # their packing duals: max b.u s.t. a^T u <= 1; the duals are the rates
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 12))
        a = (rng.random((k, n)) < 0.5).astype(float)
        a[a.sum(axis=1) == 0, 0] = 1.0
        b = rng.random(k) * 2
        sol = lp_solve(packing(b, a.T))
        ref = scipy_linprog(np.ones(n), A_ub=-a, b_ub=-b, bounds=(0, None))
        assert ref.success
        assert -sol.value == pytest.approx(ref.fun, abs=1e-8)
        assert np.all(a @ sol.dual_ge >= b - 1e-9)
        assert np.all(a.T @ sol.x <= 1 + 1e-9)


def test_duals_certify_strong_duality():
    # max b.u s.t. a^T u <= c, u >= 0, with positive capacities c
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 8))
        a = (rng.random((k, n)) < 0.6).astype(float)
        a[a.sum(axis=1) == 0, -1] = 1.0
        b = rng.random(k)
        c = rng.random(n) + 0.1
        lp = packing(b, a.T, c)
        sol = lp_solve(lp)
        ref = scipy_linprog(-b, A_ub=a.T, b_ub=c, bounds=(0, None))
        assert ref.success
        assert sol.value == pytest.approx(ref.fun, abs=1e-8)
        dual_val = float(sol.dual_ge @ lp.b_ge)
        assert dual_val == pytest.approx(sol.value, abs=1e-8)
        assert np.all(sol.dual_ge >= -FEAS_TOL)


def test_degenerate_fallback_terminates_on_beale_cycle():
    # Beale's tableau: most-negative pricing with smallest-basis-index ties
    # cycles through six degenerate bases; the Bland fallback must break it.
    rows = np.array(
        [
            [1, 0, 0, 0.25, -8, -1, 9],
            [0, 1, 0, 0.5, -12, -0.5, 3],
            [0, 0, 1, 0, 0, 1, 0],
        ]
    )
    rhs = np.array([0.0, 0.0, 1.0])
    cost = np.array([0, 0, 0, -0.75, 20, -0.5, 6])
    tab = np.hstack([rows, rhs[:, None]])
    obj = np.append(cost, 0.0)
    linprog._simplex(tab, obj, [0, 1, 2], cap=200)
    ref = scipy_linprog(cost, A_eq=rows, b_eq=rhs, bounds=(0, None))
    assert ref.success
    assert -obj[-1] == pytest.approx(ref.fun, abs=1e-12)
    assert ref.fun == pytest.approx(-1.25, abs=1e-12)


def test_basis_hint_reuses_only_certified_optimal_bases(monkeypatch):
    # max h.x over a fixed packing polytope  a.x <= 1, x >= 0, for many costs h:
    # a solve's own basis is reused for its cost, and any reuse agrees with a
    # full solve for that cost without running the simplex
    simplex, runs = linprog._simplex, []

    def counted(*args, **kw):
        runs.append(1)
        return simplex(*args, **kw)

    monkeypatch.setattr(linprog, "_simplex", counted)
    rng = np.random.default_rng(90)
    a = (rng.random((5, 12)) < 0.4).astype(float)
    a[:, a.sum(axis=0) == 0] = 1.0
    hint = BasisHint(a_ge=-a, b_ge=-np.ones(5))
    reused = fallbacks = 0
    h = rng.random(12)
    walk = []
    for _ in range(200):
        h = np.clip(h + rng.normal(0.0, 0.05, 12), 0.0, None)
        walk.append(h)
        full = lp_solve(LinearProgram(c=-h, a_ge=-a, b_ge=-np.ones(5)))
        before = len(runs)
        (which,), (value,), (x,), (dual,) = hint.reuse_all(-h[None])
        if which < 0:
            fallbacks += 1
            hint.adopt(full.basis)
            (which,), (value,), (x,), (dual,) = hint.reuse_all(-h[None])
            assert which >= 0 and hint.pool[which] == full.basis
        else:
            reused += 1
        assert value == pytest.approx(full.value, abs=1e-12)
        assert len(runs) == before  # a pooled read takes no pivot
        assert (a @ x).max() <= 1 + FEAS_TOL and x.min() >= -FEAS_TOL
        assert (dual @ -a + h).max() <= FEAS_TOL  # rates cover h
    assert reused > 50 and fallbacks > 5
    # the whole walk as one stack: each certified row's value and duals are,
    # bit for bit, the one-row products off its basis
    costs = -np.array(walk)
    which, values, xs, duals = hint.reuse_all(costs)
    assert (which >= 0).sum() > 50
    for i in np.flatnonzero(which >= 0):
        x, _, _, dual_map = hint._pool[which[i]][1]
        assert np.array_equal(xs[i], x)
        assert values[i] == float(costs[i] @ x)
        assert np.array_equal(duals[i], dual_map @ costs[i])


def test_pooled_read_of_every_row_equals_the_one_row_products():
    # the CO packing LP of m = 2, A = {1,2}: one basis is optimal for every
    # cost with both entries below -FEAS_TOL, so every row of the stack
    # passes it, and gets bit for bit the one-row c @ x and dual_map @ c
    hint = co_basis_hint(PartySpec(2, 0b11, 0))
    costs = -np.random.default_rng(91).uniform(0.01, 3.0, size=(40, 2))
    hint.adopt(lp_solve(LinearProgram(c=costs[0], a_ge=hint.a_ge, b_ge=hint.b_ge)).basis)
    which, values, xs, duals = hint.reuse_all(costs)
    assert np.array_equal(which, np.zeros(40))
    x, _, _, dual_map = hint._pool[0][1]
    for c, value, point, dual in zip(costs, values, xs, duals):
        assert np.array_equal(point, x)
        assert value == float(c @ x)
        assert np.array_equal(dual, dual_map @ c)
