import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from skacap import linprog
from skacap.errors import LpInfeasibleError, LpUnboundedError
from skacap.linprog import FEAS_TOL, BasisHint, LinearProgram, lp_solve


def test_single_bound():
    # min x s.t. x >= 3
    sol = lp_solve(LinearProgram(c=[1.0], a_ge=[[1.0]], b_ge=[3.0]))
    assert sol.value == pytest.approx(3.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-12)


def test_binding_joint_constraint():
    # min x+y s.t. x >= 1, y >= 2, x+y >= 4
    lp = LinearProgram(
        c=[1.0, 1.0],
        a_ge=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        b_ge=[1.0, 2.0, 4.0],
    )
    sol = lp_solve(lp)
    assert sol.value == pytest.approx(4.0, abs=1e-12)


def test_two_terminal_omniscience_shape():
    # min R1+R2 s.t. R1 >= h1, R2 >= h2 has value h1+h2
    h1, h2 = 0.4999, 0.1234
    lp = LinearProgram(c=[1.0, 1.0], a_ge=np.eye(2), b_ge=[h1, h2])
    sol = lp_solve(lp)
    assert sol.value == pytest.approx(h1 + h2, abs=1e-12)


def test_equality_constraints():
    # min -x-2y s.t. x+y == 1, x,y >= 0  ->  y=1
    lp = LinearProgram(c=[-1.0, -2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = lp_solve(lp)
    assert sol.value == pytest.approx(-2.0, abs=1e-12)
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-12)


def test_lower_bounds():
    lp = LinearProgram(
        c=[1.0, 1.0],
        a_ge=[[1.0, 1.0]],
        b_ge=[1.0],
        lower=[0.6, 0.6],
    )
    sol = lp_solve(lp)
    assert sol.value == pytest.approx(1.2, abs=1e-12)


def test_infeasible():
    lp = LinearProgram(
        c=[1.0],
        a_ge=[[1.0]],
        b_ge=[2.0],
        a_eq=[[1.0]],
        b_eq=[1.0],
    )
    with pytest.raises(LpInfeasibleError):
        lp_solve(lp)


def test_unbounded():
    with pytest.raises(LpUnboundedError):
        lp_solve(LinearProgram(c=[-1.0], a_ge=[[1.0]], b_ge=[1.0]))


def test_random_covering_lps_match_scipy():
    # Random 0/1 covering LPs shaped like the omniscience program.
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 12))
        a = (rng.random((k, n)) < 0.5).astype(float)
        a[a.sum(axis=1) == 0, 0] = 1.0
        b = rng.random(k) * 2
        lp = LinearProgram(c=np.ones(n), a_ge=a, b_ge=b)
        sol = lp_solve(lp)
        ref = scipy_linprog(np.ones(n), A_ub=-a, b_ub=-b, bounds=(0, None))
        assert ref.success
        assert sol.value == pytest.approx(ref.fun, abs=1e-8)
        assert np.all(a @ sol.x >= b - 1e-9)


def test_random_equality_lps_match_scipy():
    # Random fractional-cover style LPs: max h.lam s.t. M.lam == 1, lam >= 0
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(60):
        m = int(rng.integers(2, 5))
        nb = int(rng.integers(m, 2**m))
        cols = rng.permutation(2**m - 1)[:nb] + 1
        inc = np.array([[(b >> j) & 1 for b in cols] for j in range(m)], dtype=float)
        # ensure feasibility by including all singletons
        singles = np.eye(m)
        inc = np.hstack([inc, singles])
        h = rng.random(inc.shape[1])
        lp = LinearProgram(c=-h, a_eq=inc, b_eq=np.ones(m))
        sol = lp_solve(lp)
        ref = scipy_linprog(-h, A_eq=inc, b_eq=np.ones(m), bounds=(0, None))
        assert ref.success
        assert sol.value == pytest.approx(ref.fun, abs=1e-8)
        solved += 1
    assert solved == 60


def test_duals_certify_strong_duality():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 8))
        a = (rng.random((k, n)) < 0.6).astype(float)
        a[a.sum(axis=1) == 0, -1] = 1.0
        b = rng.random(k)
        lp = LinearProgram(c=rng.random(n) + 0.1, a_ge=a, b_ge=b)
        sol = lp_solve(lp)
        dual_val = float(sol.dual_ge @ b)
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


def test_basis_hint_reuses_only_certified_optimal_bases():
    # max h.x over a fixed packing polytope  a.x <= 1, x >= 0, for many costs h:
    # a solve's own basis is reused for its cost, and any reuse agrees with a
    # full solve for that cost
    rng = np.random.default_rng(90)
    a = (rng.random((5, 12)) < 0.4).astype(float)
    a[:, a.sum(axis=0) == 0] = 1.0
    hint = BasisHint(a_ge=-a, b_ge=-np.ones(5))
    reused = fallbacks = 0
    h = rng.random(12)
    for _ in range(200):
        h = np.clip(h + rng.normal(0.0, 0.05, 12), 0.0, None)
        full = lp_solve(LinearProgram(c=-h, a_ge=-a, b_ge=-np.ones(5)))
        sol = hint.reuse(-h)
        if sol is None:
            fallbacks += 1
            hint.adopt(full.basis)
            sol = hint.reuse(-h)
            assert sol is not None and sol.basis == full.basis
        else:
            reused += 1
        assert sol.value == pytest.approx(full.value, abs=1e-12)
        assert sol.iterations == 0
        assert (a @ sol.x).max() <= 1 + FEAS_TOL and sol.x.min() >= -FEAS_TOL
        assert (sol.dual_ge @ -a + h).max() <= FEAS_TOL  # rates cover h
    assert reused > 50 and fallbacks > 5
