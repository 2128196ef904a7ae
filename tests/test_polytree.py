import numpy as np
import pytest

from skacap import polytree
from skacap.errors import ConvergenceError, ModelError
from skacap.models import Polytree, edge, emulated_to_source, polytree_to_transceiver
from skacap.optimize import InputOptimizerConfig, maximize_product_simplices
from skacap.polytree import polytree_capacity, wiretapped_polytree_bounds
from skacap.prob import ZERO_CUTOFF, JointPMF, bec_matrix, binary_entropy, bsc_matrix
from skacap.transceiver import wsk_upper_by_pk


def cascade(p, q):
    """Crossover of two BSCs in series: p*q = p(1-q) + q(1-p)."""
    return p * (1 - q) + q * (1 - p)


def one_edge(rows, wiretap_rows=None):
    """The one-edge tree 1 -> 2 of a channel, and of its wiretap when given."""
    return Polytree(2, (edge(0, 1, rows, wiretap_rows=wiretap_rows),))


def edge_capacity(rows, tol=1e-9):
    """The capacity report of the one-edge tree of ``rows`` and its edge's witness."""
    rep = polytree_capacity(one_edge(rows), tol=tol)
    return rep, rep.witness["edges"][0]


def wiretapped_edge(rows, wiretap_rows, tol=1e-9):
    """max_p I(T;Y|Z) of one wiretapped edge: (value, optimal input, converged, gap)."""
    lower, upper = wiretapped_polytree_bounds(one_edge(rows, wiretap_rows), tol=tol)
    low, up = lower.witness["edges"][0], upper.witness["edges"][0]
    assert lower.value == low["value"] and upper.value == up["value"]
    return low["value"], np.array(low["optimal_input"]), low["converged"], up["gap"]


def mutual_information_grid(p, rows):
    """I(T;Y) in bits for every input row of ``p`` through ``rows``, from the joint."""
    p = p[:, :, None]
    joint = p * rows[None]
    p_y = joint.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(joint > 0, joint * np.log2(joint / (p * p_y)), 0.0)
    return terms.sum(axis=(1, 2))


def binary_inputs(t):
    """The binary inputs (t_i, 1 - t_i), one row each."""
    return np.stack([t, 1 - t], axis=1)


def test_bsc_capacities_match_binary_entropy_formula():
    for p in (0.05, 0.11, 0.2, 0.35, 0.5):
        rep, res = edge_capacity(bsc_matrix(p), tol=1e-9)
        assert rep.value == pytest.approx(1 - binary_entropy(p), abs=1e-8)
        assert res["gap"] <= 1e-9
        assert sum(res["optimal_input"]) == pytest.approx(1.0, abs=1e-12)


def test_identity_ternary_channel():
    rep, _ = edge_capacity(np.eye(3))
    assert rep.value == pytest.approx(np.log2(3), abs=1e-8)


def test_bec_capacity():
    rep, _ = edge_capacity(bec_matrix(0.3))
    assert rep.value == pytest.approx(0.7, abs=1e-8)


def test_zs_channel_against_grid_oracle():
    # asymmetric channel: optimum away from uniform; oracle = fine grid search
    rows = np.array([[1.0, 0.0], [0.3, 0.7]])
    rep, _ = edge_capacity(rows, tol=1e-11)
    grid = np.linspace(0.0, 1.0, 200001)
    best = mutual_information_grid(binary_inputs(grid[1:-1]), rows).max()
    assert rep.value == pytest.approx(best, abs=1e-8)


def test_edge_capacity_rejects_bad_input():
    with pytest.raises(ModelError):
        edge_capacity(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ModelError):
        edge_capacity(bsc_matrix(0.1), tol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_edge_capacity_rejects_non_finite_entries(bad):
    # NaN passes every comparison-based check, so it must be refused by name
    with pytest.raises(ModelError, match="non-finite"):
        edge_capacity(np.array([[bad, 1.0], [0.5, 0.5]]))
    with pytest.raises(ModelError, match="non-finite"):
        wiretapped_edge(bsc_matrix(0.1), np.array([[0.5, 0.5], [bad, 0.0]]))


def test_ba_monotone_lower_bound_sequence():
    # the achieved mutual information never decreases across iterations
    rows = np.random.default_rng(5).dirichlet(np.ones(4), size=3)
    prev = -np.inf
    for cap in range(1, 51):
        (i_low, _, it, _, _), = polytree._ascend_edges([[rows]], 1e-300, cap)
        assert it == cap
        assert i_low >= prev - 1e-12
        prev = i_low


#: 3x3 channel whose third input is tangent at the optimum: its divergence
#: equals the capacity (0.8 bit) while its optimal weight is 0, so the
#: Blahut-Arimoto gap shrinks only like 1/k^2.
_A = 0.15639185363452918
TANGENT = np.array([[0.8, 0.2, 0.0], [0.0, 0.2, 0.8], [_A, 1 - 2 * _A, _A]])


def frozen_divergences(rows, p_y):
    """D(W_x || p_y) per row, as the per-edge loop computed it: the bit-identity reference."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(
            rows > ZERO_CUTOFF,
            np.log2(np.maximum(rows, 1e-300) / np.maximum(p_y, 1e-300)),
            0.0,
        )
    return (rows * logs).sum(axis=1)


def frozen_ascent(w_y, w_z, tol, max_iter):
    """The per-edge Arimoto loop of both objectives, frozen as the bit-identity reference."""
    k = w_y.shape[0]
    r = np.full(k, 1.0 / k)
    for it in range(1, max_iter + 1):
        g = frozen_divergences(w_y, r @ w_y)
        if w_z is not None:
            g = g - frozen_divergences(w_z, r @ w_z)
        value = float(r @ g)
        gap = float(g.max()) - value
        if gap <= tol or it == max_iter:
            return value, r, it, gap, gap <= tol
        r = r * np.exp2(g)
        r = r / r.sum()


def reference_ba(rows, tol, max_iter):
    """The Blahut-Arimoto loop as it stood before the shared ascent routine."""
    k = rows.shape[0]
    r = np.full(k, 1.0 / k)
    gap = np.inf
    for it in range(1, max_iter + 1):
        d = frozen_divergences(rows, r @ rows)
        i_low = float(r @ d)
        i_up = float(d.max())
        gap = i_up - i_low
        if gap <= tol:
            return max(i_low, 0.0), r, it, max(gap, 0.0)
        r = r * np.exp2(d)
        r = r / r.sum()
    raise ConvergenceError(
        f"Blahut-Arimoto hit the {max_iter}-iteration cap (gap {gap:.3e})", gap=gap
    )


def test_edge_capacity_bit_identical_to_reference_ba(monkeypatch):
    rng = np.random.default_rng(21)
    cases = [(rng.dirichlet(np.ones(n_out), size=n_in), 1e-9)
             for n_in, n_out in ((2, 2), (3, 2), (2, 5), (4, 4), (6, 3))]
    cases.append((TANGENT, 1e-8))
    for rows, tol in cases:
        rep, res = edge_capacity(rows, tol=tol)
        cap, r, it, gap = reference_ba(rows, tol, polytree.BA_MAX_ITER)
        assert rep.value == res["value"] == cap
        assert res["optimal_input"] == [float(x) for x in r]
        assert res["iterations"] == it
        assert res["gap"] == gap
    # the cap raises with the same message and gap
    monkeypatch.setattr(polytree, "BA_MAX_ITER", 50)
    with pytest.raises(ConvergenceError) as new:
        edge_capacity(TANGENT, tol=1e-9)
    with pytest.raises(ConvergenceError) as old:
        reference_ba(TANGENT, 1e-9, 50)
    assert str(new.value) == str(old.value)
    assert new.value.gap == old.value.gap


def zero_column_channel(rng):
    """3x4 channel whose second output symbol is never produced, with one
    positive entry below ``ZERO_CUTOFF``, which counts as zero."""
    w = np.insert(rng.dirichlet(np.ones(3), size=3), 1, 0.0, axis=1)
    w[2, 2] += w[2, 3]
    w[2, 3] = 1e-16
    return w


def mixed_shape_tree(rng, wiretapped):
    """Seven edges of four channel shapes; edges of one shape stop on different steps."""
    channels = [
        rng.dirichlet(np.ones(2), size=2),
        rng.dirichlet(np.ones(5), size=2),
        TANGENT,
        rng.dirichlet(np.ones(2), size=2),
        zero_column_channel(rng),
        rng.dirichlet(np.ones(5), size=2),
        bsc_matrix(0.2),
    ]
    taps = [None] * len(channels)
    if wiretapped:
        taps = [
            bsc_matrix(0.3),
            rng.dirichlet(np.ones(2), size=5),
            np.ones((3, 1)),
            rng.dirichlet(np.ones(3), size=2),
            rng.dirichlet(np.ones(3), size=4),
            rng.dirichlet(np.ones(2), size=5),
            None,
        ]
    edges = [edge(i, i + 1, w, wiretap_rows=z) for i, (w, z) in enumerate(zip(channels, taps))]
    return Polytree(len(edges) + 1, tuple(edges)), channels, taps


def near_tie_tree():
    """Six edges within 0.04 bit of each other, so the ceiling stops edges only
    after tens of steps; the three 3x3 edges leave their stack on different steps."""
    def near(s):
        return (1 - s) * TANGENT + s * np.eye(3)

    channels = [near(3e-3), bsc_matrix(0.03), TANGENT,
                np.vstack([near(3e-3), [0.3, 0.4, 0.3]]), bsc_matrix(0.025), near(6e-3)]
    return Polytree(7, tuple(edge(i, i + 1, w) for i, w in enumerate(channels))), channels


def test_polytree_capacity_bit_identical_to_frozen_loop():
    # an edge stopped by its gap ran its whole frozen loop; one stopped by the
    # ceiling ran a prefix of it, up to its reported step
    mixed, mixed_channels, _ = mixed_shape_tree(np.random.default_rng(31), wiretapped=False)
    tol = 1e-8
    for g, channels in ((mixed, mixed_channels), near_tie_tree()):
        rep = polytree_capacity(g, tol=tol)
        full, expect = [], []
        for e, w, got in zip(g.edges, channels, rep.witness["edges"]):
            full.append(frozen_ascent(w, None, tol, polytree.BA_MAX_ITER))
            assert full[-1][4]
            gap_stop = got["stopped"] == "gap"
            value, r, it, gap, converged = frozen_ascent(
                w, None, tol, polytree.BA_MAX_ITER if gap_stop else got["iterations"])
            assert converged == gap_stop
            expect.append({"edge": [e.sender + 1, e.receiver + 1], "value": max(value, 0.0),
                           "optimal_input": [float(x) for x in r], "iterations": it,
                           "gap": max(gap, 0.0), "stopped": got["stopped"]})
        assert rep.witness["edges"] == expect
        assert rep.value == min(max(run[0], 0.0) for run in full)
        assert {x["stopped"] for x in expect} == {"gap", "bound"}
    steps = [x["iterations"] for x in expect]
    assert min(n for n, x in zip(steps, expect) if x["stopped"] == "bound") > 1
    assert len({steps[0], steps[2], steps[5]}) == 3


def random_mixed_tree(rng):
    """4 to 8 edges of random shapes up to 4x4, each attached to an earlier node
    in a random direction."""
    channels = [rng.dirichlet(np.ones(rng.integers(2, 5)), size=rng.integers(2, 5))
                for _ in range(rng.integers(4, 9))]
    edges = []
    for i, w in enumerate(channels, start=1):
        a, b = int(rng.integers(i)), i
        if rng.random() < 0.5:
            a, b = b, a
        edges.append(edge(a, b, w))
    return Polytree(len(channels) + 1, tuple(edges)), channels


def test_polytree_capacity_prunes_only_edges_above_the_minimum():
    rng = np.random.default_rng(41)
    pruned = 0
    for _ in range(6):
        g, channels = random_mixed_tree(rng)
        for tol in (1e-6, 1e-9, 1e-12):
            rep = polytree_capacity(g, tol=tol)
            edges, upper = rep.witness["edges"], rep.witness["upper"]
            # the same loop with no ceiling: every edge runs to its gap
            full = polytree._ascend_edges([[w] for w in channels], tol, polytree.BA_MAX_ITER)
            values = [max(run[0], 0.0) for run in full]
            assert all(run[4] == "gap" for run in full)
            assert rep.value == min(values)
            low = edges[int(np.argmin(values))]
            assert low["stopped"] == "gap" and low["gap"] <= tol
            assert upper <= min(x["value"] + x["gap"] for x in edges)
            for x in edges:
                if x["stopped"] == "bound":
                    pruned += 1
                    assert x["value"] >= upper
    assert pruned > 0


def test_wiretapped_bounds_bit_identical_to_frozen_loop():
    g, channels, taps = mixed_shape_tree(np.random.default_rng(32), wiretapped=True)
    tol = 1e-8
    lower, upper = wiretapped_polytree_bounds(g, tol=tol)
    low, up = [], []
    for e, w, z in zip(g.edges, channels, taps):
        value, r, _, gap, converged = frozen_ascent(
            w, None if z is None else w @ z, tol, polytree.BA_MAX_ITER)
        name = [e.sender + 1, e.receiver + 1]
        low.append({"edge": name, "value": max(value, 0.0),
                    "optimal_input": [float(x) for x in r], "converged": converged})
        up.append({"edge": name, "value": max(value, 0.0) + max(gap, 0.0),
                   "gap": max(gap, 0.0)})
    assert lower.witness == {"edges": low, "all_converged": all(x["converged"] for x in low)}
    assert upper.witness == {"edges": up}
    assert lower.value == min(x["value"] for x in low)
    assert upper.value == min(x["value"] for x in up)


#: Five edges for the cap tests: at tol 1e-6 and a 50-step cap the 2nd
#: (TANGENT) and the 4th (TANGENT with a useless fourth input) hit the cap
#: with different gaps; the 4th shares its stack with the 1st, which
#: converges on step 16.  The other edges carry 0.92 to 1.3 bit, above
#: TANGENT's 0.8, so the capped edges are the minimum and no ceiling stops them.
CAPPED_TREE = (
    np.array([[0.96, 0.02, 0.02], [0.02, 0.96, 0.02], [0.02, 0.02, 0.96], [0.4, 0.3, 0.3]]),
    TANGENT,
    np.array([[0.96, 0.02, 0.02], [0.02, 0.96, 0.02], [0.02, 0.02, 0.96]]),
    np.vstack([TANGENT, [0.4, 0.2, 0.4]]),
    bsc_matrix(0.01),
)


def test_polytree_capacity_cap_raises_for_the_first_capped_edge(monkeypatch):
    monkeypatch.setattr(polytree, "BA_MAX_ITER", 50)
    g = Polytree(6, tuple(edge(i, i + 1, w) for i, w in enumerate(CAPPED_TREE)))
    runs = [frozen_ascent(w, None, 1e-6, 50) for w in CAPPED_TREE]
    assert [run[4] for run in runs] == [True, False, True, False, True]
    assert runs[1][3] != runs[3][3]
    with pytest.raises(ConvergenceError) as new:
        polytree_capacity(g, tol=1e-6)
    with pytest.raises(ConvergenceError) as old:
        reference_ba(TANGENT, 1e-6, 50)
    assert str(new.value) == str(old.value)
    assert new.value.gap == old.value.gap == runs[1][3]


def test_wiretapped_bounds_cap_marks_exactly_the_capped_edges(monkeypatch):
    monkeypatch.setattr(polytree, "BA_MAX_ITER", 50)
    taps = (None, np.ones((3, 1)), None, np.ones((3, 1)), None)
    g = Polytree(6, tuple(edge(i, i + 1, w, wiretap_rows=z)
                          for i, (w, z) in enumerate(zip(CAPPED_TREE, taps))))
    lower, upper = wiretapped_polytree_bounds(g, tol=1e-6)
    assert [e["converged"] for e in lower.witness["edges"]] == [True, False, True, False, True]
    assert lower.witness["all_converged"] is False
    for got, w, z in zip(upper.witness["edges"], CAPPED_TREE, taps):
        run = frozen_ascent(w, None if z is None else w @ z, 1e-6, 50)
        assert got["gap"] == max(run[3], 0.0)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_edge_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ModelError, match="tolerance"):
        edge_capacity(bsc_matrix(0.1), tol=tol)
    with pytest.raises(ModelError, match="tolerance"):
        wiretapped_edge(bsc_matrix(0.1), bsc_matrix(0.3), tol=tol)


def test_polytree_refuses_fewer_than_two_terminals():
    with pytest.raises(ModelError, match="at least two terminals"):
        Polytree(1, ())


def test_polytree_capacity_single_edge():
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.11)),))
    rep = polytree_capacity(g)
    assert rep.value == pytest.approx(1 - binary_entropy(0.11), abs=1e-8)
    assert rep.kind == "exact"


def test_polytree_capacity_path_min_of_edges():
    g = Polytree(3, (edge(0, 1, bsc_matrix(0.11)), edge(1, 2, bsc_matrix(0.2))))
    rep = polytree_capacity(g)
    assert rep.value == pytest.approx(1 - binary_entropy(0.2), abs=1e-8)
    values = [e["value"] for e in rep.witness["edges"]]
    assert min(values) == rep.value


def test_polytree_capacity_zero_capacity_edge_dominates():
    dead = np.array([[1.0, 0.0], [1.0, 0.0]])  # constant output
    g = Polytree(3, (edge(0, 1, bsc_matrix(0.05)), edge(1, 2, dead)))
    assert polytree_capacity(g).value == pytest.approx(0.0, abs=1e-12)


def test_polytree_capacity_edge_order_invariant():
    e1 = edge(0, 1, bsc_matrix(0.11))
    e2 = edge(1, 2, bsc_matrix(0.2))
    v1 = polytree_capacity(Polytree(3, (e1, e2))).value
    v2 = polytree_capacity(Polytree(3, (e2, e1))).value
    assert v1 == v2  # bit-identical


def test_wiretap_constant_equals_edge_capacity():
    value, _, _, _ = wiretapped_edge(bsc_matrix(0.11), None)
    cap = edge_capacity(bsc_matrix(0.11))[0].value
    assert value == pytest.approx(cap, abs=1e-6)
    assert value <= cap + 1e-9


def test_wiretap_identity_kills_key():
    value, _, _, _ = wiretapped_edge(bsc_matrix(0.1), np.eye(2))
    assert value == pytest.approx(0.0, abs=1e-10)


def test_wiretap_markov_identity_at_uniform():
    # I(T;Y|Z) = I(T;Y) - I(T;Z) under T - Y - Z; Z is a BSC(0.3) of Y
    p, q = 0.1, 0.3
    w_y = bsc_matrix(p)
    w_z = bsc_matrix(q)
    uniform = np.array([[0.5, 0.5]])
    got = (mutual_information_grid(uniform, w_y) - mutual_information_grid(uniform, w_y @ w_z))[0]
    expect = binary_entropy(cascade(p, q)) - binary_entropy(p)
    assert got == pytest.approx(expect, abs=1e-12)
    # the optimizer should do at least as well as the uniform input
    value, _, _, _ = wiretapped_edge(w_y, w_z)
    assert value >= got - 1e-9


def test_wiretap_markov_identity_vs_joint_conditional_mi():
    # direct I(T;Y|Z) on the triple joint equals I(T;Y) - I(T;Z)
    from skacap.prob import Alphabet, Dmc, JointPMF, mutual_information

    rng = np.random.default_rng(3)
    for _ in range(10):
        w_y = rng.dirichlet(np.ones(2), size=2)
        w_z = rng.dirichlet(np.ones(2), size=2)
        p = rng.dirichlet(np.ones(2))
        joint = np.zeros((2, 2, 2))
        for t in range(2):
            for y in range(2):
                for z in range(2):
                    joint[t, y, z] = p[t] * w_y[t, y] * w_z[y, z]
        jp = JointPMF(((0, Alphabet(2)), (1, Alphabet(2)), (2, Alphabet(2))), joint.ravel())
        direct = mutual_information(jp, {0}, {1}, {2})
        viamarkov = (mutual_information_grid(p[None], w_y)
                     - mutual_information_grid(p[None], w_y @ w_z))[0]
        assert direct == pytest.approx(viamarkov, abs=1e-10)


def test_wiretapped_bounds_single_edge_z_equals_y():
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.1), wiretap_rows=np.eye(2)),))
    lower, upper = wiretapped_polytree_bounds(g)
    assert lower.value == pytest.approx(0.0, abs=1e-9)
    assert upper.value == pytest.approx(0.0, abs=1e-9)


def test_wiretapped_bounds_constant_wiretap_reduces_to_capacity():
    g = Polytree(
        3,
        (
            edge(0, 1, bsc_matrix(0.11), wiretap_rows=np.ones((2, 1))),
            edge(1, 2, bsc_matrix(0.2), wiretap_rows=np.ones((2, 1))),
        ),
    )
    lower, upper = wiretapped_polytree_bounds(g)
    cap = polytree_capacity(g).value
    assert lower.value == pytest.approx(cap, abs=1e-6)
    assert lower.value <= upper.value + 1e-7


def test_wiretapped_bounds_markov_single_edge_tight():
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.1), wiretap_rows=bsc_matrix(0.3)),))
    lower, upper = wiretapped_polytree_bounds(g)
    # m=2 closed form: both sides equal max_p I(T;Y|Z)
    assert lower.value <= upper.value + 1e-7
    assert upper.value == pytest.approx(lower.value, abs=1e-5)
    assert lower.kind == "lower_bound" and upper.kind == "upper_bound"


def test_wiretap_lower_never_exceeds_capacity():
    # random channels can be nearly flat, where BA converges slowly: use a
    # looser certificate tolerance, which still dominates the comparison
    rng = np.random.default_rng(11)
    for _ in range(10):
        w_y = rng.dirichlet(np.ones(2), size=2)
        w_z = rng.dirichlet(np.ones(2), size=2)
        cap = edge_capacity(w_y, tol=1e-7)[0].value
        value, _, _, _ = wiretapped_edge(w_y, w_z)
        assert value <= cap + 1e-7


def test_wiretap_mismatched_alphabet_is_model_error():
    with pytest.raises(ModelError, match="wiretap input alphabet"):
        wiretapped_edge(np.eye(2), np.ones((3, 1)))


def random_wiretapped_tree(rng, k):
    """k binary edges, each attached to an earlier node in a random direction."""
    edges = []
    for i in range(1, k + 1):
        a, b = int(rng.integers(i)), i
        if rng.random() < 0.5:
            a, b = b, a
        w_y = rng.dirichlet(np.ones(2), size=2)
        w_z = rng.dirichlet(np.ones(2), size=2)
        edges.append(edge(a, b, w_y, wiretap_rows=w_z))
    return Polytree(k + 1, tuple(edges))


def test_wiretapped_bounds_match_dense_pk_route():
    # independent route: flatten the tree, promote Z to a compromised
    # terminal and solve the PK capacity by the CO LP at the per-edge inputs
    rng = np.random.default_rng(606)
    for k in (1, 2, 3, 1, 2, 3):
        g = random_wiretapped_tree(rng, k)
        lower, upper = wiretapped_polytree_bounds(g)
        t = polytree_to_transceiver(g)
        flat = np.ones(1)
        for e in lower.witness["edges"]:
            flat = np.kron(flat, e["optimal_input"])
        src = emulated_to_source(t, JointPMF(t.channel.in_vars, flat))
        dense = wsk_upper_by_pk(src, (1 << g.m) - 1).value
        assert dense == pytest.approx(lower.value, abs=1e-9)
        assert dense <= upper.value + 1e-9


def test_wiretapped_upper_bounds_every_input():
    rng = np.random.default_rng(607)
    grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(8):
        w_y = rng.dirichlet(np.ones(2), size=2)
        w_z = rng.dirichlet(np.ones(2), size=2)
        lower, upper = wiretapped_polytree_bounds(one_edge(w_y, w_z))
        t = binary_inputs(grid)
        f = mutual_information_grid(t, w_y) - mutual_information_grid(t, w_y @ w_z)
        assert upper.value >= f.max() - 1e-12
        gap = upper.witness["edges"][0]["gap"]
        assert 0.0 <= gap <= 1e-6  # the search ends near the optimum: a tight certificate
        assert upper.value - lower.value == pytest.approx(gap, abs=1e-12)
        assert upper.method == "wiretapped-pin-edge-cut"


def test_wiretap_gap_certifies_a_rough_search(monkeypatch):
    # two Arimoto steps stop short of the optimum on ternary edges;
    # value + gap must still cover the certified value
    rng = np.random.default_rng(608)
    shortfalls = []
    for _ in range(6):
        w_y = rng.dirichlet(np.ones(3), size=3)
        w_z = rng.dirichlet(np.ones(3), size=3)
        best = wiretapped_edge(w_y, w_z)[0]
        with monkeypatch.context() as patch:
            patch.setattr(polytree, "BA_MAX_ITER", 2)
            value, _, converged, gap = wiretapped_edge(w_y, w_z)
        assert converged is False
        assert value + gap >= best - 1e-12
        shortfalls.append(best - value)
    assert max(shortfalls) > 1e-4


def test_wiretap_ascent_matches_an_independent_search():
    # the multistart coordinate search of optimize.py never beats the
    # certified value by more than the tolerance
    rng = np.random.default_rng(609)
    tol = 1e-9
    for k in (3, 3, 4, 4, 8, 8):
        w_y = rng.dirichlet(np.ones(k), size=k)
        w_z = rng.dirichlet(np.ones(k), size=k)
        v = w_y @ w_z

        def f(p):
            return mutual_information_grid(p, w_y) - mutual_information_grid(p, v)

        value, optimal_input, converged, gap = wiretapped_edge(w_y, w_z, tol=tol)
        search = maximize_product_simplices([k], lambda stack: f(stack[0]),
                                            InputOptimizerConfig(restarts=4, seed=k))
        assert converged
        assert gap <= tol
        assert value == pytest.approx(f(optimal_input[None])[0], abs=1e-12)
        assert value >= search.value - tol


def test_wiretapped_bounds_at_the_iteration_cap(monkeypatch):
    # the tangent channel needs thousands of steps; at a cap of 50 the pair
    # is still reported, and flagged as not converged
    monkeypatch.setattr(polytree, "BA_MAX_ITER", 50)
    g = Polytree(2, (edge(0, 1, TANGENT, wiretap_rows=np.ones((3, 1))),))
    lower, upper = wiretapped_polytree_bounds(g)
    assert lower.witness["all_converged"] is False
    assert lower.witness["edges"][0]["converged"] is False
    assert 0.0 < lower.value <= upper.value
    assert upper.witness["edges"][0]["gap"] > 1e-9
    monkeypatch.undo()
    assert upper.value >= edge_capacity(TANGENT, tol=1e-8)[0].value


def wiretapped_bsc_path(k):
    return Polytree(
        k + 1,
        tuple(
            edge(i, i + 1, bsc_matrix(0.1), wiretap_rows=bsc_matrix(0.25)) for i in range(k)
        ),
    )


def test_flattened_channel_cell_cap():
    # k wiretapped binary edges flatten to 2^k inputs x 2^k outputs x 2^k
    # eavesdropper symbols: 8 edges is exactly the 2^24-cell cap
    t = polytree_to_transceiver(wiretapped_bsc_path(8))
    assert t.channel.rows.size == 1 << 24
    with pytest.raises(ModelError, match="flattened channel has 134217728 cells"):
        polytree_to_transceiver(wiretapped_bsc_path(9))
