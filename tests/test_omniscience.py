import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from skacap import linprog, omniscience
from skacap.errors import ModelError
from skacap.linprog import LinearProgram, lp_solve
from skacap.models import PartySpec, SourceModel, bits, mask_of
from skacap.omniscience import (
    co_basis_hint,
    constraint_family,
    incidence,
    max_cover,
    pk_capacity,
    sk_capacity,
    sk_capacity_dual,
)
from skacap.prob import (
    Alphabet,
    JointPMF,
    binary_entropy,
    entropy,
    mutual_information,
)

B = Alphabet(2)


def one_var_per_terminal(flat, sizes):
    vl = tuple((i, Alphabet(s)) for i, s in enumerate(sizes))
    pmf = JointPMF(vl, np.asarray(flat, dtype=float))
    return SourceModel(pmf, tuple(frozenset({i}) for i in range(len(sizes))))


def family_oracle(m, a_set, d_set):
    """Exhaustive enumeration of {B : B nonempty, B strictly in D^c, A not in B}."""
    dc = set(range(m)) - set(d_set)
    out = []
    for r in range(1, len(dc) + 1):
        for combo in itertools.combinations(sorted(dc), r):
            b = set(combo)
            if b == dc:
                continue
            if set(a_set) <= b:
                continue
            out.append(sum(1 << j for j in b))
    return sorted(out)


def test_constraint_family_m2():
    fam = constraint_family(PartySpec.from_one_based(2, [1, 2]))
    assert list(fam.members) == [0b01, 0b10]


def test_constraint_family_m3_full_a12():
    fam = constraint_family(PartySpec.from_one_based(3, [1, 2]))
    assert list(fam.members) == sorted(family_oracle(3, {0, 1}, set()))
    # {1},{2},{3},{1,3},{2,3}
    assert list(fam.members) == [0b001, 0b010, 0b100, 0b101, 0b110]


def test_constraint_family_with_d():
    fam = constraint_family(PartySpec.from_one_based(3, [1, 2], [3]))
    assert list(fam.members) == [0b001, 0b010]
    assert list(fam.members) == sorted(family_oracle(3, {0, 1}, {2}))


def test_constraint_family_random_against_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        a = set(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
        rest = sorted(set(range(m)) - a)
        d = set(
            rng.choice(rest, size=int(rng.integers(0, len(rest) + 1)), replace=False).tolist()
        ) if rest else set()
        spec = PartySpec(m, sum(1 << j for j in a), sum(1 << j for j in d))
        fam = constraint_family(spec)
        assert list(fam.members) == sorted(family_oracle(m, a, d))


def bsc_pair_model(p):
    joint = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    return one_var_per_terminal(joint.ravel(), (2, 2))


def rco(model, spec):
    """R_CO as the ``pk_capacity`` witness carries it, from the same ``_rco`` call."""
    return pk_capacity(model, spec).witness["rco"]


def test_rco_perfectly_correlated_bits():
    model = one_var_per_terminal([0.5, 0.0, 0.0, 0.5], (2, 2))
    rep = pk_capacity(model, PartySpec.from_one_based(2, [1, 2]))
    assert rep.witness["rco"] == pytest.approx(0.0, abs=1e-12)
    assert rep.kind == "exact"


def test_rco_independent_bits():
    model = one_var_per_terminal([0.25] * 4, (2, 2))
    assert rco(model, PartySpec.from_one_based(2, [1, 2])) == pytest.approx(2.0, abs=1e-10)


def test_rco_bsc_closed_form():
    got = rco(bsc_pair_model(0.11), PartySpec.from_one_based(2, [1, 2]))
    assert got == pytest.approx(2 * binary_entropy(0.11), abs=1e-10)


def test_pk_reduction_examples():
    # X1 = X2 = X3 uniform bit: Eve's terminal knows everything
    flat = np.zeros(8)
    flat[0b000] = 0.5
    flat[0b111] = 0.5
    model = one_var_per_terminal(flat, (2, 2, 2))
    spec = PartySpec.from_one_based(3, [1, 2], [3])
    assert pk_capacity(model, spec).value == pytest.approx(0.0, abs=1e-9)

    # X3 independent of X1 = X2 uniform
    pair = np.array([0.5, 0.0, 0.0, 0.5]).reshape(2, 2)
    flat = (pair[:, :, None] * np.array([0.5, 0.5])[None, None, :]).ravel()
    model = one_var_per_terminal(flat, (2, 2, 2))
    assert pk_capacity(model, spec).value == pytest.approx(1.0, abs=1e-9)


def test_pk_requires_a_pair():
    model = one_var_per_terminal([0.25] * 4, (2, 2))
    with pytest.raises(ModelError):
        pk_capacity(model, PartySpec(2, a=0b01, d=0b10))


def test_sk_two_terminal_closed_forms():
    rep = sk_capacity(bsc_pair_model(0.11), {0, 1})
    assert rep.value == pytest.approx(1 - binary_entropy(0.11), abs=1e-10)

    flat = np.zeros(8)
    flat[0b000] = 0.5
    flat[0b111] = 0.5
    model = one_var_per_terminal(flat, (2, 2, 2))
    assert sk_capacity(model, {0, 1, 2}).value == pytest.approx(1.0, abs=1e-10)


def test_sk_three_terminal_pin_path():
    # terminals 1-2-3 share two independent uniform bits along a path
    b1 = np.array([0.5, 0.5])
    flat = np.zeros((2, 2, 2, 2))  # vars: X1=b1, X2=(b1', b2), X3=b2'
    for x in range(2):
        for y in range(2):
            flat[x, x, y, y] = 0.25
    vl = ((0, B), (1, B), (2, B), (3, B))
    pmf = JointPMF(vl, flat.ravel())
    model = SourceModel(pmf, (frozenset({0}), frozenset({1, 2}), frozenset({3})))
    assert sk_capacity(model, {0, 1, 2}).value == pytest.approx(1.0, abs=1e-10)


def test_two_terminal_oracle_sk_equals_mutual_information():
    rng = np.random.default_rng(24)
    for _ in range(200):
        s1, s2 = rng.integers(2, 5, size=2)
        flat = rng.dirichlet(np.ones(int(s1 * s2)))
        model = one_var_per_terminal(flat, (int(s1), int(s2)))
        got = sk_capacity(model, {0, 1}).value
        want = mutual_information(model.pmf, {0}, {1})
        assert got == pytest.approx(want, abs=1e-8)


def test_dual_two_terminal_forced_point():
    rep = sk_capacity_dual(bsc_pair_model(0.2), {0, 1})
    assert rep.value == pytest.approx(1 - binary_entropy(0.2), abs=1e-10)
    lam = rep.witness["lambda"]
    assert lam["{1}"] == pytest.approx(1.0, abs=1e-9)
    assert lam["{2}"] == pytest.approx(1.0, abs=1e-9)


def test_dual_independent_terminals_zero():
    model = one_var_per_terminal([0.25] * 4, (2, 2))
    assert sk_capacity_dual(model, {0, 1}).value == pytest.approx(0.0, abs=1e-10)


def test_max_cover_matches_scipy_equality_lp():
    # max g.lam over the covers Lambda(A), solved as a packing LP through the
    # singleton completion, against scipy's LP with the equality rows; costs
    # of both signs, singleton costs negative as in the transceiver converse
    rng = np.random.default_rng(16)
    cases = [(2, 0b11, 0), (4, 0b0101, 0b1000)]  # one pair, one with D nonempty
    for _ in range(40):
        m = int(rng.integers(2, 7))
        a = rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False)
        cases.append((m, mask_of(a.tolist()), 0))
    for m, a, d in cases:
        spec = PartySpec(m, a, d)
        members = constraint_family(spec).members
        cover = incidence(members, bits(spec.d_complement)).T
        g = rng.normal(size=len(members))
        singles = [i for i, b in enumerate(members) if b & (b - 1) == 0]
        g[singles] = -rng.random(len(singles))
        value, lam = max_cover(spec, g)
        ref = scipy_linprog(-g, A_eq=cover, b_eq=np.ones(cover.shape[0]), bounds=(0, None))
        assert ref.success
        assert value == pytest.approx(-ref.fun, abs=1e-9)
        weights = np.array([lam.get(b, 0.0) for b in members])
        assert set(lam) <= set(members) and weights.min() >= 0.0
        np.testing.assert_allclose(cover @ weights, 1.0, rtol=0, atol=1e-9)
        assert weights @ g == pytest.approx(value, abs=1e-9)


def test_max_cover_refuses_a_lone_terminal():
    # {a} is not in Gamma({a}), so no singleton completion exists
    spec = PartySpec(3, 0b010, 0)
    with pytest.raises(ModelError, match="at least two terminals"):
        max_cover(spec, np.zeros(len(constraint_family(spec).members)))


@pytest.mark.parametrize(
    "flat",
    [
        [1.0 - 3.2e-11, 1.6e-11, 1.6e-11, 0.0],
        [1.0 - 3e-11, 1e-11, 1e-11, 1e-11],
    ],
)
def test_sk_capacity_of_nearly_constant_pairs(flat):
    # Every conditional entropy is far below the simplex's absolute
    # tolerance; both programs must still find I(X_1; X_2).
    model = one_var_per_terminal(flat, (2, 2))
    want = mutual_information(model.pmf, {0}, {1})
    assert sk_capacity(model, {0, 1}).value == pytest.approx(want, rel=1e-9, abs=1e-18)
    assert sk_capacity_dual(model, {0, 1}).value == pytest.approx(want, rel=1e-9, abs=1e-18)
    want_rco = entropy(model.pmf, {0}, {1}) + entropy(model.pmf, {1}, {0})
    assert rco(model, PartySpec(2, 0b11, 0)) == pytest.approx(want_rco, rel=1e-9)


def test_primal_dual_agreement_random():
    rng = np.random.default_rng(99)
    for _ in range(40):
        m = int(rng.integers(3, 6))
        flat = rng.dirichlet(np.ones(2**m))
        model = one_var_per_terminal(flat, (2,) * m)
        a = set(rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False).tolist())
        p = sk_capacity(model, a).value
        d = sk_capacity_dual(model, a).value
        assert p == pytest.approx(d, abs=1e-7)


def test_pk_monotone_in_d():
    rng = np.random.default_rng(5)
    for _ in range(15):
        m = 4
        flat = rng.dirichlet(np.ones(2**m))
        model = one_var_per_terminal(flat, (2,) * m)
        a = 0b0011
        prev = np.inf
        for d in (0b0000, 0b0100, 0b1100):
            val = pk_capacity(model, PartySpec(m, a, d)).value
            assert val <= prev + 1e-9
            prev = val


def test_pk_upper_bounded_by_conditional_entropy():
    rng = np.random.default_rng(17)
    for _ in range(15):
        m = 3
        flat = rng.dirichlet(np.ones(2**m))
        model = one_var_per_terminal(flat, (2,) * m)
        spec = PartySpec(m, 0b011, 0b100)
        val = pk_capacity(model, spec).value
        h = omniscience.source_entropies(model)
        h_md = h[0b111] - h[0b100]
        assert 0.0 <= val <= h_md + 1e-9


def test_rate_witness_feasible():
    rng = np.random.default_rng(3)
    m = 4
    flat = rng.dirichlet(np.ones(2**m))
    model = one_var_per_terminal(flat, (2,) * m)
    spec = PartySpec(m, 0b0011, 0b1000)
    rep = pk_capacity(model, spec)
    rates = {int(k) - 1: v for k, v in rep.witness["rates"].items()}
    h = omniscience.source_entropies(model)
    full = (1 << m) - 1
    for b in constraint_family(spec).members:
        got = sum(rates[j] for j in range(m) if (b >> j) & 1)
        assert got >= h[full] - h[full & ~b] - 1e-8


def test_family_size_guard():
    with pytest.raises(ModelError, match="family guard"):
        constraint_family(PartySpec(24, a=0b11, d=0))


def test_entropy_oracle_matches_prob_entropy():
    rng = np.random.default_rng(31)
    flat = rng.dirichlet(np.ones(16))
    model = one_var_per_terminal(flat, (2, 2, 2, 2))
    h = omniscience.source_entropies(model)
    assert h[0] == 0.0
    for mask in range(1, 16):
        keep = {j for j in range(4) if (mask >> j) & 1}
        assert h[mask] == pytest.approx(
            entropy(model.pmf, keep), abs=1e-12
        )
    # a terminal of two variables, listed out of axis order, and Eve summed out
    pmf = JointPMF(((0, B), (1, Alphabet(3)), (2, B), (3, B)), rng.dirichlet(np.ones(24)))
    groups = (frozenset({2, 0}), frozenset({3}))
    h = omniscience.source_entropies(SourceModel(pmf, groups, eve_var=1))
    for mask in range(1, 4):
        keep = set().union(*(g for j, g in enumerate(groups) if (mask >> j) & 1))
        assert h[mask] == pytest.approx(entropy(pmf, keep), abs=1e-12)


def test_source_model_refuses_terminals_that_share_variables():
    # the subset entropies of a source need disjoint terminal groups
    flat = np.random.default_rng(44).dirichlet(np.ones(12))
    pmf = JointPMF(((0, B), (1, Alphabet(3)), (2, B)), flat)
    for groups in ([{0, 1}, {1, 2}], [{0, 1}, {1}]):
        with pytest.raises(ModelError, match="shares variables"):
            SourceModel(pmf, tuple(frozenset(g) for g in groups))


def set_partitions(items):
    """Every partition of the list ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def plain_entropy(tensor, keep):
    """H of the axes ``keep`` of a probability tensor, with numpy alone."""
    drop = tuple(i for i in range(tensor.ndim) if i not in keep)
    p = tensor.sum(axis=drop).ravel() if drop else tensor.ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


@st.composite
def binary_sources(draw, min_m=2, max_m=7):
    m = draw(st.integers(min_m, max_m))
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=2**m, max_size=2**m).filter(
            lambda w: sum(w) > 1e-3
        )
    )
    flat = np.asarray(weights) / np.sum(weights)
    return m, flat


@settings(max_examples=60, deadline=None)
@given(binary_sources())
@example((2, np.array([1.0, 1.6e-11, 1.6e-11, 0.0]) / (1.0 + 3.2e-11)))
def test_sk_capacity_matches_partition_formula(source):
    # Chan-Zheng: for A = M and D empty, C_SK is the minimum over partitions
    # P of M with |P| >= 2 of [sum_C H(X_C) - H(X_M)] / (|P| - 1).
    m, flat = source
    tensor = flat.reshape((2,) * m)
    h_all = plain_entropy(tensor, range(m))
    want = min(
        (sum(plain_entropy(tensor, block) for block in part) - h_all) / (len(part) - 1)
        for part in set_partitions(list(range(m)))
        if len(part) >= 2
    )
    got = sk_capacity(one_var_per_terminal(flat, (2,) * m), (1 << m) - 1).value
    assert got == pytest.approx(want, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(binary_sources(max_m=6), st.data())
def test_sk_capacity_invariant_under_relabeling(source, data):
    m, flat = source
    perm = data.draw(st.permutations(range(m)))
    a = data.draw(st.sets(st.integers(0, m - 1), min_size=2))
    # terminal perm[j] of the relabeled source observes what terminal j did
    moved = np.moveaxis(flat.reshape((2,) * m), range(m), perm).ravel()
    before = sk_capacity(one_var_per_terminal(flat, (2,) * m), mask_of(a)).value
    after = sk_capacity(
        one_var_per_terminal(moved, (2,) * m), mask_of(perm[j] for j in a)
    ).value
    assert after == pytest.approx(before, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(binary_sources(min_m=3, max_m=6), st.data())
def test_pk_capacity_at_most_sk_capacity(source, data):
    # Compromised terminals can publish their observations, so any private
    # key is also a secret key for the same A.
    m, flat = source
    d = data.draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 2))
    rest = sorted(set(range(m)) - d)
    a = data.draw(st.sets(st.sampled_from(rest), min_size=2))
    model = one_var_per_terminal(flat, (2,) * m)
    pk = pk_capacity(model, PartySpec(m, mask_of(a), mask_of(d))).value
    sk = sk_capacity(model, mask_of(a)).value
    assert pk <= sk + 1e-9


@pytest.mark.parametrize("m", [10, 12])
def test_co_lp_pivots_stay_linear_in_m(m, monkeypatch):
    pivots = []

    def counting(lp):
        sol = lp_solve(lp)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(omniscience, "lp_solve", counting)
    flat = np.random.default_rng(m).dirichlet(np.ones(2**m))
    sk_capacity(one_var_per_terminal(flat, (2,) * m), (1 << m) - 1)
    assert len(pivots) == 1
    assert pivots[0] <= 3 * m


@settings(max_examples=40, deadline=None)
@given(binary_sources(max_m=5), st.data())
def test_sk_capacity_ignores_independent_local_noise(source, data):
    # A variable independent of everything else, seen by one terminal only,
    # is noise that no public discussion can turn into key.
    m, flat = source
    a = data.draw(st.sets(st.integers(0, m - 1), min_size=2))
    j = data.draw(st.integers(0, m - 1))
    size = data.draw(st.integers(2, 3))
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    noise = np.asarray(weights) / np.sum(weights)
    vl = tuple((i, B) for i in range(m)) + ((m, Alphabet(size)),)
    groups = tuple(frozenset({i, m} if i == j else {i}) for i in range(m))
    noisy = SourceModel(JointPMF(vl, np.multiply.outer(flat, noise).ravel()), groups)
    before = sk_capacity(one_var_per_terminal(flat, (2,) * m), mask_of(a)).value
    assert sk_capacity(noisy, mask_of(a)).value == pytest.approx(before, abs=1e-9)


def entropies_of(model):
    return omniscience.source_entropies(model)[None]


def counted_solves(monkeypatch):
    calls = []

    def counting(lp):
        calls.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(omniscience, "lp_solve", counting)
    return calls


def test_basis_hint_for_another_cost_reuses_only_with_its_certificate(monkeypatch):
    # the basis left by one source is reused for the next only when it is
    # still optimal; otherwise the CO LP is solved in full
    rng = np.random.default_rng(80)
    spec = PartySpec(3, 0b111, 0)
    members = constraint_family(spec).members
    solves = counted_solves(monkeypatch)
    outcomes = set()
    for _ in range(40):
        first, second = (
            one_var_per_terminal(rng.dirichlet(np.full(8, 0.3)), (2, 2, 2)) for _ in range(2)
        )
        want = sk_capacity(second, spec.a).value
        hint = co_basis_hint(spec)
        omniscience._pk(spec, entropies_of(first), hint)
        h = omniscience._conditionals(entropies_of(second), 3, members)
        reused = hint.reuse_all(-h)[0][0] >= 0
        before = len(solves)
        got = omniscience._pk(spec, entropies_of(second), hint)[0]
        assert len(solves) - before == (0 if reused else 1)
        assert got == pytest.approx(want, abs=1e-12)
        outcomes.add(reused)
    assert outcomes == {True, False}


@pytest.mark.parametrize("basis", ["dependent", "repeated", "short"])
def test_unusable_basis_hint_falls_back_to_a_full_solve(basis, monkeypatch):
    spec = PartySpec(3, 0b111, 0)
    members = constraint_family(spec).members
    chosen = {
        # the columns of {1}, {2} and {1,2} are linearly dependent
        "dependent": (members.index(0b001), members.index(0b010), members.index(0b011)),
        "repeated": (0, 0, 1),
        "short": (0,),
    }[basis]
    model = one_var_per_terminal(np.random.default_rng(81).dirichlet(np.ones(8)), (2, 2, 2))
    want = sk_capacity(model, spec.a).value
    cost = -omniscience._conditionals(entropies_of(model), 3, members)[0]
    hint = co_basis_hint(spec)
    hint.adopt(chosen)
    assert hint.reuse_all(cost[None])[0][0] == -1
    assert hint.pool == ()  # the read that factors it drops it
    solves = counted_solves(monkeypatch)
    assert omniscience._pk(spec, entropies_of(model), hint)[0] == pytest.approx(want, abs=1e-12)
    assert len(solves) == 1
    assert len(hint.pool) == 1
    # behind a usable basis, too, it leaves the pool at its first read
    usable = hint.pool[0]
    hint.adopt(chosen)
    (which,), *_ = hint.reuse_all(cost[None])
    assert hint.pool[which] == usable
    assert hint.pool == (usable,)


def test_stacked_pool_read_equals_one_row_at_a_time(monkeypatch):
    # stacks of CO LPs read off the pool at once get, row for row, what
    # one row at a time gets: the same full solves, also mid-stack, the
    # same bases, value bits and duals, and the same pool
    rng = np.random.default_rng(83)
    spec = PartySpec(3, 0b111, 0)
    members = constraint_family(spec).members
    h = np.concatenate([
        omniscience._conditionals(
            entropies_of(one_var_per_terminal(rng.dirichlet(np.full(8, 0.3)), (2, 2, 2))),
            3, members)
        for _ in range(80)
    ])
    solves = counted_solves(monkeypatch)
    stacked, single = co_basis_hint(spec), co_basis_hint(spec)
    mid_stack = False
    for rows in np.array_split(h, 8):
        before = len(solves)
        got = omniscience._pack(stacked, rows)
        full = []
        for i, row in enumerate(rows):
            n = len(solves)
            want = omniscience._pack(single, row[None])
            full.append(len(solves) - n)
            assert want[0][0] == got[0][i]
            assert np.array_equal(want[1][0], got[1][i])
            assert np.array_equal(want[2][0], got[2][i])
        assert len(solves) - before == 2 * sum(full)
        mid_stack |= any(full[1:-1])
        assert stacked.pool == single.pool
        which, values, _, duals = stacked.reuse_all(-rows)
        for i, row in enumerate(rows):
            one = single.reuse_all(-row[None])
            assert (which[i] < 0) == (one[0][0] < 0)
            if which[i] >= 0:
                assert stacked.pool[which[i]] == single.pool[one[0][0]] and values[i] == one[1][0]
                assert np.array_equal(duals[i], one[3][0])
    assert mid_stack
    assert 1 < len(stacked.pool) <= linprog.POOL_SIZE


def test_unit_equals_the_scalar_frexp_form_on_edge_rows():
    def scalar(top):
        if top > 0.0:
            return math.ldexp(1.0, -min(max(math.frexp(top)[1], -1000), 0))
        return 1.0

    tops = [0.0, -0.25, 0.5, 1.0, 5e-324, 2.0**-1010, 3.0, 0.375, 2.0**-1000]
    h = np.array([[top / 2, top, 0.0] if top > 0 else [top, top, top] for top in tops])
    got = omniscience._unit(h)
    assert got.tolist() == [scalar(top) for top in tops]
    assert got.tolist()[:6] == [1.0, 1.0, 1.0, 1.0, 2.0**1000, 2.0**1000]
    assert h[-2].max() * got[-2] == 0.75 and h[-1].max() * got[-1] == 0.5


def test_basis_pool_keeps_the_most_recent_bases_first(monkeypatch):
    monkeypatch.setattr(linprog, "POOL_SIZE", 3)
    rng = np.random.default_rng(84)
    hint = co_basis_hint(PartySpec(3, 0b111, 0))
    adopted = []
    for _ in range(40):
        basis = lp_solve(LinearProgram(-rng.random(6), hint.a_ge, hint.b_ge)).basis
        hint.adopt(basis)
        adopted = [basis] + [b for b in adopted if b != basis]
        assert hint.pool == tuple(adopted[:3])
    assert len(adopted) > 3


def test_basis_hint_of_another_family_is_refused():
    model = one_var_per_terminal(np.random.default_rng(82).dirichlet(np.ones(8)), (2, 2, 2))
    pair = PartySpec(3, 0b011, 0)
    hint = co_basis_hint(pair)
    omniscience._pk(pair, entropies_of(model), hint)
    # {1,3} has as many constraint sets as {1,2}, so only the spec tells them apart
    for spec in (PartySpec(3, 0b101, 0), PartySpec(3, 0b111, 0), PartySpec(3, 0b011, 0b100)):
        with pytest.raises(ModelError, match="another spec"):
            omniscience._pk(spec, entropies_of(model), hint)
    with pytest.raises(ModelError, match="another spec"):
        omniscience._pk(PartySpec(2, 0b11, 0), entropies_of(bsc_pair_model(0.1)), hint)
