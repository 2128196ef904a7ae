import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from skacap import omniscience, optimize, transceiver
from skacap.errors import ModelError
from skacap.linprog import lp_solve
from skacap.models import (
    PartySpec,
    Polytree,
    SourceModel,
    TransceiverModel,
    edge,
    emulated_to_source,
    polytree_to_transceiver,
)
from skacap.omniscience import constraint_family, incidence, sk_capacity, source_entropies
from skacap.optimize import (
    InputOptimizerConfig,
    maximize_product_simplices,
    stack_points,
)
from skacap.prob import (
    Alphabet,
    Dmc,
    JointPMF,
    binary_entropy,
    bsc_matrix,
    compose,
    entropy,
    mutual_information,
    product_pmf,
)
from skacap.transceiver import (
    noninteractive_sk_capacity,
    sk_bounds,
    wsk_upper_by_pk,
    _Layout,
    _converse_terms,
    _min_lambda,
    _ni_objective,
    _search,
)

B = Alphabet(2)
CFG = InputOptimizerConfig(restarts=2, seed=3)


@pytest.fixture(autouse=True)
def short_ascents(monkeypatch):
    """Every search here stops its ascents after at most 15 sweeps."""
    monkeypatch.setattr(optimize, "ASCENT_SWEEPS", 15)


def product_input(t, vecs):
    """Reference product input: one JointPMF per T group, their independent
    product, then the axes permuted to the channel's input order."""
    alphabet = dict(t.channel.in_vars)
    factors = [
        JointPMF(tuple((vid, alphabet[vid]) for vid in g), np.asarray(v, dtype=float))
        for g, v in zip(t.input_vars, vecs)
    ]
    joint = product_pmf(factors)
    order = [joint.ids.index(v) for v in t.channel.in_ids]
    return JointPMF(t.channel.in_vars, np.transpose(joint.tensor(), order).ravel())


def single_bsc_transceiver(p):
    return polytree_to_transceiver(Polytree(2, (edge(0, 1, bsc_matrix(p)),)))


def random_transceiver(rng, m):
    """Binary input and output per terminal, random channel rows."""
    in_vars = tuple((j, B) for j in range(m))
    out_vars = tuple((m + j, B) for j in range(m))
    rows = rng.dirichlet(np.ones(2**m), size=2**m)
    return TransceiverModel(
        m=m,
        input_vars=tuple((j,) for j in range(m)),
        output_vars=tuple((m + j,) for j in range(m)),
        channel=Dmc(in_vars, out_vars, rows),
    )


def converse_family(t, a_mask):
    """The constraint sets of the 2m-terminal auxiliary model for ``a_mask``."""
    return constraint_family(PartySpec(2 * t.m, a_mask, 0))


def sk_at(t, vecs, a_mask=0b11):
    """The NI objective at a product input by the independent route:
    ``sk_capacity`` of the validated emulated source."""
    return sk_capacity(emulated_to_source(t, product_input(t, vecs)), a_mask).value


def test_emulate_constant_v_matches_product_emulation():
    # the lower bound's witness names a constant-V emulation; its
    # conditionals, taken as a product input, give the reported value by
    # the independent route
    t = single_bsc_transceiver(0.11)
    (rep,) = sk_bounds(t, 0b11, CFG)["lower_bounds"]
    emulation = rep.witness["emulation"]
    assert emulation["v_alphabet"] == 1 and emulation["p_v"] == [1.0]
    vecs = [np.array(rows[0]) for rows in emulation["conditionals"]]
    assert [len(rows) for rows in emulation["conditionals"]] == [1] * t.m
    assert rep.value == pytest.approx(sk_at(t, vecs), abs=1e-12)


def test_emulate_degenerate_channel_outputs_independent():
    # outputs independent of inputs: Y-marginal independent of T
    rows = np.tile(np.array([0.25, 0.25, 0.25, 0.25]), (4, 1))
    t = TransceiverModel(
        m=2,
        input_vars=((0,), (1,)),
        output_vars=((2,), (3,)),
        channel=Dmc(((0, B), (1, B)), ((2, B), (3, B)), rows),
    )
    src = emulated_to_source(t, product_input(t, [np.array([0.3, 0.7]), np.array([0.5, 0.5])]))
    assert mutual_information(src.pmf, {2, 3}, {0, 1}) == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_single_bsc_edge():
    t = single_bsc_transceiver(0.11)
    # uniform on the real input var; degenerate elsewhere
    vecs = []
    for g in t.input_vars:
        k = int(np.prod([dict(t.channel.in_vars)[v].size for v in g]))
        vecs.append(np.full(k, 1.0 / k))
    assert sk_at(t, vecs) == pytest.approx(1 - binary_entropy(0.11), abs=1e-9)
    (rep,) = sk_bounds(t, 0b11, CFG)["lower_bounds"]
    assert rep.kind == "lower_bound"
    assert rep.value == pytest.approx(1 - binary_entropy(0.11), abs=1e-9)


def test_lower_bound_point_mass_is_zero():
    t = single_bsc_transceiver(0.11)
    vecs = []
    for g in t.input_vars:
        k = int(np.prod([dict(t.channel.in_vars)[v].size for v in g]))
        v = np.zeros(k)
        v[0] = 1.0
        vecs.append(v)
    assert sk_at(t, vecs) == pytest.approx(0.0, abs=1e-10)


def test_lower_bound_identity_channel():
    g = Polytree(2, (edge(0, 1, np.eye(2)),))
    t = polytree_to_transceiver(g)
    vecs = [np.array([0.5, 0.5]), np.array([1.0])]
    assert sk_at(t, vecs) == pytest.approx(1.0, abs=1e-10)


def aux_vars(t, mask):
    """Variable ids of the auxiliary terminals in ``mask``: output terminal j
    owns (T_j, Y_j), input terminal m + j owns T_j."""
    out = set()
    for j in range(t.m):
        if (mask >> j) & 1:
            out |= set(t.input_vars[j]) | set(t.output_vars[j])
        if (mask >> (t.m + j)) & 1:
            out |= set(t.input_vars[j])
    return out


def aux_conditional(joint, t, b, given):
    """H(X_b | X_given) of the auxiliary terminals, by prob.entropy."""
    target = aux_vars(t, b) - aux_vars(t, given)
    return entropy(joint, target, aux_vars(t, given)) if target else 0.0


def reference_converse(t, p_in, members):
    """The constant and the terms g_B of the 2m-terminal converse, each
    entropy taken by prob.entropy on the composed joint."""
    joint = compose(p_in, t.channel)
    outputs = (1 << t.m) - 1
    inputs = outputs << t.m
    everyone = outputs | inputs
    constant = entropy(joint, aux_vars(t, outputs)) - entropy(joint, aux_vars(t, inputs))
    g = [
        aux_conditional(joint, t, b, everyone & ~b)
        - aux_conditional(joint, t, b & inputs, inputs & ~b)
        for b in members
    ]
    return constant, np.array(g)


def random_joint_input(rng, t):
    """A random correlated (not product) input over all channel inputs."""
    cells = t.channel.rows.shape[0]
    return JointPMF(t.channel.in_vars, rng.dirichlet(np.full(cells, 0.7)))


def random_eve_transceiver(rng, m):
    """Binary transceiver whose eavesdropper output sits between Y_1 and Y_2."""
    out_vars = ((m, B), (2 * m, B)) + tuple((m + j, B) for j in range(1, m))
    return TransceiverModel(
        m=m,
        input_vars=tuple((j,) for j in range(m)),
        output_vars=tuple((m + j,) for j in range(m)),
        channel=Dmc(tuple((j, B) for j in range(m)), out_vars,
                    rng.dirichlet(np.ones(2 ** (m + 1)), size=2**m)),
        eve_var=2 * m,
    )


def converse_cases():
    rng = np.random.default_rng(80)
    cases = []
    for m in (2, 3):
        for eve in (False, True):
            for a_mask in ((1 << m) - 1, 0b101 if m == 3 else 0b11):
                for _ in range(3):
                    t = random_eve_transceiver(rng, m) if eve else random_transceiver(rng, m)
                    cases.append((t, random_joint_input(rng, t), a_mask))
    return cases


CONVERSE_CASES = converse_cases()


def test_converse_terms_match_the_auxiliary_entropies():
    # the closed form against the entropies of X_B and X_{B^c} of the
    # 2m-terminal model, at correlated inputs, with and without Eve
    for t, p_in, a_mask in CONVERSE_CASES:
        members = converse_family(t, a_mask).members
        constant, g = _converse_terms(_Layout(t), p_in.probs, members)
        want_constant, want_g = reference_converse(t, p_in, members)
        assert abs(constant - want_constant) <= 1e-12
        assert np.abs(g - want_g).max() <= 1e-12


def expression_at(t, p_in, lam):
    """The converse expression at the cover ``lam``, by ``_converse_terms``."""
    constant, g = _converse_terms(_Layout(t), p_in.probs, np.array(list(lam)))
    return constant - float(np.array(list(lam.values())) @ g)


def test_min_lambda_is_the_cover_minimum_of_the_auxiliary_expression():
    # the value is the reference expression at the returned cover, which
    # lies in Lambda(A), and no cover does better (scipy's LP on the
    # reference terms)
    for t, p_in, a_mask in CONVERSE_CASES:
        family = converse_family(t, a_mask)
        members = family.members
        val, lam = _min_lambda(_Layout(t), p_in.probs, family)
        constant, g = reference_converse(t, p_in, members)
        weights = np.array([lam.get(b, 0.0) for b in members])
        cover = incidence(members, range(2 * t.m)).T
        np.testing.assert_allclose(cover @ weights, 1.0, rtol=0, atol=1e-12)
        assert abs(val - (constant - weights @ g)) <= 1e-12
        best = linprog(-g, A_eq=cover, b_eq=np.ones(2 * t.m), bounds=(0, None))
        assert val == pytest.approx(constant + best.fun, abs=1e-9)
        assert expression_at(t, p_in, lam) == pytest.approx(val, abs=1e-12)


def test_lambda_expression_independence_cancellation():
    # for product inputs the second bracket vanishes for every feasible lambda
    rng = np.random.default_rng(5)
    for m in (2, 3):
        t = random_transceiver(rng, m)
        vecs = [rng.dirichlet(np.ones(2)) for _ in range(m)]
        p_in = product_input(t, vecs)
        # lambda: all singletons of the 2m auxiliary terminals
        lam = {1 << j: 1.0 for j in range(2 * m)}
        val = expression_at(t, p_in, lam)
        # with lam covering inputs exactly once, bracket2 = 0, so
        # E = H(X_M) - sum_B lam_B H(X_B | X_{B^c})
        joint = compose(p_in, t.channel)
        first = entropy(joint, aux_vars(t, (1 << m) - 1))
        full = (1 << (2 * m)) - 1
        for b, w in lam.items():
            first -= w * aux_conditional(joint, t, b, full & ~b)
        assert val == pytest.approx(first, abs=1e-10)


def product_points(rng, dims):
    """Random product inputs, the point masses on each terminal's first and
    last symbols, and random inputs with one terminal at a point mass."""
    points = [[rng.dirichlet(np.ones(k)) for k in dims] for _ in range(3)]
    points += [[np.eye(k)[i % k] for k in dims] for i in (0, -1)]
    for j, k in enumerate(dims):
        point = [rng.dirichlet(np.ones(n)) for n in dims]
        point[j] = np.eye(k)[-1]
        points.append(point)
    return points


def test_min_lambda_equals_sk_capacity_on_product_inputs():
    # the capacity theorem the upper bound rests on: at a product input the
    # converse is the NI objective, for A = M and a pair, on random binary
    # models and on the search models (PINs, a wiretap, Eve between the
    # outputs), point masses included
    rng = np.random.default_rng(12)
    models = [random_transceiver(rng, m) for m in (2, 3) for _ in range(3)]
    for t in models + list(SEARCH_MODELS.values()):
        lay = _Layout(t)
        for a_mask in {(1 << t.m) - 1, 0b101 if t.m > 2 else 0b11}:
            for vecs in product_points(rng, lay.dims):
                p_in = product_input(t, vecs)
                sk = sk_capacity(emulated_to_source(t, p_in), a_mask).value
                val, lam = _min_lambda(lay, p_in.probs, converse_family(t, a_mask))
                assert val == pytest.approx(sk, abs=1e-9)
                # re-evaluating the expression at the returned cover
                # reproduces the minimum
                assert expression_at(t, p_in, lam) == pytest.approx(val, abs=1e-9)


def no_search(*args, **kwargs):
    raise AssertionError("the input search ran")


@pytest.mark.parametrize("bound", [sk_bounds, noninteractive_sk_capacity])
def test_lone_key_terminal_refused_before_searching(bound, monkeypatch):
    monkeypatch.setattr(transceiver, "maximize_product_simplices", no_search)
    with pytest.raises(ModelError, match="at least two terminals"):
        bound(single_bsc_transceiver(0.1), 0b10, InputOptimizerConfig())


def test_oversized_converse_family_refused_before_searching(monkeypatch):
    # 11 terminals with binary inputs and size-1 outputs: the converse's 22
    # auxiliary terminals pass the family guard, which refuses the model
    # before the input search starts
    m = 11
    in_vars = tuple((j, B) for j in range(m))
    out_vars = tuple((m + j, Alphabet(1)) for j in range(m))
    t = TransceiverModel(
        m=m,
        input_vars=tuple((j,) for j in range(m)),
        output_vars=tuple((m + j,) for j in range(m)),
        channel=Dmc(in_vars, out_vars, np.ones((2**m, 1))),
    )
    monkeypatch.setattr(transceiver, "maximize_product_simplices", no_search)
    with pytest.raises(ModelError, match="family guard"):
        sk_bounds(t, 0b11, InputOptimizerConfig())


def test_noninteractive_single_bsc():
    t = single_bsc_transceiver(0.11)
    rep = noninteractive_sk_capacity(t, {0, 1}, CFG)
    assert rep.value == pytest.approx(1 - binary_entropy(0.11), abs=1e-7)
    assert rep.kind == "exact"


def test_noninteractive_identity_channel_log_alphabet():
    g = Polytree(2, (edge(0, 1, np.eye(3)),))
    t = polytree_to_transceiver(g)
    rep = noninteractive_sk_capacity(t, {0, 1}, CFG)
    assert rep.value == pytest.approx(np.log2(3), abs=1e-6)


def test_noninteractive_constant_output_channel():
    rows = np.tile(np.array([1.0, 0.0]), (2, 1))
    g = Polytree(2, (edge(0, 1, rows),))
    t = polytree_to_transceiver(g)
    rep = noninteractive_sk_capacity(t, {0, 1}, CFG)
    assert rep.value == pytest.approx(0.0, abs=1e-10)


def test_noninteractive_deterministic_given_seed(monkeypatch):
    monkeypatch.setattr(optimize, "ASCENT_SWEEPS", 10)
    t = random_transceiver(np.random.default_rng(9), 2)
    cfg = InputOptimizerConfig(restarts=3, seed=77)
    r1 = noninteractive_sk_capacity(t, {0, 1}, cfg)
    r2 = noninteractive_sk_capacity(t, {0, 1}, cfg)
    assert r1.value == r2.value
    assert r1.witness == r2.witness


def test_wsk_upper_eve_sees_terminal_one():
    # Z = X1: conditioning kills all secrecy
    joint = np.zeros((2, 2, 2))
    for x in range(2):
        joint[x, x, x] = 0.5
    model = SourceModel(
        JointPMF(((0, B), (1, B), (2, B)), joint.ravel()),
        (frozenset({0}), frozenset({1})),
        eve_var=2,
    )
    rep = wsk_upper_by_pk(model, {0, 1})
    assert rep.value == pytest.approx(0.0, abs=1e-9)
    assert rep.kind == "upper_bound"


def test_wsk_upper_independent_z_equals_sk():
    rng = np.random.default_rng(21)
    pair = rng.dirichlet(np.ones(4)).reshape(2, 2)
    z = rng.dirichlet(np.ones(2))
    joint = pair[:, :, None] * z[None, None, :]
    model = SourceModel(
        JointPMF(((0, B), (1, B), (2, B)), joint.ravel()),
        (frozenset({0}), frozenset({1})),
        eve_var=2,
    )
    rep = wsk_upper_by_pk(model, {0, 1})
    nose = SourceModel(
        JointPMF(((0, B), (1, B)), pair.ravel()), (frozenset({0}), frozenset({1}))
    )
    assert rep.value == pytest.approx(sk_capacity(nose, {0, 1}).value, abs=1e-9)


def test_wsk_upper_markov_chain_closed_form():
    # X1 - X2 - Z from BSC cascades: upper bound equals I(X1;X2|Z)
    rng = np.random.default_rng(31)
    for _ in range(10):
        p, q = rng.uniform(0.02, 0.45, size=2)
        joint = np.zeros((2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                for z in range(2):
                    w1 = bsc_matrix(p)[x1, x2]
                    w2 = bsc_matrix(q)[x2, z]
                    joint[x1, x2, z] = 0.5 * w1 * w2
        pmf = JointPMF(((0, B), (1, B), (2, B)), joint.ravel())
        model = SourceModel(pmf, (frozenset({0}), frozenset({1})), eve_var=2)
        rep = wsk_upper_by_pk(model, {0, 1})
        direct = mutual_information(pmf, {0}, {1}, {2})
        assert rep.value == pytest.approx(direct, abs=1e-8)


def test_sk_bounds_sandwich_and_witnesses():
    rng = np.random.default_rng(44)
    t = random_transceiver(rng, 2)
    grid_aligned = [
        [np.array([0.25, 0.75]), np.array([0.625, 0.375])],
        [np.array([0.875, 0.125]), np.array([0.5, 0.5])],
    ]
    out = sk_bounds(t, {0, 1}, CFG)
    ni = out["noninteractive"]
    upper = out["upper_bound"]
    assert ni.value <= upper.value + 1e-7
    # the converse at the search's best point is the NI value there
    assert upper.witness["input"] == ni.witness["input"]
    assert upper.value == pytest.approx(ni.value, abs=1e-9)
    # the one lower bound is the search objective at the uniform input, by
    # the independent route, and each other product input scores at most
    # the NI value
    (rep,) = out["lower_bounds"]
    uniform = [np.full(2, 0.5), np.full(2, 0.5)]
    assert rep.value <= ni.value + 1e-7
    assert rep.value == pytest.approx(sk_at(t, uniform), abs=1e-12)
    assert rep.witness["emulation"] == {
        "v_alphabet": 1, "p_v": [1.0], "conditionals": [[[0.5, 0.5]], [[0.5, 0.5]]]
    }
    assert rep.witness["emulated_pk"] == rep.value
    for vecs in grid_aligned:
        assert sk_at(t, vecs) <= ni.value + 1e-7


def test_sk_bounds_noninteractive_report_equals_direct_search():
    # one seeded search behind both: the same report, evaluation count too
    rng = np.random.default_rng(45)
    t = random_ternary_pair(rng)
    got = sk_bounds(t, {0, 1}, CFG)["noninteractive"].to_dict()
    want = noninteractive_sk_capacity(t, {0, 1}, CFG).to_dict()
    assert got == want
    assert {"evaluations", "converged"} <= set(got["witness"])


def test_upper_bound_never_below_noninteractive_on_random_models():
    rng = np.random.default_rng(60)
    for m in (2, 3):
        for _ in range(3):
            t = random_transceiver(rng, m)
            ni = noninteractive_sk_capacity(t, (1 << m) - 1, CFG)
            up = sk_bounds(t, (1 << m) - 1, CFG)["upper_bound"]
            assert ni.value <= up.value + 1e-7


def uniform_input(lay):
    return [np.full(k, 1.0 / k) for k in lay.dims]


def random_ternary_pair(rng):
    t3 = Alphabet(3)
    return TransceiverModel(
        m=2,
        input_vars=((0,), (1,)),
        output_vars=((2,), (3,)),
        channel=Dmc(((0, t3), (1, t3)), ((2, t3), (3, t3)), rng.dirichlet(np.ones(9), size=9)),
    )


def random_bsc_pin(rng, m, wiretap=False):
    edges = []
    for j in range(1, m):
        parent = int(rng.integers(j))
        sender, receiver = (parent, j) if rng.random() < 0.5 else (j, parent)
        wt = bsc_matrix(float(rng.uniform(0.2, 0.4))) if wiretap and j == 1 else None
        edges.append(edge(sender, receiver, bsc_matrix(float(rng.uniform(0.05, 0.25))), wt))
    return polytree_to_transceiver(Polytree(m, tuple(edges)))


def eve_between_outputs(rng):
    """Binary m = 2 channel whose eavesdropper output sits between Y_1 and Y_2."""
    out_vars = ((2, B), (4, B), (3, B))
    return TransceiverModel(
        m=2,
        input_vars=((0,), (1,)),
        output_vars=((2,), (3,)),
        channel=Dmc(((0, B), (1, B)), out_vars, rng.dirichlet(np.ones(8), size=4)),
        eve_var=4,
    )


def search_models():
    rng = np.random.default_rng(70)
    return {
        "t2-ternary": random_ternary_pair(rng),
        "t3-binary": random_transceiver(rng, 3),
        "pin3": random_bsc_pin(rng, 3),
        "pin4": random_bsc_pin(rng, 4),
        "pin3-wiretap": random_bsc_pin(rng, 3, wiretap=True),
        "eve-between": eve_between_outputs(rng),
    }


SEARCH_MODELS = search_models()


@pytest.mark.parametrize("name", SEARCH_MODELS)
def test_ni_search_equals_the_plain_objective(name):
    # the array objective with its reused CO basis walks the same search path
    # as sk_capacity on the validated emulated source, evaluation for
    # evaluation.  The two routes differ by ulps and the objective can be
    # flat at the maximum, so they may report different maximizers: each
    # point, scored by the other route, gives its own route's value.
    t = SEARCH_MODELS[name]
    cfg = InputOptimizerConfig(restarts=1, grid=4, seed=5)
    pair = 0b101 if t.m > 2 else 0b11
    for a_mask in {(1 << t.m) - 1, pair}:

        def plain(stack):
            return np.array([
                sk_capacity(emulated_to_source(t, product_input(t, point)), a_mask).value
                for point in zip(*stack)
            ])

        lay = _Layout(t)
        want = maximize_product_simplices(lay.dims, plain, cfg, extra_seeds=[uniform_input(lay)])
        got = _search(lay, _ni_objective(lay, PartySpec(t.m, a_mask, 0)), cfg)
        assert got.evaluations == want.evaluations
        assert got.value == pytest.approx(want.value, abs=1e-12)
        ni = _ni_objective(lay, PartySpec(t.m, a_mask, 0))
        assert plain(stack_points([got.point]))[0] == pytest.approx(got.value, abs=1e-12)
        assert ni(stack_points([want.point]))[0] == pytest.approx(want.value, abs=1e-12)


def one_point_per_call(objective):
    """The same objective fed the points of each stack one call at a time."""

    def score(stack):
        n = len(stack[0])
        return np.concatenate([objective([v[i:i + 1] for v in stack]) for i in range(n)])

    return score


def assert_same_search(got, want):
    assert got.value == want.value
    assert got.converged == want.converged
    assert got.evaluations == want.evaluations
    assert all(np.array_equal(u, v) for u, v in zip(got.point, want.point))


@pytest.mark.parametrize("name", SEARCH_MODELS)
def test_stacked_search_equals_one_point_per_call(name, monkeypatch):
    # the seed set, each scan and each golden pair scored as one stack walk
    # the search path of the same kernel fed one point per call, bit for
    # bit, also when a small cell cap splits every stack
    t = SEARCH_MODELS[name]
    lay = _Layout(t)
    cfg = InputOptimizerConfig(restarts=1, grid=4, seed=5)
    pair = 0b101 if t.m > 2 else 0b11
    for a_mask in {(1 << t.m) - 1, pair}:
        spec = PartySpec(t.m, a_mask, 0)

        def search(wrap=lambda f: f):
            objective = _ni_objective(lay, spec)
            return maximize_product_simplices(
                lay.dims, wrap(objective), cfg, extra_seeds=[uniform_input(lay)]
            )

        stacked = search()
        assert_same_search(stacked, _search(lay, _ni_objective(lay, spec), cfg))
        assert_same_search(stacked, search(one_point_per_call))
        with monkeypatch.context() as patch:
            patch.setattr(transceiver, "STACK_CELLS", 2 * int(np.prod(lay.joint_shape)))
            assert_same_search(stacked, search())


def test_stacked_search_solves_in_full_inside_a_stack(monkeypatch):
    # the CO basis changes inside the seed stack: rows after a full solve
    # are tried on the new basis, and the search still equals the one
    # point per call search, full solve for full solve
    t = SEARCH_MODELS["t3-binary"]
    lay = _Layout(t)
    spec = PartySpec(t.m, (1 << t.m) - 1, 0)
    cfg = InputOptimizerConfig(restarts=1, grid=4, seed=5)
    solves = []

    def counting(lp):
        solves.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(omniscience, "lp_solve", counting)
    calls = []

    def recording(objective):
        def score(stack):
            before = len(solves)
            values = objective(stack)
            calls.append((len(values), len(solves) - before))
            return values

        return score

    objective = _ni_objective(lay, spec)
    stacked = maximize_product_simplices(lay.dims, recording(objective), cfg)
    stacked_solves = len(solves)
    # two full solves in one call: at most one of them is its first row
    assert any(n >= 2 and full >= 2 for n, full in calls)
    objective = _ni_objective(lay, spec)
    single = maximize_product_simplices(lay.dims, one_point_per_call(objective), cfg)
    assert_same_search(stacked, single)
    assert len(solves) == 2 * stacked_solves


def search_at_depth(depth, dims, objective, monkeypatch):
    """The search of ``objective`` with ``depth`` golden levels per call,
    and the number of calls it made."""
    calls = []

    def score(stack):
        calls.append(len(stack[0]))
        return objective(stack)

    cfg = InputOptimizerConfig(restarts=1, grid=4, seed=5)
    uniform = [np.full(k, 1.0 / k) for k in dims]
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "GOLDEN_LOOKAHEAD", depth)
        return maximize_product_simplices(dims, score, cfg, extra_seeds=[uniform]), len(calls)


def closed_form(stack):
    """A stateless objective with a plateau along q and a maximum inside."""
    p, q, r = stack
    return (
        -((p - [0.2, 0.5, 0.3]) ** 2).sum(axis=1)
        + np.minimum(q[:, 0], 0.4)
        + np.sin(3.0 * r) @ [1.0, -1.0, 0.5, 0.2]
    )


def test_golden_lookahead_takes_the_one_point_steps_on_a_closed_form(monkeypatch):
    deep, deep_calls = search_at_depth(optimize.GOLDEN_LOOKAHEAD, (3, 2, 4), closed_form,
                                       monkeypatch)
    one, one_calls = search_at_depth(1, (3, 2, 4), closed_form, monkeypatch)
    assert_same_search(deep, one)
    assert deep_calls < one_calls


@pytest.mark.parametrize("name", SEARCH_MODELS)
def test_golden_lookahead_takes_the_one_point_steps(name, monkeypatch):
    # each golden step scored with the steps after it walks the
    # one-point-per-step search path bit for bit, in fewer calls
    t = SEARCH_MODELS[name]
    lay = _Layout(t)
    pair = 0b101 if t.m > 2 else 0b11
    for a_mask in {(1 << t.m) - 1, pair}:
        runs = []
        for depth in (optimize.GOLDEN_LOOKAHEAD, 1):
            objective = _ni_objective(lay, PartySpec(t.m, a_mask, 0))
            runs.append(search_at_depth(depth, lay.dims, objective, monkeypatch))
        (deep, deep_calls), (one, one_calls) = runs
        assert_same_search(deep, one)
        assert deep_calls < one_calls


def lockstep_and_alone(dims, make_objective, monkeypatch, extra_seeds=()):
    """The search with its ascents in lockstep and with one ascent at a
    time, each on a fresh ``make_objective()``."""
    cfg = InputOptimizerConfig(restarts=3, grid=4, seed=5)
    searches = []
    for live in (optimize.LIVE_ASCENTS, 1):
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "LIVE_ASCENTS", live)
            searches.append(maximize_product_simplices(dims, make_objective(), cfg, extra_seeds))
    return searches


def flat_top(stack):
    """A stateless objective whose maximum 0.9 is a plateau no grid seed reaches."""
    p, q = stack
    return np.minimum(p[:, 0], 0.6) + np.minimum(p[:, 1], 0.3) + 0.0 * q[:, 0]


def constant(stack):
    return np.zeros(len(stack[0]))


@pytest.mark.parametrize("objective, dims", [(closed_form, (3, 2, 4)), (flat_top, (3, 2)),
                                              (constant, (3, 2))])
def test_lockstep_search_equals_one_start_at_a_time_on_closed_forms(objective, dims,
                                                                    monkeypatch):
    # ties go to the seeds, then to the first start in start order, however
    # the ascents' ends fall in the rounds
    lockstep, alone = lockstep_and_alone(dims, lambda: objective, monkeypatch)
    assert_same_search(lockstep, alone)
    if objective is constant:
        assert all(np.array_equal(u, np.full(k, 1.0 / k)) for u, k in zip(lockstep.point, dims))

    def last_first(starts, score, real=optimize._lockstep):
        yield from reversed(list(real(starts, score)))

    monkeypatch.setattr(optimize, "_lockstep", last_first)
    assert_same_search(lockstep_and_alone(dims, lambda: objective, monkeypatch)[0], alone)


@pytest.mark.parametrize("name", SEARCH_MODELS)
def test_lockstep_search_equals_one_start_at_a_time(name, monkeypatch):
    # the starts' ascents scored as one stack per round walk the paths they
    # walk one start after another, bit for bit, with the CO basis pool
    # seeing the rows in round order
    t = SEARCH_MODELS[name]
    lay = _Layout(t)
    pair = 0b101 if t.m > 2 else 0b11
    for a_mask in {(1 << t.m) - 1, pair}:
        lockstep, alone = lockstep_and_alone(
            lay.dims, lambda: _ni_objective(lay, PartySpec(t.m, a_mask, 0)), monkeypatch,
            extra_seeds=[uniform_input(lay)],
        )
        assert_same_search(lockstep, alone)


@pytest.mark.parametrize("name", ["closed_form", "pin4"])
def test_lockstep_calls_the_objective_once_per_round(name, monkeypatch):
    # one call for the seed set, then one per round: as many rounds as the
    # start that yields the most stacks, where one start at a time makes a
    # call per stack of every start
    if name == "closed_form":
        dims, make = (3, 2, 4), lambda: closed_form
    else:
        lay = _Layout(SEARCH_MODELS[name])
        dims, make = lay.dims, lambda: _ni_objective(lay, PartySpec(4, 0b1111, 0))
    yields, calls = [], []

    def counting_ascent(start, real=optimize._ascend):
        yields.append(0)
        run, k = real(start), len(yields) - 1
        stack = next(run)
        while True:
            yields[k] += 1
            try:
                stack = run.send((yield stack))
            except StopIteration as stop:
                return stop.value

    def counting():
        objective, sizes = make(), []
        calls.append(sizes)

        def score(stack):
            sizes.append(len(stack[0]))
            return objective(stack)

        return score

    monkeypatch.setattr(optimize, "_ascend", counting_ascent)
    assert_same_search(*lockstep_and_alone(dims, counting, monkeypatch))
    starts = len(yields) // 2
    assert starts == 5  # the two best seeds and three restarts
    lockstep, alone = yields[:starts], yields[starts:]
    assert lockstep == alone
    assert len(calls[0]) == 1 + max(lockstep) < len(calls[1]) == 1 + sum(alone)
    assert sum(calls[0]) == sum(calls[1])


def test_uniform_seed_fills_both_best_starts():
    # on a BSC the uniform seed, seeded twice, scores best and fills both
    # best starts: their ascents stack the same points in every round
    t = single_bsc_transceiver(0.11)
    lay = _Layout(t)
    calls = []

    def recording(objective):
        def score(stack):
            calls.append(np.concatenate(stack, axis=1))
            return objective(stack)

        return score

    cfg = InputOptimizerConfig(restarts=3, grid=4, seed=5)
    objective = recording(_ni_objective(lay, PartySpec(2, 0b11, 0)))
    search = maximize_product_simplices(lay.dims, objective, cfg, extra_seeds=[lay.uniform])
    assert np.array_equal(calls[1][0], calls[1][1])  # both ascents start at uniform
    assert any(len(np.unique(rows, axis=0)) < len(rows) for rows in calls[2:])
    assert search.value == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-9)


def test_search_memory_does_not_grow_with_restarts(monkeypatch):
    # the objective keeps nothing per scored point, so past the widest
    # round of live ascents a search's peak allocation stays level as its
    # restarts, and with them its evaluations, grow twentyfold
    monkeypatch.setattr(optimize, "GOLDEN_STEPS", 4)  # short line searches keep it fast
    monkeypatch.setattr(optimize, "ASCENT_SWEEPS", 1)
    lay = _Layout(SEARCH_MODELS["t2-ternary"])
    peaks = []
    for restarts in (20, 400):
        cfg = InputOptimizerConfig(restarts=restarts, grid=2, seed=0)
        tracemalloc.start()
        try:
            _search(lay, _ni_objective(lay, PartySpec(2, 0b11, 0)), cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1 << 20


def test_emulated_oracle_matches_the_jointpmf_route():
    # the layout oracle gives the very floats of the product_pmf/compose
    # route
    rng = np.random.default_rng(71)
    for t in SEARCH_MODELS.values():
        lay = _Layout(t)
        dims = lay.dims
        points = [[rng.dirichlet(np.ones(k)) for k in dims] for _ in range(4)]
        # zero entries: point masses and a vector with one symbol unused
        points.append([np.eye(k)[0] for k in dims])
        points.append([np.concatenate([[0.0], np.full(k - 1, 1.0 / (k - 1))])
                       if k > 1 else np.ones(1) for k in dims])
        for point in points:
            src = emulated_to_source(t, product_input(t, point))
            assert np.array_equal(lay.entropies(stack_points([point]))[0], source_entropies(src))
