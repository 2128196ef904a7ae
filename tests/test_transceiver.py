import numpy as np
import pytest

from skacap.errors import ModelError
from skacap.models import (
    PartySpec,
    Polytree,
    SourceModel,
    TransceiverModel,
    edge,
    emulated_to_source,
    polytree_to_transceiver,
)
from skacap.omniscience import sk_capacity
from skacap.optimize import InputOptimizerConfig, maximize_product_simplices
from skacap.prob import (
    Alphabet,
    Dmc,
    EntropyOracle,
    JointPMF,
    binary_entropy,
    bsc_matrix,
    compose,
    entropy,
    marginalize,
    mutual_information,
    statistical_distance,
    uniform_pmf,
)
from skacap.transceiver import (
    EmulationSpec,
    build_auxiliary,
    constant_emulation,
    emulate,
    lambda_upper_expression,
    lower_bound_pk,
    lower_bound_sk,
    min_lambda_upper_expression,
    noninteractive_sk_capacity,
    sk_bounds,
    upper_bound_sk,
    wsk_upper_by_pk,
    _emulated_oracles,
    _input_dims,
    _min_lambda,
    _ni_search,
    _product_input,
)

B = Alphabet(2)
CFG = InputOptimizerConfig(restarts=2, ascent=15, seed=3)


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


def v_correlated_spec(t, v_size, rng):
    used = set(t.channel.in_ids) | set(t.channel.out_ids)
    v_id = max(used) + 1
    p_v = JointPMF(((v_id, Alphabet(v_size)),), rng.dirichlet(np.ones(v_size)))
    conds = []
    for j in range(t.m):
        out_vars = tuple(
            (vid, dict(t.channel.in_vars)[vid]) for vid in t.input_vars[j]
        )
        k = int(np.prod([a.size for _, a in out_vars]))
        conds.append(Dmc(((v_id, Alphabet(v_size)),), out_vars, rng.dirichlet(np.ones(k), size=v_size)))
    return EmulationSpec(p_v=p_v, conditionals=tuple(conds))


def test_emulate_constant_v_matches_product_emulation():
    t = single_bsc_transceiver(0.11)
    dims = [int(np.prod([dict(t.channel.in_vars)[v].size for v in g])) for g in t.input_vars]
    vecs = [np.full(k, 1.0 / k) for k in dims]
    spec = constant_emulation(t, vecs)
    src = emulate(t, spec)
    assert src.m == t.m + 1
    direct = emulated_to_source(t, _product_input(t, vecs))
    # drop V and compare entry-wise
    core = marginalize(src.pmf, set(direct.pmf.ids))
    assert core.vars == direct.pmf.vars
    np.testing.assert_allclose(core.probs, direct.pmf.probs, atol=1e-12)


def test_emulate_v_copies_inputs():
    # V uniform bit, T1 = T2 = V: the T marginal is a perfectly correlated pair
    t = random_transceiver(np.random.default_rng(0), 2)
    v_id = 10
    p_v = JointPMF(((v_id, B),), np.array([0.5, 0.5]))
    copy = np.eye(2)
    conds = (
        Dmc(((v_id, B),), ((0, B),), copy),
        Dmc(((v_id, B),), ((1, B),), copy),
    )
    src = emulate(t, EmulationSpec(p_v=p_v, conditionals=conds))
    tm = marginalize(src.pmf, {0, 1})
    np.testing.assert_allclose(tm.probs, [0.5, 0.0, 0.0, 0.5], atol=1e-14)


def test_emulate_degenerate_channel_outputs_independent():
    # outputs independent of inputs: Y-marginal independent of (V, T)
    rows = np.tile(np.array([0.25, 0.25, 0.25, 0.25]), (4, 1))
    t = TransceiverModel(
        m=2,
        input_vars=((0,), (1,)),
        output_vars=((2,), (3,)),
        channel=Dmc(((0, B), (1, B)), ((2, B), (3, B)), rows),
    )
    spec = constant_emulation(t, [np.array([0.3, 0.7]), np.array([0.5, 0.5])])
    src = emulate(t, spec)
    assert mutual_information(src.pmf, {2, 3}, {0, 1}) == pytest.approx(0.0, abs=1e-12)


def test_emulation_spec_validates_v_alphabet():
    t = random_transceiver(np.random.default_rng(4), 2)
    p_v = JointPMF(((9, B),), np.array([0.5, 0.5]))
    wrong_input = Dmc(((8, B),), ((0, B),), np.eye(2))
    with pytest.raises(ModelError):
        EmulationSpec(p_v=p_v, conditionals=(wrong_input, wrong_input))
    with pytest.raises(ModelError):
        # conditional outputs must be the terminal's T group
        good_in = Dmc(((9, B),), ((5, B),), np.eye(2))
        emulate(t, EmulationSpec(p_v=p_v, conditionals=(good_in, good_in)))


def test_lower_bound_single_bsc_edge():
    t = single_bsc_transceiver(0.11)
    dims = [1, 1]
    # uniform on the real input var; degenerate elsewhere
    vecs = []
    for g in t.input_vars:
        k = int(np.prod([dict(t.channel.in_vars)[v].size for v in g]))
        vecs.append(np.full(k, 1.0 / k))
    rep = lower_bound_sk(t, {0, 1}, constant_emulation(t, vecs))
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
    rep = lower_bound_sk(t, {0, 1}, constant_emulation(t, vecs))
    assert rep.value == pytest.approx(0.0, abs=1e-10)


def test_lower_bound_identity_channel():
    g = Polytree(2, (edge(0, 1, np.eye(2)),))
    t = polytree_to_transceiver(g)
    vecs = [np.array([0.5, 0.5]), np.array([1.0])]
    rep = lower_bound_sk(t, {0, 1}, constant_emulation(t, vecs))
    assert rep.value == pytest.approx(1.0, abs=1e-10)


def test_build_auxiliary_layout():
    t = random_transceiver(np.random.default_rng(1), 2)
    aux = build_auxiliary(t)
    assert aux.n_terminals == 4
    # input terminals own exactly the T groups (identity first layer)
    assert aux.groups[2] == frozenset(t.input_vars[0])
    assert aux.groups[3] == frozenset(t.input_vars[1])
    # output terminals reproduce (T_j, Y_j)
    assert aux.groups[0] == frozenset(t.input_vars[0]) | frozenset(t.output_vars[0])
    with pytest.raises(ModelError):
        build_auxiliary(t, wiretapped=True)


def test_build_auxiliary_wiretapped():
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.1), wiretap_rows=bsc_matrix(0.25)),))
    t = polytree_to_transceiver(g)
    aux = build_auxiliary(t, wiretapped=True)
    assert aux.n_terminals == 2 * t.m + 1
    assert aux.groups[-1] == frozenset({t.eve_var})
    assert aux.d_mask == 1 << (2 * t.m)


def test_lambda_expression_independence_cancellation():
    # for product inputs the second bracket vanishes for every feasible lambda
    rng = np.random.default_rng(5)
    for m in (2, 3):
        t = random_transceiver(rng, m)
        aux = build_auxiliary(t)
        vecs = [rng.dirichlet(np.ones(2)) for _ in range(m)]
        p_in = _product_input(t, vecs)
        # lambda: all singletons of the 2m auxiliary terminals
        lam = {1 << j: 1.0 for j in range(2 * m)}
        val = lambda_upper_expression(aux, p_in, lam)
        oracle = EntropyOracle(compose(p_in, t.channel), aux.groups)
        # evaluate the two brackets separately through the public expression:
        # with lam covering inputs exactly once, bracket2 = 0, so
        # E = H(X_M) - sum_B lam_B H(X_B | X_{B^c})
        first = oracle.h((1 << m) - 1)
        full = (1 << (2 * m)) - 1
        for b, w in lam.items():
            first -= w * oracle.conditional(b, full & ~b)
        assert val == pytest.approx(first, abs=1e-10)


def test_lambda_expression_rejects_infeasible():
    t = random_transceiver(np.random.default_rng(2), 2)
    aux = build_auxiliary(t)
    p_in = _product_input(t, [np.array([0.5, 0.5]), np.array([0.5, 0.5])])
    with pytest.raises(ModelError, match="infeasible lambda"):
        lambda_upper_expression(aux, p_in, {0b0001: 1.0})
    with pytest.raises(ModelError, match="outside the model"):
        lambda_upper_expression(aux, p_in, {0b1111: 1.0, 0b10000: 1.0})


def test_min_lambda_equals_sk_capacity_on_product_inputs():
    rng = np.random.default_rng(12)
    for m in (2, 3):
        for _ in range(5):
            t = random_transceiver(rng, m)
            aux = build_auxiliary(t)
            vecs = [rng.dirichlet(np.ones(2)) for _ in range(m)]
            p_in = _product_input(t, vecs)
            sk = sk_capacity(emulated_to_source(t, p_in), (1 << m) - 1).value
            val, lam = _min_lambda(aux, p_in, (1 << m) - 1)
            assert val == pytest.approx(sk, abs=1e-9)
            # the witness lies in Lambda(A): re-evaluating through the
            # public expression reproduces the minimum
            assert lambda_upper_expression(aux, p_in, lam) == pytest.approx(
                val, abs=1e-9
            )


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


def test_noninteractive_deterministic_given_seed():
    t = random_transceiver(np.random.default_rng(9), 2)
    cfg = InputOptimizerConfig(restarts=3, ascent=10, seed=77)
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
    out = sk_bounds(t, {0, 1}, CFG, emulation_inputs=grid_aligned)
    lowers = [r.value for r in out["lower_bounds"]]
    ni = out["noninteractive"]
    upper = out["upper_bound"]
    assert max(lowers) <= ni.value + 1e-7
    assert ni.value <= upper.value + 1e-7
    assert upper.witness["family"]
    assert out["lower_bounds"][0].witness["emulation"]["v_alphabet"] == 1


def test_sk_bounds_noninteractive_report_equals_direct_search():
    # sk_bounds seeds its search with the uniform input, so the direct call
    # with that one extra seed runs the same search and must report the same
    rng = np.random.default_rng(45)
    t = random_transceiver(rng, 2)
    uniform = [np.full(2, 0.5), np.full(2, 0.5)]
    got = sk_bounds(t, {0, 1}, CFG)["noninteractive"].to_dict()
    want = noninteractive_sk_capacity(t, {0, 1}, CFG, extra_inputs=[uniform]).to_dict()
    assert got == want
    assert {"evaluations", "converged"} <= set(got["witness"])


def test_v_correlated_lower_bound_is_valid_report():
    rng = np.random.default_rng(50)
    t = random_transceiver(rng, 2)
    spec = v_correlated_spec(t, 2, rng)
    rep = lower_bound_pk(t, PartySpec(2, 0b11, 0), spec)
    assert rep.kind == "lower_bound"
    assert rep.value >= 0.0
    assert rep.witness["emulation"]["v_alphabet"] == 2


def test_upper_bound_never_below_noninteractive_on_random_models():
    rng = np.random.default_rng(60)
    for m in (2, 3):
        for _ in range(3):
            t = random_transceiver(rng, m)
            ni = noninteractive_sk_capacity(t, (1 << m) - 1, CFG)
            up = upper_bound_sk(t, (1 << m) - 1, CFG)
            assert ni.value <= up.value + 1e-7


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
    # as sk_capacity on the validated emulated source, evaluation for evaluation
    t = SEARCH_MODELS[name]
    cfg = InputOptimizerConfig(restarts=1, ascent=15, grid_resolution=0.25, seed=5)
    pair = 0b101 if t.m > 2 else 0b11
    for a_mask in {(1 << t.m) - 1, pair}:

        def plain(point):
            return sk_capacity(emulated_to_source(t, _product_input(t, point)), a_mask).value

        want = maximize_product_simplices(_input_dims(t), plain, cfg)
        got = _ni_search(t, a_mask, cfg)
        assert got.evaluations == want.evaluations
        assert got.value == pytest.approx(want.value, abs=1e-12)
        for u, v in zip(got.point, want.point):
            np.testing.assert_allclose(u, v, rtol=0, atol=1e-12)
        assert [v for v, _ in got.finals] == pytest.approx([v for v, _ in want.finals], abs=1e-12)


def test_emulated_oracle_matches_the_jointpmf_route():
    rng = np.random.default_rng(71)
    for t in SEARCH_MODELS.values():
        oracle_at = _emulated_oracles(t)
        dims = _input_dims(t)
        points = [[rng.dirichlet(np.ones(k)) for k in dims] for _ in range(4)]
        # zero entries: point masses and a vector with one symbol unused
        points.append([np.eye(k)[0] for k in dims])
        points.append([np.concatenate([[0.0], np.full(k - 1, 1.0 / (k - 1))])
                       if k > 1 else np.ones(1) for k in dims])
        for point in points:
            src = emulated_to_source(t, _product_input(t, point))
            want = EntropyOracle(src.pmf, src.terminal_vars).h_all()
            assert np.array_equal(oracle_at(point).h_all(), want)


def test_ni_search_refuses_extra_inputs_of_the_wrong_size():
    t = single_bsc_transceiver(0.1)
    with pytest.raises(ModelError, match="group sizes"):
        noninteractive_sk_capacity(t, {0, 1}, CFG, extra_inputs=[[np.ones(3) / 3, np.ones(1)]])
