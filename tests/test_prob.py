import tracemalloc

import numpy as np
import pytest

from skacap import prob
from skacap.errors import ModelError
from skacap.prob import (
    LATTICE_BLOCK,
    ZERO_CUTOFF,
    Alphabet,
    Dmc,
    JointPMF,
    binary_entropy,
    bsc_matrix,
    compose,
    entropy,
    marginalize,
    mutual_information,
    product_pmf,
    statistical_distance,
    subset_entropies,
    uniform_pmf,
)

B = Alphabet(2)


def pmf(ids_sizes, flat):
    return JointPMF(tuple(ids_sizes), np.asarray(flat, dtype=float))


def brute_marginal(flat, shape, keep_axes):
    """Direct-summation oracle: sum the table over all dropped coordinates."""
    arr = np.asarray(flat, dtype=float).reshape(shape)
    out = np.zeros([shape[a] for a in keep_axes])
    for idx in np.ndindex(*shape):
        out[tuple(idx[a] for a in keep_axes)] += arr[idx]
    return out.ravel()


def test_alphabet_invariants():
    with pytest.raises(ModelError):
        Alphabet(0)
    assert Alphabet(3).size == 3


def test_pmf_construction_invariants():
    with pytest.raises(ModelError):
        pmf([(0, B)], [0.5, 0.6])
    with pytest.raises(ModelError):
        pmf([(0, B)], [1.1, -0.1])
    with pytest.raises(ModelError):
        pmf([(0, B), (0, B)], [0.25] * 4)
    with pytest.raises(ModelError):
        pmf([(0, B)], [0.5, 0.5, 0.0])


def test_marginalize_uniform_pair():
    p = uniform_pmf([(0, B), (1, B)])
    m = marginalize(p, {0})
    assert m.ids == (0,)
    np.testing.assert_allclose(m.probs, [0.5, 0.5])


def test_marginalize_copy_variable():
    # X2 = X1 with X1 uniform
    p = pmf([(0, B), (1, B)], [0.5, 0.0, 0.0, 0.5])
    m = marginalize(p, {1})
    np.testing.assert_allclose(m.probs, [0.5, 0.5])


def test_marginalize_random_2x3_matches_brute_force():
    rng = np.random.default_rng(7)
    flat = rng.dirichlet(np.ones(6))
    p = pmf([(0, B), (1, Alphabet(3))], flat)
    m = marginalize(p, {1})
    np.testing.assert_allclose(m.probs, brute_marginal(flat, (2, 3), (1,)), atol=1e-14)
    # column sums of the 2x3 table
    np.testing.assert_allclose(m.probs, flat.reshape(2, 3).sum(axis=0), atol=1e-14)


def test_marginalize_errors():
    p = uniform_pmf([(0, B), (1, B)])
    with pytest.raises(ModelError):
        marginalize(p, set())
    with pytest.raises(ModelError):
        marginalize(p, {5})


def test_entropy_uniform_and_point_mass():
    assert entropy(uniform_pmf([(0, B)]), {0}) == pytest.approx(1.0, abs=1e-15)
    assert entropy(pmf([(0, B)], [1.0, 0.0]), {0}) == pytest.approx(0.0, abs=1e-15)


def test_conditional_entropy_bsc_noise():
    # X2 = X1 xor noise(0.11), X1 uniform: H(X2 | X1) = h(0.11)
    p = 0.11
    joint = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    jp = pmf([(0, B), (1, B)], joint.ravel())
    assert entropy(jp, {1}, {0}) == pytest.approx(binary_entropy(p), abs=1e-12)
    assert binary_entropy(0.11) == pytest.approx(0.4999, abs=5e-5)


def test_entropy_errors():
    p = uniform_pmf([(0, B), (1, B)])
    with pytest.raises(ModelError):
        entropy(p, {0}, {0})
    with pytest.raises(ModelError):
        entropy(p, {9})
    with pytest.raises(ModelError):
        entropy(p, set())


def test_mutual_information_basic():
    indep = uniform_pmf([(0, B), (1, B)])
    assert mutual_information(indep, {0}, {1}) == pytest.approx(0.0, abs=1e-12)
    copy = pmf([(0, B), (1, B)], [0.5, 0.0, 0.0, 0.5])
    assert mutual_information(copy, {0}, {1}) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_bsc_analytic():
    p = 0.2
    joint = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    jp = pmf([(0, B), (1, B)], joint.ravel())
    expect = 1.0 - binary_entropy(p)
    assert mutual_information(jp, {0}, {1}) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.2781, abs=5e-5)


def test_mutual_information_overlap_error():
    p = uniform_pmf([(0, B), (1, B), (2, B)])
    with pytest.raises(ModelError):
        mutual_information(p, {0}, {0})
    with pytest.raises(ModelError):
        mutual_information(p, {0}, {1}, {1})


def test_statistical_distance_cases():
    p = pmf([(0, B)], [0.6, 0.4])
    q = pmf([(0, B)], [0.5, 0.5])
    assert statistical_distance(p, p) == 0.0
    assert statistical_distance(p, q) == pytest.approx(0.1, abs=1e-15)
    a = pmf([(0, B)], [1.0, 0.0])
    b = pmf([(0, B)], [0.0, 1.0])
    assert statistical_distance(a, b) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ModelError):
        statistical_distance(p, pmf([(1, B)], [0.5, 0.5]))


def test_statistical_distance_triangle_random():
    rng = np.random.default_rng(11)
    vl = [(0, B), (1, Alphabet(3))]
    for _ in range(50):
        p, q, r = (pmf(vl, rng.dirichlet(np.ones(6))) for _ in range(3))
        assert statistical_distance(p, q) <= (
            statistical_distance(p, r) + statistical_distance(r, q) + 1e-12
        )


def test_compose_identity_and_point_mass():
    ident = Dmc([(0, B)], [(1, B)], np.eye(2))
    out = compose(uniform_pmf([(0, B)]), ident)
    np.testing.assert_allclose(out.probs, [0.5, 0.0, 0.0, 0.5])
    w = Dmc([(0, B)], [(1, B)], bsc_matrix(0.3))
    point = pmf([(0, B)], [1.0, 0.0])
    out = compose(point, w)
    np.testing.assert_allclose(out.probs, [0.7, 0.3, 0.0, 0.0])


def test_compose_bsc_example():
    w = Dmc([(0, B)], [(1, B)], bsc_matrix(0.11))
    out = compose(uniform_pmf([(0, B)]), w)
    np.testing.assert_allclose(out.probs, [0.445, 0.055, 0.055, 0.445], atol=1e-15)


def test_compose_marginal_recovers_input_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = pmf([(0, Alphabet(3)), (1, B)], rng.dirichlet(np.ones(6)))
        rows = rng.dirichlet(np.ones(4), size=6)
        w = Dmc([(0, Alphabet(3)), (1, B)], [(2, B), (3, B)], rows)
        joint = compose(p, w)
        back = marginalize(joint, {0, 1})
        np.testing.assert_allclose(back.probs, p.probs, atol=1e-12)


def test_compose_variable_mismatch():
    w = Dmc([(0, B)], [(1, B)], bsc_matrix(0.1))
    with pytest.raises(ModelError):
        compose(uniform_pmf([(2, B)]), w)


def test_product_pmf():
    a = pmf([(0, B)], [0.3, 0.7])
    b = pmf([(1, B)], [0.5, 0.5])
    out = product_pmf([a, b])
    np.testing.assert_allclose(out.probs, np.outer([0.3, 0.7], [0.5, 0.5]).ravel())
    np.testing.assert_allclose(out.probs, [0.15, 0.15, 0.35, 0.35])
    assert product_pmf([a]) is a
    for f, orig in ((0, a), (1, b)):
        np.testing.assert_allclose(marginalize(out, {f}).probs, orig.probs, atol=1e-15)
    with pytest.raises(ModelError):
        product_pmf([a, pmf([(0, B)], [0.5, 0.5])])


def test_chain_rule_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        nvars = rng.integers(2, 5)
        sizes = rng.integers(2, 4, size=nvars)
        vl = [(i, Alphabet(int(s))) for i, s in enumerate(sizes)]
        p = pmf(vl, rng.dirichlet(np.ones(int(np.prod(sizes)))))
        ids = list(range(nvars))
        k = int(rng.integers(1, nvars))
        s, t = set(ids[:k]), set(ids[k:])
        lhs = entropy(p, s | t)
        rhs = entropy(p, s) + entropy(p, t, s)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        # bounds
        log_alph = sum(np.log2(sizes[i]) for i in s)
        assert -1e-12 <= entropy(p, s, t) <= log_alph + 1e-10
        # symmetry of mutual information
        assert mutual_information(p, s, t) == pytest.approx(
            mutual_information(p, t, s), abs=1e-10
        )


def test_cell_guard():
    with pytest.raises(ModelError):
        uniform_pmf([(i, Alphabet(4)) for i in range(13)])  # 4^13 > 2^24


def test_cell_guard_precedes_allocation():
    # 2^13 x 2^12 channel cells and a 2^25-cell product: both refused from
    # the alphabet sizes alone, before any array of that size exists
    big_in = [(i, B) for i in range(13)]
    big_out = [(13 + i, B) for i in range(12)]
    with pytest.raises(ModelError, match="channel has 33554432 cells"):
        Dmc(big_in, big_out, np.zeros(1))
    factor = uniform_pmf([(0, Alphabet(32))])
    factors = [JointPMF(((i, Alphabet(32)),), factor.probs) for i in range(5)]
    with pytest.raises(ModelError, match="product has 33554432 cells"):
        product_pmf(factors)


def test_subset_entropies_match_prob_entropy():
    rng = np.random.default_rng(43)
    sizes = (2, 3, 2, 4, 3, 2)
    # groups of one and two variables, listed out of axis order
    groups = [{3, 0}, {2}, {5, 1}, {4}]
    for _ in range(5):
        flat = rng.dirichlet(np.full(int(np.prod(sizes)), 0.3))
        p = pmf(tuple((i, Alphabet(s)) for i, s in enumerate(sizes)), flat)
        every = subset_entropies(p.tensor()[None], [sum(1 << v for v in g) for g in groups])[0]
        assert every.shape == (1 << len(groups),)
        assert every[0] == 0.0
        for mask in range(1, 1 << len(groups)):
            union = set().union(*(g for j, g in enumerate(groups) if (mask >> j) & 1))
            assert every[mask] == pytest.approx(entropy(p, union), abs=1e-12)


def test_stacked_subset_entropies_equal_each_row_alone():
    # each row of a stack equals the stack of one bit for bit, and the
    # marginal entropies to 1e-12; rows with zero cells (a grid vertex and
    # a point mass), a size-1 axis, and an Eve axis summed out first
    rng = np.random.default_rng(44)
    sizes = (2, 3, 1, 4, 2, 3)  # axis 5 is Eve
    eve = 5
    groups = [{3, 0}, {2}, {4, 1}]
    cells = int(np.prod(sizes))
    rows = [rng.dirichlet(np.full(cells, 0.4)) for _ in range(4)]
    vertex = np.zeros(sizes)
    vertex[1, :, 0, 2, :, :] = rng.dirichlet(np.ones(18)).reshape(3, 2, 3)
    rows.append(vertex.ravel())
    rows.append(np.eye(cells)[7])
    sparse = rng.dirichlet(np.ones(cells)) * (rng.random(cells) < 0.5)
    rows.append(sparse / sparse.sum())
    stack = np.stack(rows).reshape((len(rows),) + sizes).sum(axis=1 + eve)
    masks = [sum(1 << v for v in g) for g in groups]
    every = subset_entropies(stack, masks)
    assert every.shape == (len(rows), 1 << len(groups))
    ids = tuple((i, Alphabet(s)) for i, s in enumerate(sizes))
    for i, flat in enumerate(rows):
        assert np.array_equal(every[i], subset_entropies(stack[i:i + 1], masks)[0])
        p = pmf(ids, flat)
        assert every[i, 0] == 0.0
        for mask in range(1, 1 << len(groups)):
            union = set().union(*(g for j, g in enumerate(groups) if (mask >> j) & 1))
            assert every[i, mask] == pytest.approx(entropy(p, union), abs=1e-12)


def assert_masks_match_entropy(p, groups, masks, abs_tol=1e-12):
    """``subset_entropies`` of ``p`` at ``masks`` against ``entropy``, the
    independent route through ``marginalize``."""
    axis = {v: i for i, v in enumerate(p.ids)}
    every = subset_entropies(p.tensor()[None], [sum(1 << axis[v] for v in g) for g in groups])[0]
    assert every.shape == (1 << len(groups),)
    assert every[0] == 0.0
    for mask in masks:
        union = set().union(*(g for j, g in enumerate(groups) if (mask >> j) & 1))
        assert every[mask] == pytest.approx(entropy(p, union), abs=abs_tol), mask


@pytest.mark.parametrize("size, k", [(2, k) for k in range(1, 14)] + [(3, 7)])
def test_subset_entropies_on_both_sides_of_the_block_boundary(size, k):
    # one variable per group: up to 8 binary groups the whole lattice is one
    # zeta block; from 9 on, and for 7 ternary groups, the first groups are
    # leading, summed out one mask at a time, and a node's leading cells
    # span several chunks
    rng = np.random.default_rng(100 + k)
    p = pmf([(i, Alphabet(size)) for i in range(k)], rng.dirichlet(np.full(size ** k, 0.5)))
    lead = prob._lattice((size,) * k, tuple(1 << i for i in range(k))).lead
    assert (lead == 0) == ((size + 1) ** k <= LATTICE_BLOCK)
    masks = range(1, 1 << k)
    if k > 8:
        masks = sorted({*rng.integers(1, 1 << k, 150).tolist(), (1 << k) - 1,
                        *(1 << j for j in range(k))})
    assert_masks_match_entropy(p, [{i} for i in range(k)], masks)


def test_subset_entropies_alphabets_groups_and_cutoff():
    # alphabets of size 1, 2 and 3; groups of non-adjacent axes, listed out
    # of axis order (the (T_j, Y_j) layout of a transceiver); and entries at,
    # below and far below ZERO_CUTOFF, plus exact zeros
    rng = np.random.default_rng(45)
    sizes = (3, 1, 2, 3, 2, 1, 3)
    groups = [{0, 4}, {5, 2}, {1}, {6, 3}]
    cells = int(np.prod(sizes))
    for _ in range(3):
        flat = rng.dirichlet(np.full(cells, 0.3))
        picks = rng.choice(cells, size=12, replace=False)
        flat[picks[:3]] = ZERO_CUTOFF
        flat[picks[3:6]] = ZERO_CUTOFF / 2
        flat[picks[6:9]] = 1e-300
        flat[picks[9:]] = 0.0
        p = pmf(tuple((i, Alphabet(s)) for i, s in enumerate(sizes)), flat / flat.sum())
        assert_masks_match_entropy(p, groups, range(1, 1 << len(groups)))


@pytest.mark.parametrize("sizes, groups, n", [
    # eleven binary groups: three leading, each node in several chunks
    ((2,) * 11, [1 << i for i in range(11)], 3),
    # the (T_j, Y_j) layout: many rows to a chunk, 250 rows in four chunks
    ((3, 3, 3, 3), [0b0101, 0b1010], 250),
])
def test_rows_across_chunk_boundaries_equal_each_row_alone(sizes, groups, n):
    rng = np.random.default_rng(47)
    cells = int(np.prod(sizes))
    rows = rng.dirichlet(np.full(cells, 0.5), size=n)
    rows[1] *= rng.random(cells) < 0.3  # a row with exact zeros
    rows[1] /= rows[1].sum()
    stack = rows.reshape((n,) + sizes)
    every = subset_entropies(stack, groups)
    plan = prob._lattice(sizes, tuple(groups))
    per_chunk = max(1, LATTICE_BLOCK // (plan.chunk * plan.block))
    assert n > per_chunk or plan.chunk < np.prod(plan.sizes[:plan.lead])
    for i in sorted({0, 1, per_chunk - 1, per_chunk, n - 1} & set(range(n))):
        assert np.array_equal(every[i], subset_entropies(stack[i:i + 1], groups)[0])


def test_subset_entropies_memory_stays_bounded():
    # one call at m = 12 binary, its plan built in the call: about 0.2 MB
    # above the joint
    rng = np.random.default_rng(48)
    stack = rng.dirichlet(np.ones(1 << 12)).reshape((1,) + (2,) * 12)
    groups = [1 << i for i in range(12)]
    prob._lattice.cache_clear()
    tracemalloc.start()
    try:
        subset_entropies(stack, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_subset_entropies_refuses_groups_that_do_not_partition():
    stack = np.full((1, 2, 2, 2), 1 / 8)
    for groups in ([0b011, 0b110], [0b001, 0b010]):
        with pytest.raises(ModelError, match="do not partition"):
            subset_entropies(stack, groups)


def test_dmc_row_error_reports_index_and_sum():
    rows = np.array([[0.5, 0.5], [0.49, 0.49]])
    with pytest.raises(ModelError, match=r"row 1 sums to 0\.98"):
        Dmc([(0, B)], [(1, B)], rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_jointpmf_rejects_non_finite_entries(bad):
    # a NaN passes every comparison-based check, so it must be refused by name
    with pytest.raises(ModelError, match="non-finite"):
        JointPMF(((0, B),), [bad, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dmc_rejects_non_finite_entries(bad):
    with pytest.raises(ModelError, match="non-finite"):
        Dmc([(0, B)], [(1, B)], np.array([[0.5, 0.5], [bad, 1.0]]))



# Valid input passes one min/sum pass; the messages below come from the
# detailed checks, which run only to word a refusal, in this order.
PMF_REFUSALS = [
    ([np.nan, 1.0], "pmf has a non-finite entry"),
    ([np.inf, 0.0], "pmf has a non-finite entry"),
    ([-np.inf, 1.0], "pmf has a non-finite entry"),
    ([np.nan, -1.0], "pmf has a non-finite entry"),
    ([-0.25, 1.25], "negative probability -2.500e-01"),
    ([-0.25, 0.5], "negative probability -2.500e-01"),
    ([0.5, 0.25], "pmf sums to 0.75, not 1 within 1e-12"),
    ([0.5, 0.5 + 1e-11], "pmf sums to 1.00000000001, not 1 within 1e-12"),
    ([1.0], "pmf has 1 entries, expected 2 for the declared alphabets"),
    ([np.nan, 0.5, 0.5], "pmf has 3 entries, expected 2 for the declared alphabets"),
]

DMC_REFUSALS = [
    ([[0.5, 0.5], [np.nan, 1.0]], "channel has a non-finite entry"),
    ([[0.5, 0.5], [np.inf, 0.0]], "channel has a non-finite entry"),
    ([[-np.inf, 1.0], [0.5, 0.5]], "channel has a non-finite entry"),
    ([[1.5, -0.5], [0.5, 0.5]], "channel has a negative transition probability"),
    ([[0.5, 0.5], [-0.5, 0.5]], "channel has a negative transition probability"),
    ([[0.5, 0.5], [0.49, 0.49]], "channel row 1 sums to 0.98, not 1 within 1e-12"),
    ([[0.6, 0.6], [0.49, 0.49]], "channel row 0 sums to 1.2, not 1 within 1e-12"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
     "channel has 6 entries, expected 2 x 2 for the declared alphabets"),
]


@pytest.mark.parametrize("flat, message", PMF_REFUSALS)
def test_jointpmf_refusal_messages(flat, message):
    with pytest.raises(ModelError) as exc:
        JointPMF(((0, B),), flat)
    assert str(exc.value) == message


@pytest.mark.parametrize("rows, message", DMC_REFUSALS)
def test_dmc_refusal_messages(rows, message):
    with pytest.raises(ModelError) as exc:
        Dmc([(0, B)], [(1, B)], np.array(rows))
    assert str(exc.value) == message


@pytest.mark.parametrize("flat", [[0.5, 0.5], [1.0, 0.0], [-0.0, 1.0], [0.5, 0.5 + 9e-13],
                                  [1e-300, 1.0]])
def test_jointpmf_accepts_the_edges_of_the_checks(flat):
    assert JointPMF(((0, B),), flat).probs.tolist() == flat


def test_dmc_accepts_rows_of_any_shape_with_the_declared_size():
    rows = Dmc([(0, B)], [(1, B)], np.array([0.9, 0.1, 0.0, 1.0])).rows
    assert rows.shape == (2, 2) and not rows.flags.writeable
