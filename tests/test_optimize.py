import time

import numpy as np
import pytest

from skacap.optimize import GRID_CAP, _grid_seeds


def enumerated_grid_seeds(dims, resolution):
    """The grid seeds as they were built before unranking: every composition
    of every simplex, then every stride-th point of the product."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    g = max(1, int(round(1.0 / resolution)))
    per_axis = [
        [np.ones(1)] if k == 1 else [np.array(c, dtype=float) / g for c in compositions(g, k)]
        for k in dims
    ]
    radices = [len(p) for p in per_axis]
    total = int(np.prod(radices))
    seeds = []
    for flat in range(0, total, max(1, total // GRID_CAP)):
        idx = []
        for r in reversed(radices):
            idx.append(flat % r)
            flat //= r
        seeds.append([per_axis[i][j] for i, j in enumerate(reversed(idx))])
    return seeds


@pytest.mark.parametrize("dims", [[3, 3], [2, 2, 2, 1], [8], [1, 4], [2, 4, 1], [4, 2, 2]])
@pytest.mark.parametrize("grid", range(2, 9))
def test_grid_seeds_equal_the_full_enumeration(dims, grid):
    got = _grid_seeds(dims, 1.0 / grid)
    want = enumerated_grid_seeds(dims, 1.0 / grid)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for u, v in zip(g, w):
            assert np.array_equal(u, v)
    # a row that seeds share is one array, and no seed can write to it
    rows = [u for g in got for u in g]
    for u in rows:
        if sum(v is u for v in rows) > 1:
            assert not u.flags.writeable


def test_fine_grid_builds_only_the_kept_seeds():
    # C(71, 7) ~ 1.2e9 compositions: enumerating them would not finish
    start = time.perf_counter()
    seeds = _grid_seeds([8], 1.0 / 64)
    assert time.perf_counter() - start < 1.0
    assert GRID_CAP <= len(seeds) < 2 * GRID_CAP
    for (p,) in seeds:
        assert p.shape == (8,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(p * 64, np.round(p * 64))
    assert np.array_equal(seeds[0][0], np.eye(8)[7])


def test_grid_seed_heads_are_found_by_bisection():
    # a grid of 10^9 steps: walking each head up one unit at a time would
    # take minutes
    start = time.perf_counter()
    seeds = _grid_seeds([2, 3], 1e-9)
    assert time.perf_counter() - start < 1.0
    assert len(seeds) < 2 * GRID_CAP
    for p, q in seeds:
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(seeds[0][0], [0.0, 1.0])
