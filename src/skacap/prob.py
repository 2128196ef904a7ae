"""Exact probability calculus over finite joint distributions.

Dense-tensor primitives everything else builds on: joint PMFs over named
finite variables, discrete memoryless channels as row-stochastic matrices,
marginalization, conditional entropy, mutual information, statistical
distance, channel composition, and independent products.

Every capacity in the package is a function of one array:
``subset_entropies`` gives H of every union of variable groups of one
joint (one group per terminal), indexed by group mask, for a whole stack
of joints in one lattice pass.  ``entropy`` and ``mutual_information``
take their few entropies from ``marginalize``.

Conventions
-----------
* All logarithms are base 2; every rate in this package is in bits.
* 0 * log(0) := 0, and entries below ``ZERO_CUTOFF`` are treated as exact
  zeros inside entropy sums.
* Values are immutable after construction and every operation is a pure
  function, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InternalConsistencyError, ModelError

#: Construction-time normalization tolerance for PMFs and channel rows.
PMF_TOL = 1e-12

#: Entries below this are treated as exact zeros inside entropy sums.
ZERO_CUTOFF = 1e-15

#: Derived identities (chain rule, symmetry, clamping) hold to this tolerance.
DERIVED_TOL = 1e-10

#: Hard cap on dense joint alphabet size (number of cells).
MAX_CELLS = 1 << 24


def check_cells(cells: int, what: str):
    """Refuse a dense table of ``cells`` entries past ``MAX_CELLS``, before it is built."""
    if cells > MAX_CELLS:
        raise ModelError(f"{what} has {cells} cells, cap is {MAX_CELLS}")


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet of ``size`` symbols with optional distinct labels."""

    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.size < 1:
            raise ModelError(f"alphabet size must be >= 1, got {self.size}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ModelError(
                    f"{len(self.labels)} labels for alphabet of size {self.size}"
                )
            if len(set(self.labels)) != len(self.labels):
                raise ModelError("alphabet labels must be distinct")


#: Variables are identified by small nonnegative integers, unique per model.
VarId = int

#: An ordered variable declaration: (id, alphabet).
VarList = tuple[tuple[VarId, Alphabet], ...]


def _as_varlist(vars_) -> VarList:
    out = []
    for vid, alph in vars_:
        if not isinstance(vid, (int, np.integer)) or vid < 0:
            raise ModelError(f"variable id must be a nonnegative integer, got {vid!r}")
        if not isinstance(alph, Alphabet):
            alph = Alphabet(int(alph))
        out.append((int(vid), alph))
    ids = [v for v, _ in out]
    if len(set(ids)) != len(ids):
        raise ModelError(f"duplicate variable ids in {ids}")
    return tuple(out)


@dataclass(frozen=True)
class JointPMF:
    """Dense joint distribution over an ordered list of finite variables.

    ``probs`` is flat, row-major in the declared variable order.  Entries are
    nonnegative and sum to one within ``PMF_TOL``.
    """

    vars: VarList
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vars", _as_varlist(self.vars))
        arr = np.ascontiguousarray(self.probs, dtype=float).ravel()
        cells = 1
        for _, alph in self.vars:
            cells *= alph.size
        check_cells(cells, "joint alphabet")
        if arr.size != cells:
            raise ModelError(
                f"pmf has {arr.size} entries, expected {cells} for the declared alphabets"
            )
        if arr.size == 0:
            raise ModelError("pmf must have at least one variable")
        if np.any(arr < 0):
            raise ModelError(f"negative probability {arr.min():.3e}")
        total = float(arr.sum())
        if abs(total - 1.0) > PMF_TOL:
            raise ModelError(f"pmf sums to {total!r}, not 1 within {PMF_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    # -- structural helpers -------------------------------------------------
    @property
    def ids(self) -> tuple[VarId, ...]:
        return tuple(v for v, _ in self.vars)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for _, a in self.vars)

    def index_of(self, vid: VarId) -> int:
        for i, (v, _) in enumerate(self.vars):
            if v == vid:
                return i
        raise ModelError(f"unknown variable id {vid}")

    def tensor(self) -> np.ndarray:
        """Probabilities reshaped to one axis per variable (read-only view)."""
        return self.probs.reshape(self.shape)


@dataclass(frozen=True)
class Dmc:
    """Discrete memoryless channel from a joint input to a joint output.

    ``rows`` has one row per joint input symbol (row-major over ``in_vars``)
    and one column per joint output symbol (row-major over ``out_vars``).
    Every row is a probability vector within ``PMF_TOL``.
    """

    in_vars: VarList
    out_vars: VarList
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "in_vars", _as_varlist(self.in_vars))
        object.__setattr__(self, "out_vars", _as_varlist(self.out_vars))
        in_ids = {v for v, _ in self.in_vars}
        out_ids = {v for v, _ in self.out_vars}
        if in_ids & out_ids:
            raise ModelError(f"in/out variables overlap: {sorted(in_ids & out_ids)}")
        n_in = math.prod(a.size for _, a in self.in_vars)
        n_out = math.prod(a.size for _, a in self.out_vars)
        check_cells(n_in * n_out, "channel")
        arr = np.ascontiguousarray(self.rows, dtype=float).reshape(n_in, n_out)
        if np.any(arr < 0):
            raise ModelError("channel has a negative transition probability")
        sums = arr.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > PMF_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise ModelError(
                f"channel row {i} sums to {float(sums[i])!r}, not 1 within {PMF_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def in_ids(self) -> tuple[VarId, ...]:
        return tuple(v for v, _ in self.in_vars)

    @property
    def out_ids(self) -> tuple[VarId, ...]:
        return tuple(v for v, _ in self.out_vars)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def marginalize(p: JointPMF, keep: Iterable[VarId]) -> JointPMF:
    """Marginal of ``p`` onto the ``keep`` variables (original order kept)."""
    keep_set = frozenset(keep)
    if not keep_set:
        raise ModelError("cannot marginalize onto an empty variable set")
    known = set(p.ids)
    unknown = keep_set - known
    if unknown:
        raise ModelError(f"unknown variable ids {sorted(unknown)}")
    drop_axes = tuple(i for i, (v, _) in enumerate(p.vars) if v not in keep_set)
    if not drop_axes:
        return p
    arr = p.tensor().sum(axis=drop_axes)
    kept_vars = tuple(va for va in p.vars if va[0] in keep_set)
    return JointPMF(kept_vars, arr.ravel())


def _ylogy(flat: np.ndarray) -> np.ndarray:
    """The sum of y log2 y over the last axis (minus the entropy) of entries
    that are exact zeros or above ``ZERO_CUTOFF``; a zero adds exactly 0."""
    return (flat * np.log2(np.maximum(flat, ZERO_CUTOFF))).sum(axis=-1)


def _cut(p: np.ndarray) -> np.ndarray:
    """``p`` with its entries at or below ``ZERO_CUTOFF`` set to exact zeros."""
    return np.where(p > ZERO_CUTOFF, p, 0.0)


@lru_cache(maxsize=256)
def _lattice_walk(ndim: int, group_axes: tuple[int, ...]) -> tuple:
    """The nodes of the lattice walk of ``subset_entropies``, in walk order:
    (depth, axes summed out of the node at depth - 1, group mask).

    Step t = 1, 2, ... drops the groups whose bits, reversed, are the bits
    of t, one group more than step t & (t - 1): the group of t's lowest
    bit, summed out of that step's marginal.  No step between them has
    that depth, so the walk keeps only the path to its current node.
    The last step, which drops every group, is left out.
    """
    covered = [i for g in group_axes for i in range(ndim) if (g >> i) & 1]
    if sorted(covered) != list(range(ndim)):
        raise ModelError(f"groups {group_axes} do not partition {ndim} axes")
    k = len(group_axes)
    drops = [tuple(1 + i for i in range(ndim) if (g >> i) & 1) for g in group_axes]
    t = np.arange(1, (1 << k) - 1)
    dropped, depth = np.zeros_like(t), np.zeros_like(t)
    for b in range(k):
        bit = (t >> b) & 1
        dropped |= bit << (k - 1 - b)
        depth += bit
    last = k - 1 - np.log2(t & -t).astype(int)
    masks = ((1 << k) - 1) & ~dropped
    return tuple(zip(depth.tolist(), [drops[j] for j in last.tolist()], masks.tolist()))


def subset_entropies(tensor: np.ndarray, group_axes: Sequence[int]) -> np.ndarray:
    """H of every union of variable groups, for a stack of joints: one row
    per joint, of length 2^groups and indexed by group mask (0 for the
    empty mask).

    ``tensor`` has a leading stack axis, then one axis per variable; a
    single joint is a stack of one.  ``group_axes[j]`` is the bitmask of
    the variable axes of group j, and the groups partition the axes.  Walks
    the marginal lattice depth first: each child sums one group's axes out
    of its parent (kept as size-1 axes), so every mask is visited once and
    only the path from the root to the current node is alive.  The walk's
    plan depends on the layout alone and is built once per layout.  The
    joint's entries at or below ``ZERO_CUTOFF`` are set to zero first, so
    every marginal entry is a zero or above the cutoff.

    Every operation acts on each row alone, in an order that does not
    depend on the stack's size, so a row's entropies are bit for bit those
    of its joint alone.
    """
    n = tensor.shape[0]
    nodes = _lattice_walk(tensor.ndim - 1, tuple(group_axes))
    out = np.zeros((1 << len(group_axes), n))
    if tensor.min() <= ZERO_CUTOFF:
        tensor = _cut(tensor)
    out[-1] = _ylogy(tensor.reshape(n, -1))
    path = [tensor] + [None] * len(group_axes)
    for depth, drop, mask in nodes:
        arr = path[depth] = path[depth - 1].sum(axis=drop, keepdims=True)
        out[mask] = _ylogy(arr.reshape(n, -1))
    np.negative(out, out=out)
    out[0] = 0.0
    return out.T


def _h(p: JointPMF, vars_: frozenset) -> float:
    """H of the ``vars_`` marginal of ``p`` (0 for no variables)."""
    return -float(_ylogy(_cut(marginalize(p, vars_).probs))) if vars_ else 0.0


def _clamp_nonneg(value: float, what: str) -> float:
    if value < 0.0:
        if value < -DERIVED_TOL:
            raise InternalConsistencyError(f"{what} = {value!r} below -{DERIVED_TOL}")
        return 0.0
    return value


def entropy(p: JointPMF, s: Iterable[VarId], given: Iterable[VarId] = ()) -> float:
    """Conditional entropy H(S | given) in bits.

    ``given`` empty yields the unconditional entropy.  Result is clamped to
    be nonnegative; a violation beyond ``DERIVED_TOL`` raises.
    """
    s_set = frozenset(s)
    g_set = frozenset(given)
    if not s_set:
        raise ModelError("entropy target set must be nonempty")
    if s_set & g_set:
        raise ModelError(f"target and conditioning sets overlap: {sorted(s_set & g_set)}")
    known = set(p.ids)
    unknown = (s_set | g_set) - known
    if unknown:
        raise ModelError(f"unknown variable ids {sorted(unknown)}")
    h = _h(p, s_set | g_set) - _h(p, g_set)
    return _clamp_nonneg(h, "conditional entropy")


def mutual_information(
    p: JointPMF,
    s: Iterable[VarId],
    t: Iterable[VarId],
    given: Iterable[VarId] = (),
) -> float:
    """Conditional mutual information I(S; T | given) in bits.

    Computed as H(S|G) - H(S|T,G); tiny negatives from rounding clamp to 0.
    """
    s_set, t_set, g_set = frozenset(s), frozenset(t), frozenset(given)
    if not s_set or not t_set:
        raise ModelError("mutual information needs nonempty S and T")
    for x, y, names in (
        (s_set, t_set, "S/T"),
        (s_set, g_set, "S/given"),
        (t_set, g_set, "T/given"),
    ):
        if x & y:
            raise ModelError(f"overlapping argument sets {names}: {sorted(x & y)}")
    known = set(p.ids)
    unknown = (s_set | t_set | g_set) - known
    if unknown:
        raise ModelError(f"unknown variable ids {sorted(unknown)}")
    value = (
        _h(p, s_set | g_set) - _h(p, g_set) - _h(p, s_set | t_set | g_set) + _h(p, t_set | g_set)
    )
    return _clamp_nonneg(value, "mutual information")


def statistical_distance(p: JointPMF, q: JointPMF) -> float:
    """Total variation distance SD(P, Q) = (1/2) sum |P - Q|."""
    if p.vars != q.vars:
        raise ModelError("statistical distance needs identical variable lists")
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def compose(input_pmf: JointPMF, channel: Dmc) -> JointPMF:
    """Joint distribution P(in) * P(out | in) over in_vars + out_vars.

    The input's variable list must match ``channel.in_vars`` exactly (same
    ids, same alphabets, same order).  The marginal of the result on the
    input variables reproduces ``input_pmf`` up to float addition.
    """
    if input_pmf.vars != channel.in_vars:
        raise ModelError(
            f"input variables {input_pmf.ids} do not match channel input {channel.in_ids}"
        )
    joint = input_pmf.probs[:, None] * channel.rows
    return JointPMF(channel.in_vars + channel.out_vars, joint.ravel())


def product_pmf(factors: list[JointPMF] | tuple[JointPMF, ...]) -> JointPMF:
    """Independent product of PMFs with pairwise-disjoint variable ids."""
    factors = list(factors)
    if not factors:
        raise ModelError("product of zero factors is undefined")
    seen: set[VarId] = set()
    for f in factors:
        dup = seen & set(f.ids)
        if dup:
            raise ModelError(f"duplicated variable ids across factors: {sorted(dup)}")
        seen |= set(f.ids)
    if len(factors) == 1:
        return factors[0]
    check_cells(math.prod(f.probs.size for f in factors), "product")
    arr = factors[0].probs
    vars_: tuple = factors[0].vars
    for f in factors[1:]:
        arr = np.multiply.outer(arr, f.probs)
        vars_ = vars_ + f.vars
    return JointPMF(vars_, arr.ravel())


# ---------------------------------------------------------------------------
# Small constructors used across the package and its tests
# ---------------------------------------------------------------------------


def uniform_pmf(vars_) -> JointPMF:
    vl = _as_varlist(vars_)
    cells = math.prod(a.size for _, a in vl)
    check_cells(cells, "joint alphabet")
    return JointPMF(vl, np.full(cells, 1.0 / cells))


def bsc_matrix(p: float) -> np.ndarray:
    """Binary symmetric channel transition matrix with crossover ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ModelError(f"crossover probability {p} outside [0, 1]")
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def bec_matrix(eps: float) -> np.ndarray:
    """Binary erasure channel matrix; output symbol 1 is the erasure."""
    if not 0.0 <= eps <= 1.0:
        raise ModelError(f"erasure probability {eps} outside [0, 1]")
    return np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]])


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))
