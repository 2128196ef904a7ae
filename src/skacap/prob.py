"""Exact probability calculus over finite joint distributions.

Dense-tensor primitives everything else builds on: joint PMFs over named
finite variables, discrete memoryless channels as row-stochastic matrices,
marginalization, conditional entropy, mutual information, statistical
distance, channel composition, and independent products.

Every capacity in the package is a function of one array:
``subset_entropies`` gives H of every union of variable groups of one
joint (one group per terminal), indexed by group mask, for a whole stack
of joints.  It sums the leading groups out of the joint one mask at a
time and gets every mask of the trailing groups from one subset-sum
(zeta) transform, in chunks of at most ``LATTICE_BLOCK`` cells per joint.
``entropy`` and ``mutual_information`` take their few entropies from
``marginalize``.

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
from typing import Iterable, NamedTuple, Optional, Sequence

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

#: Most zeta-block cells per joint that ``subset_entropies`` works on at once.
LATTICE_BLOCK = 1 << 13


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
    finite, nonnegative and sum to one within ``PMF_TOL``.
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
        if not np.isfinite(arr).all():
            raise ModelError("pmf has a non-finite entry")
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
    Every row is a probability vector within ``PMF_TOL``, every entry finite.
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
        if not np.isfinite(arr).all():
            raise ModelError("channel has a non-finite entry")
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


class _Lattice(NamedTuple):
    """The plan of ``subset_entropies`` for one layout, built once per layout.

    ``order`` permutes the variable axes (after the stack axis) so that each
    group's axes are adjacent and the groups come in order; it is None when
    they already are.  ``sizes[j]`` is the number of cells of group j.  The
    first ``lead`` groups are the leading ones.  Trailing group g gets an
    axis of ``ext[g] = sizes[g] + 1`` slots in a zeta block of ``block``
    cells, the last slot holding the sum over the others.  Cell c of the
    block of row r of a stack has bin ``bins[r * block + c]``: r times
    2^trailing groups, plus bit g when c keeps group g.  A chunk holds
    ``chunk`` leading cells of one node, each with its zeta block.
    ``nodes`` lists, per leading mask, the axes summed out of the joint
    and the kept mask.
    On a chunk viewed as (rows, leading cells) + ``ext``, ``fill`` indexes
    the kept slots and each of ``steps`` is a zeta step: (axis, index of
    the slots summed, index of the slots written).
    """

    order: Optional[tuple[int, ...]]
    sizes: tuple[int, ...]
    lead: int
    ext: tuple[int, ...]
    block: int
    bins: np.ndarray
    chunk: int
    nodes: tuple
    fill: tuple
    steps: tuple


@lru_cache(maxsize=256)
def _lattice(shape: tuple[int, ...], group_axes: tuple[int, ...]) -> _Lattice:
    """The plan of ``subset_entropies`` for joints of variable axes ``shape``.

    The trailing groups are the longest run of last groups whose zeta block
    fits in ``LATTICE_BLOCK`` cells.  The zeta steps run from the last
    trailing group to the first: step g writes the summed-out slot of group
    g for every cell whose earlier groups are all kept, so each block cell
    is written once, and every step's innermost axis is the contiguous run
    of the groups after g.  With leading groups a chunk holds more than
    half of ``LATTICE_BLOCK`` cells, so a stack goes one joint at a time.
    """
    ndim = len(shape)
    axes = [[i for i in range(ndim) if (g >> i) & 1] for g in group_axes]
    order = tuple(i for a in axes for i in a)
    if sorted(order) != list(range(ndim)):
        raise ModelError(f"groups {group_axes} do not partition {ndim} axes")
    sizes = tuple(math.prod(shape[i] for i in a) for a in axes)
    lead, block = len(sizes), 1
    while lead and block * (sizes[lead - 1] + 1) <= LATTICE_BLOCK:
        lead -= 1
        block *= sizes[lead] + 1
    trail = sizes[lead:]
    ext = tuple(s + 1 for s in trail)
    bins = np.zeros(ext, dtype=np.intp)
    kept = (slice(None), slice(None)) + tuple(slice(0, s) for s in trail)
    steps = []
    for g in reversed(range(len(trail))):
        bins += ((np.arange(ext[g]) < trail[g]) << g).reshape((-1,) + (1,) * (len(trail) - 1 - g))
        steps.append((2 + g, kept[:3 + g], kept[:2 + g] + (trail[g],)))
    chunk = max(1, min(LATTICE_BLOCK // block, math.prod(sizes[:lead])))
    rows = max(1, LATTICE_BLOCK // (chunk * block))  # the most rows a chunk of work holds
    bins = (np.arange(rows)[:, None] * (1 << len(trail)) + bins.ravel()).ravel()
    bins.setflags(write=False)
    full = (1 << lead) - 1
    return _Lattice(
        order=None if order == tuple(range(ndim)) else (0,) + tuple(1 + i for i in order),
        sizes=sizes,
        lead=lead,
        ext=ext,
        block=block,
        bins=bins,
        chunk=chunk,
        nodes=tuple(
            (tuple(1 + i for i in range(lead) if (t >> i) & 1), full & ~t) for t in range(full + 1)
        ),
        fill=kept,
        steps=tuple(steps),
    )


def _chunk_views(buf: np.ndarray, n: int, q: int, plan: _Lattice) -> tuple:
    """Views of ``buf`` for a chunk of ``q`` leading cells of ``n`` joints:
    the kept slots to fill, the zeta steps (axis, slots summed, slots
    written), then the block and the y log y scratch, flat."""
    x, y = buf[0, :n * q * plan.block], buf[1, :n * q * plan.block]
    v = x.reshape((n, q) + plan.ext)
    return v[plan.fill], [(axis, v[src], v[dst]) for axis, src, dst in plan.steps], x, y


def subset_entropies(tensor: np.ndarray, group_axes: Sequence[int]) -> np.ndarray:
    """H of every union of variable groups, for a stack of joints: one row
    per joint, of length 2^groups and indexed by group mask (0 for the
    empty mask).

    ``tensor`` has a leading stack axis, then one axis per variable; a
    single joint is a stack of one.  ``group_axes[j]`` is the bitmask of
    the variable axes of group j, and the groups partition the axes.

    The groups are split into leading and trailing ones (``_lattice``).
    Each leading mask is one node: the joint with the other leading groups
    summed out.  All masks of a node come from one subset-sum ("zeta")
    transform over the trailing groups (Yates): each trailing group is one
    axis with one extra slot for the sum over the group, so a block cell
    is the marginal cell of one trailing mask.  Then one y log y pass runs
    over the block, and one weighted ``bincount`` adds each cell to the bin
    of its trailing mask.  A chunk of work holds at most ``LATTICE_BLOCK``
    block cells, or one block, over a run of the node's leading cells and
    of the stack's rows, so the working set stays bounded at every size.
    The joint's entries at or below ``ZERO_CUTOFF`` are set to zero first,
    so every marginal entry is a zero or above the cutoff.

    Every operation acts on each row alone, in an order that does not
    depend on the stack's size, so a row's entropies are bit for bit those
    of its joint alone.
    """
    n = tensor.shape[0]
    plan = _lattice(tensor.shape[1:], tuple(group_axes))
    if tensor.min() <= ZERO_CUTOFF:
        tensor = _cut(tensor)
    if plan.order is not None:
        tensor = tensor.transpose(plan.order)
    tensor = tensor.reshape((n,) + plan.sizes)
    trail = plan.sizes[plan.lead:]
    block, chunk, step = plan.block, plan.chunk, 1 << plan.lead
    rows = min(n, max(1, LATTICE_BLOCK // (chunk * block)))
    nb = 1 << len(trail)
    buf = np.empty((2, rows * chunk * block))
    views = {}
    out = np.empty((n, 1 << len(plan.sizes)))
    for r in range(0, n, rows):
        stack = tensor[r:r + rows]
        m = len(stack)
        for summed, kept in plan.nodes:
            node = stack.sum(axis=summed, keepdims=True) if summed else stack
            node = node.reshape((m, -1) + trail)
            acc = None
            for a in range(0, node.shape[1], chunk):
                q = min(chunk, node.shape[1] - a)
                if (m, q) not in views:
                    views[m, q] = _chunk_views(buf, m, q, plan)
                fill, steps, x, y = views[m, q]
                fill[...] = node[:, a:a + q]
                for axis, src, dst in steps:
                    np.add.reduce(src, axis=axis, out=dst)
                np.maximum(x, ZERO_CUTOFF, out=y)
                np.log2(y, out=y)
                np.multiply(x, y, out=y)
                if q > 1:
                    y = np.add.reduce(y.reshape(m, q, block), axis=1, out=x[:m * block].reshape(m, block))
                part = np.bincount(plan.bins[:m * block], weights=y.ravel(), minlength=m * nb)
                if acc is None:
                    acc = part
                else:
                    acc += part
            np.negative(acc.reshape(m, nb), out=out[r:r + m, kept::step])
    out[:, 0] = 0.0
    return out


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
