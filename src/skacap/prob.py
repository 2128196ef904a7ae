"""Exact probability calculus over finite joint distributions.

Dense-tensor primitives everything else builds on: joint PMFs over named
finite variables, discrete memoryless channels as row-stochastic matrices,
marginalization, conditional entropy, mutual information, statistical
distance, channel composition, and independent products.

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
from typing import Iterable, Optional

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

    def alphabet_of(self, vid: VarId) -> Alphabet:
        return self.vars[self.index_of(vid)][1]

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


def _plain_entropy(flat: np.ndarray) -> float:
    mask = flat > ZERO_CUTOFF
    vals = flat[mask]
    return float(-(vals * np.log2(vals)).sum())


class EntropyOracle:
    """Entropies of unions of variable groups of one joint PMF.

    ``groups`` lists sets of variable ids, which may overlap.  ``h(mask)``
    is the entropy of all variables of the groups whose bits are set in
    ``mask``.  Variables outside every group are summed out once, here, and
    results are cached by the mask of the variable axes they cover, so two
    group masks that name the same variables share one computation.
    """

    def __init__(self, p: JointPMF, groups: Iterable[Iterable[VarId]]):
        groups = [frozenset(g) for g in groups]
        used = frozenset().union(*groups)
        kept = [v for v in p.ids if v in used]
        drop = tuple(i for i, v in enumerate(p.ids) if v not in used)
        self._tensor = p.tensor().sum(axis=drop) if drop else p.tensor()
        axis = {v: i for i, v in enumerate(kept)}
        self._group_axes = [sum(1 << axis[v] for v in g) for g in groups]
        self._cache: dict[int, float] = {}

    @classmethod
    def from_tensor(cls, tensor: np.ndarray, group_axes: Iterable[int]) -> "EntropyOracle":
        """Oracle of a joint already laid out with one axis per variable.

        ``group_axes[j]`` is the bitmask of the axes of group j, and every
        axis must lie in some group.  Nothing is validated: this is the
        constructor for callers that build many joints of one known layout,
        and it gives the same entropies as the ``JointPMF`` route with those
        variables and groups.
        """
        oracle = cls.__new__(cls)
        oracle._tensor = tensor
        oracle._group_axes = list(group_axes)
        oracle._cache = {}
        return oracle

    def h(self, mask: int) -> float:
        """H of the variables of the groups in ``mask`` (0 for the empty mask)."""
        axes = 0
        for j, group_axes in enumerate(self._group_axes):
            if (mask >> j) & 1:
                axes |= group_axes
        if axes == 0:
            return 0.0
        hit = self._cache.get(axes)
        if hit is not None:
            return hit
        drop = tuple(i for i in range(self._tensor.ndim) if not (axes >> i) & 1)
        arr = self._tensor.sum(axis=drop) if drop else self._tensor
        h = _plain_entropy(np.asarray(arr).ravel())
        self._cache[axes] = h
        return h

    def h_all(self) -> np.ndarray:
        """``h(mask)`` for every group mask, as one array of length 2^groups.

        Walks the marginal lattice depth first: each child sums one group's
        axes out of its parent (kept as size-1 axes), dropping groups in
        ascending order so every mask is visited once, and at most about
        twice the tensor is alive at a time.  Needs pairwise-disjoint groups.
        """
        k = len(self._group_axes)
        union = 0
        for g in self._group_axes:
            if union & g:
                raise ModelError("h_all needs pairwise-disjoint groups")
            union |= g
        drops = [
            tuple(i for i in range(self._tensor.ndim) if (g >> i) & 1)
            for g in self._group_axes
        ]
        full = (1 << k) - 1
        out = np.zeros(1 << k)
        out[full] = self.h(full)
        # (parent marginal, group to drop from it, parent's mask)
        stack = [(self._tensor, j, full) for j in range(k)]
        while stack:
            parent, j, parent_mask = stack.pop()
            mask = parent_mask & ~(1 << j)
            if not mask:
                continue  # the empty mask keeps entropy 0
            arr = parent.sum(axis=drops[j], keepdims=True)
            out[mask] = _plain_entropy(arr.ravel())
            stack.extend((arr, i, mask) for i in range(j + 1, k))
        return out

    def conditional(self, mask: int, given: int) -> float:
        """H(groups in ``mask`` | groups in ``given``), clamped at 0."""
        return max(self.h(mask | given) - self.h(given), 0.0)


def _variable_oracle(p: JointPMF, *sets: frozenset) -> tuple:
    """A one-group-per-variable oracle of ``p`` and the group masks of ``sets``."""
    masks = (sum(1 << p.index_of(v) for v in s) for s in sets)
    return (EntropyOracle(p, ([v] for v in p.ids)), *masks)


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
    oracle, s_mask, g_mask = _variable_oracle(p, s_set, g_set)
    h = oracle.h(s_mask | g_mask) - oracle.h(g_mask)
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
    oracle, s_mask, t_mask, g_mask = _variable_oracle(p, s_set, t_set, g_set)
    value = (
        oracle.h(s_mask | g_mask)
        - oracle.h(g_mask)
        - oracle.h(s_mask | t_mask | g_mask)
        + oracle.h(t_mask | g_mask)
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


def extend_with_channel(p: JointPMF, channel: Dmc) -> JointPMF:
    """Apply a channel whose inputs are a subset of ``p``'s variables.

    Returns the joint over ``p.vars + channel.out_vars`` under the
    conditional-independence assumption P(out | all) = P(out | in_vars).
    """
    in_ids = channel.in_ids
    for vid, alph in channel.in_vars:
        if vid not in p.ids:
            raise ModelError(f"channel input variable {vid} missing from joint")
        if p.alphabet_of(vid).size != alph.size:
            raise ModelError(f"alphabet mismatch on variable {vid}")
    out_overlap = set(channel.out_ids) & set(p.ids)
    if out_overlap:
        raise ModelError(f"channel output ids already present: {sorted(out_overlap)}")
    ndim = len(p.vars)
    k = len(in_ids)
    pos = [p.index_of(v) for v in in_ids]
    tens = np.moveaxis(p.tensor(), pos, range(ndim - k, ndim))
    lead_shape = tens.shape[: ndim - k]
    flat = tens.reshape(-1, channel.rows.shape[0])
    joint = flat[:, :, None] * channel.rows[None, :, :]
    out_shape = tuple(a.size for _, a in channel.out_vars)
    joint = joint.reshape(lead_shape + tuple(a.size for _, a in channel.in_vars) + out_shape)
    # undo the input-axis move; output axes stay appended at the end
    joint = np.moveaxis(joint, range(ndim - k, ndim), pos)
    return JointPMF(p.vars + channel.out_vars, joint.ravel())


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
