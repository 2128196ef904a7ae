"""Transceiver channel-model constructions and capacity bounds.

Three routes to the key capacity of a channel where terminal j controls
input T_j and observes output Y_j:

* The source-emulation lower bound: run the channel n times on
  independent inputs with no interleaved discussion, then run a
  source-model protocol on the realized IID source.  With the auxiliary V
  constant, its value is the noninteractive objective below at that
  product input; ``sk_bounds`` reports it at the uniform input.
* The noninteractive SK capacity: with independent inputs and one public
  message per terminal after all transmissions, the capacity equals
  max over product input distributions of the emulated source's SK
  capacity.  Realized by a multistart search over per-terminal simplices.
  The objective scores stacks of points: the search passes its seed set,
  each line-search scan, and each golden step with the steps after it
  as one stack.  A memo per search skips the points already scored.
  The rest have their product inputs and joints formed with a leading
  stack axis and their subset entropies taken in one lattice pass; then
  their CO LPs are checked at once against a pool of earlier optimal
  bases (the polytope depends on (m, A) alone), every row read, as
  arrays, off the first basis that still carries a duality certificate,
  and the first row that none certifies is solved in full before the
  rows after it are read again.  Every step acts on each point alone, so
  a point's value is the one it gets scored by itself after the points
  before it, and the values are those of ``sk_capacity`` on the
  validated emulated source.
* Auxiliary multiaccess upper bounds: split each transceiver into an input
  terminal (owning T_j, connected through a noiseless identity layer) and
  an output terminal (owning (T_j, Y_j)); the weighted-entropy converse
  expression of that 2m-terminal model, minimized over fractional covers
  by LP and maximized over a family of product inputs (the uniform input
  and the noninteractive search's endpoints), gives an upper bound
  relative to that family.  The 2m-terminal model is never
  built: every term of its converse is a closed form in entropies of
  (T_M, Y_M) (``_converse_terms``), and the cover LP is the one of
  ``omniscience.max_cover``.

All three read the joint P(T_M) W(Y_M | T_M) off one array layout per
model (``_Layout``): the input (at independent inputs, the outer product
of the per-terminal inputs, permuted to the channel's input order) times
the channel rows.  ``sk_bounds`` is the one route to all three, on one
search; ``noninteractive_sk_capacity`` runs that search alone.

A wiretap reduction is included: promoting Eve's variable to an extra
compromised terminal turns any PK-capacity computation into an upper bound
on the wiretap SK capacity.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalConsistencyError, ModelError
from .models import (
    CapacityReport,
    PartySpec,
    SourceModel,
    TransceiverModel,
    as_mask,
)
from .omniscience import (
    _pk,
    _require_pair,
    co_basis_hint,
    constraint_family,
    lambda_witness,
    max_cover,
    pk_capacity,
)
from .optimize import (
    AscentResult,
    InputOptimizerConfig,
    maximize_product_simplices,
    stack_points,
)
from .prob import subset_entropies

#: Joint cells of the largest stack of points the NI objective scores in
#: one pass; a larger stack is scored in slices, in order.
STACK_CELLS = 1 << 16

#: A later input family member replaces the upper bound's best only when
#: its value is larger by more than this, so round-off picks no member.
TIE_TOL = 1e-12


class _Layout:
    """Array layout of the emulated source P(T_M) W(Y_M | T_M) of one model,
    for stacks of product inputs.

    ``dims[j]`` is the size of terminal j's joint input alphabet; a point is
    one probability vector per terminal, row-major over its T group (the
    uniform input is ``uniform``), and a stack of points is one
    (points, dims[j]) array per terminal.  The input
    transposition, the joint shape, Eve's axes and the axes of each
    terminal's T_j (``t_axes[j]``), Y_j (``y_axes[j]``) and X_j
    (``group_axes[j]``) are fixed per model and computed here once, so no
    ``JointPMF`` is validated per point.  Every array carries a leading
    stack axis.
    """

    def __init__(self, t: TransceiverModel):
        ch = t.channel
        sizes = dict((vid, a.size) for vid, a in ch.in_vars)
        group_order = [v for g in t.input_vars for v in g]
        ids = ch.in_ids + ch.out_ids
        axis = {v: i for i, v in enumerate(v for v in ids if v != t.eve_var)}
        self.rows = ch.rows
        self.dims = [int(np.prod([sizes[v] for v in g])) for g in t.input_vars]
        self.uniform = [np.full(k, 1.0 / k) for k in self.dims]
        self.group_shape = tuple(sizes[v] for v in group_order)
        to_channel = [0] + [1 + group_order.index(v) for v in ch.in_ids]
        self.to_channel = None if to_channel == sorted(to_channel) else tuple(to_channel)
        self.joint_shape = tuple(a.size for _, a in ch.in_vars + ch.out_vars)
        self.eve_axes = tuple(1 + i for i, v in enumerate(ids) if v == t.eve_var)
        self.t_axes = [sum(1 << axis[v] for v in g) for g in t.input_vars]
        self.y_axes = [sum(1 << axis[v] for v in g) for g in t.output_vars]
        self.group_axes = [ta | ya for ta, ya in zip(self.t_axes, self.y_axes)]

    def inputs(self, stack) -> np.ndarray:
        """The product inputs of a stack of points, one row each, flat in
        channel input order."""
        n = len(stack[0])
        p_in = stack[0]
        for v in stack[1:]:
            p_in = (p_in[:, :, None] * v[:, None, :]).reshape(n, -1)
        if self.to_channel is None:
            return p_in
        return p_in.reshape((n,) + self.group_shape).transpose(self.to_channel).reshape(n, -1)

    def joint(self, p_in: np.ndarray) -> np.ndarray:
        """P(T_M) W(Y_M | T_M) with Eve's output summed out, one axis per
        variable after the stack axis; ``p_in`` holds one input per row,
        flat in channel input order."""
        joint = (p_in[:, :, None] * self.rows).reshape((len(p_in),) + self.joint_shape)
        if self.eve_axes:
            joint = joint.sum(axis=self.eve_axes)
        return joint

    def entropies(self, stack) -> np.ndarray:
        """Subset entropies of the emulated sources of a stack of points, one
        row per point and one group per terminal X_j.

        Gives what ``emulated_to_source`` at each product input gives, by
        the same floating-point operations.
        """
        return subset_entropies(self.joint(self.inputs(stack)), self.group_axes)


# ---------------------------------------------------------------------------
# Converse expression of the auxiliary multiaccess model
# ---------------------------------------------------------------------------


def _converse_terms(lay: _Layout, p_flat: np.ndarray, members) -> tuple[float, np.ndarray]:
    """The constant and the terms g_B of the converse, B over ``members``.

    The auxiliary model has 2m terminals: output terminal j owns
    X_j = (T_j, Y_j) and input terminal m + j owns X_{m+j} = T_j, so a set
    B of them is B_o (bits 0..m-1) plus B_i (bits m..2m-1), and
    X_{B^c} = (T_S, Y_{M - B_o}) with S = M - (B_o & B_i).  X_B and X_{B^c}
    together are (T_M, Y_M), and the input terminals M' inside and outside
    B own T_{B_i} and T_{M - B_i}, so each term is

        g_B = H(X_B | X_{B^c}) - H(X_{B & M'} | X_{B^c & M'})
            = H(T_M Y_M) - H(T_S Y_{M - B_o}) - H(T_M) + H(T_{M - B_i}),

    and the constant H(X_M) - H(X_{M'}) is H(T_M Y_M) - H(T_M).  All are
    entropies of the transceiver joint alone, read off one lattice pass
    with bit j for T_j and bit m + j for Y_j.
    """
    m = len(lay.dims)
    full = (1 << m) - 1
    h = subset_entropies(lay.joint(p_flat[None]), lay.t_axes + lay.y_axes)[0]
    b = np.asarray(members, dtype=np.int64)
    b_o, b_i = b & full, b >> m
    s = full & ~(b_o & b_i)
    g = h[-1] - h[s | ((full & ~b_o) << m)] + h[full & ~b_i] - h[full]
    return h[-1] - h[full], g


def _min_lambda(
    lay: _Layout, p_flat: np.ndarray, a_mask: int
) -> tuple[float, dict[int, float]]:
    spec = PartySpec(2 * len(lay.dims), a_mask, 0)
    constant, g = _converse_terms(lay, p_flat, constraint_family(spec).members)
    value, lam = max_cover(spec, g)
    return constant - value, lam


# ---------------------------------------------------------------------------
# Noninteractive capacity and the bounds sweep
# ---------------------------------------------------------------------------


def noninteractive_sk_capacity(
    t: TransceiverModel, a, cfg: InputOptimizerConfig
) -> CapacityReport:
    """Noninteractive SK capacity: max over product inputs of the emulated
    source's SK capacity.

    Deterministic given the seed, and the very search ``sk_bounds`` runs.
    When the best ascent fails to converge within the sweep cap the value
    is still reported, flagged as a lower bound instead of exact.
    """
    spec = PartySpec(t.m, as_mask(a), 0)
    _require_pair(spec)
    lay = _Layout(t)
    return _ni_report(_search(lay, _ni_objective(lay, spec), cfg))


def _ni_report(res: AscentResult) -> CapacityReport:
    """Noninteractive report of a search: exact when the best ascent converged."""
    kind = "exact" if res.converged else "lower_bound"
    witness = {
        "input": [[float(x) for x in v] for v in res.point],
        "evaluations": res.evaluations,
        "converged": res.converged,
    }
    return CapacityReport(res.value, kind, "noninteractive-input-search", witness)


def _search(lay: _Layout, objective, cfg) -> AscentResult:
    """The NI input search of ``objective`` on ``lay``.

    The uniform input goes in as an extra seed on top of the optimizer's
    own uniform seed, so it is seeded twice and scored once (the second
    seed is a memo hit), and when it scores best it fills both of the two
    best starts; the reported values are those of this seed set.
    """
    return maximize_product_simplices(lay.dims, objective, cfg, extra_seeds=[lay.uniform])


def _ni_objective(lay: _Layout, spec: PartySpec):
    """The NI objective C_PK(product input) of ``spec`` on stacks of points.

    A memo keyed by the points' bytes keeps every value; only the unseen
    rows of a stack are scored, in order, in slices of at most
    ``STACK_CELLS`` joint cells (at least one point each), their CO LPs
    all on one basis hint, whose bases are accepted only with their
    certificates.
    """
    hint = co_basis_hint(spec)
    step = max(1, STACK_CELLS // int(np.prod(lay.joint_shape)))
    memo: dict[bytes, float] = {}
    cuts = [(end - k, end) for k, end in zip(lay.dims, np.cumsum(lay.dims).tolist())]

    def score(stack) -> np.ndarray:
        n = len(stack[0])
        if n > step:
            return np.concatenate([score([v[i:i + step] for v in stack])
                                   for i in range(0, n, step)])
        return _pk(spec, lay.entropies(stack), hint)[0]

    def objective(stack) -> np.ndarray:
        flat = np.concatenate(stack, axis=1)
        keys = [row.tobytes() for row in flat]
        unseen = dict.fromkeys(key for key in keys if key not in memo)
        if unseen:
            rows = flat[[keys.index(key) for key in unseen]]
            memo.update(zip(unseen, score([rows[:, i:j] for i, j in cuts]).tolist()))
        return np.array([memo[key] for key in keys])

    return objective


def _upper_bound(lay: _Layout, a_mask: int, search: AscentResult) -> CapacityReport:
    """Auxiliary-multiaccess upper bound relative to a declared input family.

    The family is the uniform input and the endpoints of the NI search
    ``search``, each evaluated once (exact repeats are skipped); for each
    member the converse expression is minimized over fractional covers by
    LP, and the maximum over the family is reported.  A later member
    replaces an earlier one only when it is larger by more than
    ``TIE_TOL``, so members tied up to round-off report the first.  The
    family is recorded in the witness: the value upper-bounds the
    noninteractive capacity restricted to that family, per the converse
    of the auxiliary construction.
    """
    family = [lay.uniform] + [point for _, point in search.finals] + [search.point]
    best_val = -np.inf
    best_lam: dict[int, float] = {}
    best_point = None
    recorded = []
    seen = set()
    for vecs in family:
        key = tuple(v.tobytes() for v in vecs)
        if key in seen:
            continue
        seen.add(key)
        val, lam = _min_lambda(lay, lay.inputs(stack_points([vecs]))[0], a_mask)
        recorded.append({"input": [[float(x) for x in v] for v in vecs], "value": val})
        if val > best_val + TIE_TOL:
            best_val, best_lam, best_point = val, lam, vecs
    witness = {
        "family": recorded,
        "argmax_input": [[float(x) for x in v] for v in best_point],
        "lambda": lambda_witness(best_lam),
        "scope": "upper bound relative to the declared input family",
    }
    return CapacityReport(best_val, "upper_bound", "aux-multiaccess-lambda", witness)


def wsk_upper_by_pk(model: SourceModel, a) -> CapacityReport:
    """Upper bound on the wiretap SK capacity by promoting Z to terminal m+1.

    The promoted terminal is compromised, so the PK capacity of the
    (m+1)-terminal model upper-bounds the original wiretap SK capacity.
    """
    if model.eve_var is None:
        raise ModelError("model has no eavesdropper variable to promote")
    a_mask = as_mask(a)
    promoted = SourceModel(
        pmf=model.pmf,
        terminal_vars=model.terminal_vars + (frozenset({model.eve_var}),),
        eve_var=None,
    )
    spec = PartySpec(model.m + 1, a_mask, 1 << model.m)
    inner = pk_capacity(promoted, spec)
    witness = dict(inner.witness)
    witness["promoted_terminal"] = model.m + 1
    return CapacityReport(inner.value, "upper_bound", "wsk-pk-promotion", witness)


def sk_bounds(t: TransceiverModel, a, cfg: InputOptimizerConfig) -> dict:
    """Lower bound, noninteractive value, and surrogate upper bound.

    The lower bound is source emulation with V constant at the uniform
    input, which is the noninteractive objective there.  The search seeds
    the uniform input and the upper bound's family holds it, so the
    reported ordering lower <= noninteractive <= upper holds by
    construction.  Raises InternalConsistencyError if the computed numbers
    violate it.
    """
    a_mask = as_mask(a)
    spec = PartySpec(t.m, a_mask, 0)
    _require_pair(spec)
    lay = _Layout(t)
    objective = _ni_objective(lay, spec)
    search = _search(lay, objective, cfg)
    ni = _ni_report(search)
    upper = _upper_bound(lay, a_mask, search)
    # a memo hit: uniform is the first seed row, scored on an empty hint
    value = float(objective(stack_points([lay.uniform]))[0])
    emulation = {
        "v_alphabet": 1,
        "p_v": [1.0],
        "conditionals": [[[float(x) for x in v]] for v in lay.uniform],
    }
    lower = CapacityReport(
        value, "lower_bound", "source-emulation", {"emulation": emulation, "emulated_pk": value}
    )
    if value > ni.value + 1e-7 or ni.value > upper.value + 1e-7:
        raise InternalConsistencyError(
            f"bound ordering violated: lower {value}, "
            f"noninteractive {ni.value}, upper {upper.value}"
        )
    return {"lower_bounds": [lower], "noninteractive": ni, "upper_bound": upper}
