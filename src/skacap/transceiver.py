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
  as one stack.  Every point of a stack is scored, also one scored
  before: the product inputs and joints are formed with a leading stack
  axis and their subset entropies taken in one lattice pass; then
  their CO LPs are checked at once against a pool of earlier optimal
  bases (the polytope depends on (m, A) alone), every row read, as
  arrays, off the first basis that still carries a duality certificate,
  and the first row that none certifies is solved in full before the
  rows after it are read again.  Every step acts on each point alone, so
  a point's value is the one it gets scored by itself after the points
  before it, and the values are those of ``sk_capacity`` on the
  validated emulated source.
* The auxiliary multiaccess upper bound: split each transceiver into an
  input terminal (owning T_j, connected through a noiseless identity
  layer) and an output terminal (owning (T_j, Y_j)); the weighted-entropy
  converse expression of that 2m-terminal model, minimized over
  fractional covers by LP, bounds the key rate at the input it is taken
  at.  By the capacity theorem for independent inputs and noninteractive
  talk, at a product input that expression is the noninteractive
  objective, so it is evaluated once, at the noninteractive search's best
  point, and the bound is relative to that one input.  The 2m-terminal
  model is never built: every term of its converse is a closed form in
  entropies of (T_M, Y_M) (``_converse_terms``), and the cover LP is the
  one of ``omniscience.max_cover``.

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
from .linprog import POOL_SIZE
from .models import (
    CapacityReport,
    PartySpec,
    SourceModel,
    TransceiverModel,
    as_mask,
    require_pair,
)
from .omniscience import (
    CoPool,
    SubsetFamily,
    _pk,
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

#: Joint cells, and pooled bases times CO family members, of the largest
#: stack the NI objective scores in one pass; larger ones go in slices, in order.
STACK_CELLS = 1 << 16


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
    """The constant and the terms g_B of the converse, B over the int64 array ``members``.

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
    b_o, b_i = members & full, members >> m
    s = full & ~(b_o & b_i)
    g = h[-1] - h[s | ((full & ~b_o) << m)] + h[full & ~b_i] - h[full]
    return h[-1] - h[full], g


def _min_lambda(
    lay: _Layout, p_flat: np.ndarray, family: SubsetFamily
) -> tuple[float, dict[int, float]]:
    """The converse at the input ``p_flat``, minimized over the covers of
    the 2m-terminal ``family``, and the minimizing cover."""
    constant, g = _converse_terms(lay, p_flat, family.members)
    value, lam = max_cover(family.spec, g)
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
    spec = PartySpec(t.m, as_mask(a, t.m), 0)
    require_pair(spec.a)
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
    own uniform seed, so it is seeded and scored twice, and when it scores
    best it fills both of the two best starts; the reported values are
    those of this seed set.
    """
    return maximize_product_simplices(lay.dims, objective, cfg, extra_seeds=[lay.uniform])


def _ni_objective(lay: _Layout, spec: PartySpec):
    """The NI objective C_PK(product input) of ``spec`` on stacks of points.

    Every row of a stack is scored, in order, in slices within
    ``STACK_CELLS`` (at least one point each), their CO LPs all on one
    basis pool, whose bases are accepted only with their certificates.
    """
    pool = CoPool(spec)
    step = max(1, STACK_CELLS // max(int(np.prod(lay.joint_shape)),
                                     POOL_SIZE * len(pool.family.members)))

    def objective(stack) -> np.ndarray:
        n = len(stack[0])
        if n > step:
            return np.concatenate([objective([v[i:i + step] for v in stack])
                                   for i in range(0, n, step)])
        return _pk(pool, lay.entropies(stack))[0]

    return objective


def _upper_bound(lay: _Layout, family: SubsetFamily, point) -> CapacityReport:
    """Auxiliary-multiaccess upper bound at the one product input ``point``.

    The converse expression of the 2m-terminal ``family`` is minimized over
    fractional covers by LP at that input.  At a product input it equals
    the noninteractive objective (the capacity theorem for independent
    inputs and noninteractive talk), so over any inputs the NI search
    scored, its maximum is its value at the search's best point: one
    evaluation there suffices.  The witness names that input and the cover.
    """
    value, lam = _min_lambda(lay, lay.inputs(stack_points([point]))[0], family)
    witness = {
        "input": [[float(x) for x in v] for v in point],
        "lambda": lambda_witness(lam),
        "scope": "upper bound relative to one input: the noninteractive search's best point",
    }
    return CapacityReport(value, "upper_bound", "aux-multiaccess-lambda", witness)


def wsk_upper_by_pk(model: SourceModel, a) -> CapacityReport:
    """Upper bound on the wiretap SK capacity by promoting Z to terminal m+1.

    The promoted terminal is compromised, so the PK capacity of the
    (m+1)-terminal model upper-bounds the original wiretap SK capacity.
    """
    if model.eve_var is None:
        raise ModelError("model has no eavesdropper variable to promote")
    a_mask = as_mask(a, model.m + 1)
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
    input, which is the noninteractive objective there.  The upper bound is
    the converse at the search's best point, which by the capacity theorem
    equals the noninteractive objective there.  The search seeds the
    uniform input, so the reported ordering lower <= noninteractive <=
    upper holds by construction up to round-off.  Raises
    InternalConsistencyError if the computed numbers violate it.  The
    converse's 2m-terminal family is enumerated before the search, so a
    model past its guard is refused before any search work.
    """
    a_mask = as_mask(a, t.m)
    spec = PartySpec(t.m, a_mask, 0)
    require_pair(spec.a)
    family = constraint_family(PartySpec(2 * t.m, a_mask, 0))
    lay = _Layout(t)
    objective = _ni_objective(lay, spec)
    search = _search(lay, objective, cfg)
    ni = _ni_report(search)
    upper = _upper_bound(lay, family, search.point)
    # the first seed again, now read off the pool the search left: a
    # certified optimum, so the seed's value up to round-off
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
