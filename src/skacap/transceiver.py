"""Transceiver channel-model constructions and capacity bounds.

Three routes to the key capacity of a channel where terminal j controls
input T_j and observes output Y_j:

* Source-emulation lower bounds: fix a publicly known auxiliary variable V
  with conditionally independent inputs, run the channel n times with no
  interleaved discussion, and run a source-model protocol on the realized
  IID source.  The emulated model gains terminal 0 (owning V), which is
  treated as compromised.  With V constant it is the noninteractive
  objective below at the product input, and ``sk_bounds`` reads it there.
* The noninteractive SK capacity: with independent inputs and one public
  message per terminal after all transmissions, the capacity equals
  max over product input distributions of the emulated source's SK
  capacity.  Realized by a multistart search over per-terminal simplices.
  The objective scores stacks of points: the search passes its seed set,
  each line-search scan and each golden section's first pair as one
  stack, and every later golden step as a stack of one.  A stack's
  product inputs and joints are formed with a leading stack axis and its
  subset entropies come off one lattice pass; then the points' CO LPs are
  taken in order, each read off the previous point's optimal basis when
  that basis still carries a duality certificate (its polytope depends on
  (m, A) alone) and solved in full otherwise.  Every step acts on each
  point alone, so a point's value is the one it gets scored by itself
  after the points before it, and the values are those of
  ``sk_capacity`` on the validated emulated source.
* Auxiliary multiaccess upper bounds: split each transceiver into an input
  terminal (owning T_j, connected through a noiseless identity layer) and
  an output terminal (owning (T_j, Y_j)); the weighted-entropy converse
  expression of that 2m-terminal model, minimized over fractional covers
  by LP and maximized over a declared family of input distributions, gives
  an upper bound relative to that family.  The 2m-terminal model is never
  built: every term of its converse is a closed form in entropies of
  (T_M, Y_M) (``_converse_terms``), and the cover LP is the one of
  ``omniscience.max_cover``.

All three read the joint P(T_M) W(Y_M | T_M) off one array layout per
model (``_Layout``): the input (at independent inputs, the outer product
of the per-terminal inputs, permuted to the channel's input order) times
the channel rows.

A wiretap reduction is included: promoting Eve's variable to an extra
compromised terminal turns any PK-capacity computation into an upper bound
on the wiretap SK capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    incidence,
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
from .prob import Dmc, JointPMF, VarId, subset_entropies

#: Tolerance for Lambda(A) membership checks.
LAMBDA_TOL = 1e-8

#: Joint cells of the largest stack of points the NI objective scores in
#: one pass; a larger stack is scored in slices, in order.
STACK_CELLS = 1 << 16

#: A later input family member replaces the upper bound's best only when
#: its value is larger by more than this, so round-off picks no member.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class EmulationSpec:
    """Auxiliary-variable emulation: P(V) and per-terminal P(T_j | V).

    All conditionals share V's alphabet; V = constant (size-1 alphabet)
    recovers plain product-input emulation.
    """

    p_v: JointPMF
    conditionals: tuple[Dmc, ...]

    def __post_init__(self):
        if len(self.p_v.vars) != 1:
            raise ModelError("p_v must be a distribution over the single variable V")
        v_var = self.p_v.vars[0]
        for j, ch in enumerate(self.conditionals):
            if ch.in_vars != (v_var,):
                raise ModelError(
                    f"conditional {j} must take V (variable {v_var[0]}) as its input"
                )

    @property
    def v_id(self) -> VarId:
        return self.p_v.vars[0][0]


class _Layout:
    """Array layout of the emulated source P(T_M) W(Y_M | T_M) of one model,
    for stacks of product inputs.

    ``dims[j]`` is the size of terminal j's joint input alphabet; a point is
    one probability vector per terminal, row-major over its T group, and a
    stack of points is one (points, dims[j]) array per terminal.  The input
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


def emulate(t: TransceiverModel, spec: EmulationSpec) -> SourceModel:
    """Source model over {0} + M realized by V-correlated source emulation.

    Terminal 0 owns V; terminal j owns (T_j, Y_j).  The joint factorizes as
    P(V) * prod_j P(T_j | V) * P(Y_M | T_M).
    """
    if len(spec.conditionals) != t.m:
        raise ModelError(f"need {t.m} conditionals, got {len(spec.conditionals)}")
    sizes = dict((vid, a.size) for vid, a in t.channel.in_vars)
    for j, ch in enumerate(spec.conditionals):
        want = tuple((v, sizes[v]) for v in t.input_vars[j])
        if tuple((v, a.size) for v, a in ch.out_vars) != want:
            raise ModelError(
                f"conditional {j} outputs {ch.out_ids}, expected T group {t.input_vars[j]}"
            )
    p_t = spec.p_v.probs[:, None] * _Layout(t).inputs([ch.rows for ch in spec.conditionals])
    joint = JointPMF(
        spec.p_v.vars + t.channel.in_vars + t.channel.out_vars,
        (p_t[:, :, None] * t.channel.rows).ravel(),
    )
    groups = (frozenset({spec.v_id}),) + t.terminal_vars()
    return SourceModel(pmf=joint, terminal_vars=groups, eve_var=t.eve_var)


def constant_emulation(t: TransceiverModel, inputs: Sequence[np.ndarray]) -> EmulationSpec:
    """V = constant emulation whose conditionals realize the given product input.

    ``inputs[j]`` is a distribution over terminal j's joint T alphabet.
    """
    used = set(t.channel.in_ids) | set(t.channel.out_ids)
    v_id = max(used) + 1
    p_v = JointPMF(((v_id, 1),), np.ones(1))
    conds = []
    for j in range(t.m):
        out_vars = tuple(
            (vid, t.channel.in_vars[t.channel.in_ids.index(vid)][1])
            for vid in t.input_vars[j]
        )
        row = np.asarray(inputs[j], dtype=float).ravel()[None, :]
        conds.append(Dmc(((v_id, 1),), out_vars, row))
    return EmulationSpec(p_v=p_v, conditionals=tuple(conds))


def _shift_spec(spec: PartySpec) -> PartySpec:
    """Shift a base-model spec by one terminal and compromise terminal 0."""
    return PartySpec(spec.m + 1, spec.a << 1, (spec.d << 1) | 1)


def lower_bound_pk(
    t: TransceiverModel, spec: PartySpec, e: EmulationSpec
) -> CapacityReport:
    """Source-emulation lower bound on the transceiver PK capacity.

    Computes the PK capacity of the emulated source with D' = D + {0} and
    reports it as a lower bound for the channel model.
    """
    if spec.m != t.m:
        raise ModelError(f"spec has {spec.m} terminals, model has {t.m}")
    value = pk_capacity(emulate(t, e), _shift_spec(spec)).value
    return _emulation_report(e.p_v.probs, [ch.rows for ch in e.conditionals], value)


def _emulation_report(p_v, conditionals, value: float) -> CapacityReport:
    """Lower-bound report of an emulation with P(V) and P(T_j | V) matrices."""
    witness = {
        "emulation": {
            "v_alphabet": len(p_v),
            "p_v": [float(x) for x in p_v],
            "conditionals": [[[float(x) for x in row] for row in c] for c in conditionals],
        },
        "emulated_pk": value,
    }
    return CapacityReport(value, "lower_bound", "source-emulation", witness)


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


def _input_probs(t: TransceiverModel, p_in: JointPMF) -> np.ndarray:
    if p_in.vars != t.channel.in_vars:
        raise ModelError("p_in must be declared over the channel input variables")
    return p_in.probs


def lambda_upper_expression(
    t: TransceiverModel, p_in: JointPMF, lam: dict[int, float]
) -> float:
    """Single-letter converse value E for a given fractional cover lambda.

    E = [H(X_M) - sum_B lam_B H(X_B | X_{B^c})]
        - [H(X_{M'}) - sum_B lam_B H(X_{B & M'} | X_{B^c & M'})],

    with B over the 2m auxiliary terminals (see ``_converse_terms``) and M'
    the input terminals.  ``lam`` must lie in Lambda(A): weights in [0, 1]
    whose sum over sets containing j is 1 for every auxiliary terminal j.
    """
    p_flat = _input_probs(t, p_in)
    n = 2 * t.m
    for b, w in lam.items():
        if w < -LAMBDA_TOL or w > 1 + LAMBDA_TOL:
            raise ModelError(f"lambda weight {w!r} outside [0, 1]")
        if b >> n:
            raise ModelError(f"lambda set {b:#b} names terminals outside the model")
    weights = np.array(list(lam.values()))
    coverage = weights @ incidence(list(lam), range(n))
    for j, c in enumerate(coverage):
        if abs(c - 1.0) > LAMBDA_TOL:
            raise ModelError(f"infeasible lambda: coverage of terminal {j + 1} is {c!r}")
    constant, g = _converse_terms(_Layout(t), p_flat, list(lam))
    return constant - float(weights @ g)


def min_lambda_upper_expression(
    t: TransceiverModel, p_in: JointPMF
) -> tuple[float, dict[int, float]]:
    """Minimize the converse expression over Lambda(A = all outputs) by LP."""
    return _min_lambda(_Layout(t), _input_probs(t, p_in), (1 << t.m) - 1)


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
    t: TransceiverModel,
    a,
    cfg: InputOptimizerConfig,
    extra_inputs: Sequence[Sequence[np.ndarray]] = (),
) -> CapacityReport:
    """Noninteractive SK capacity: max over product inputs of the emulated
    source's SK capacity.

    Deterministic given the seed.  When the best ascent fails to converge
    within the sweep cap the value is still reported, flagged as a lower
    bound instead of exact.
    """
    a_mask = as_mask(a)
    _require_pair(PartySpec(t.m, a_mask, 0))
    return _ni_report(_ni_search(t, a_mask, cfg, extra_inputs))


def _ni_report(res: AscentResult) -> CapacityReport:
    """Noninteractive report of a search: exact when the best ascent converged."""
    kind = "exact" if res.converged else "lower_bound"
    witness = {
        "input": [[float(x) for x in v] for v in res.point],
        "evaluations": res.evaluations,
        "converged": res.converged,
    }
    return CapacityReport(res.value, kind, "noninteractive-input-search", witness)


def _ni_search(
    t: TransceiverModel, a_mask: int, cfg, extra_inputs=()
) -> AscentResult:
    lay = _Layout(t)
    for vecs in extra_inputs:
        got = [int(np.size(v)) for v in vecs]
        if got != lay.dims:
            raise ModelError(f"extra input has group sizes {got}, expected {lay.dims}")
    return maximize_product_simplices(
        lay.dims, _ni_objective(lay, PartySpec(t.m, a_mask, 0)), cfg, extra_seeds=extra_inputs
    )


def _ni_objective(lay: _Layout, spec: PartySpec):
    """The NI objective C_PK(product input) of ``spec`` on stacks of points.

    Each evaluation's CO LP starts from the optimal basis of the last one,
    which is accepted only with its certificate.  A stack is scored in
    slices of at most ``STACK_CELLS`` joint cells (at least one point
    each), in order, all sharing that basis.
    """
    hint = co_basis_hint(spec)
    step = max(1, STACK_CELLS // int(np.prod(lay.joint_shape)))

    def objective(stack) -> np.ndarray:
        n = len(stack[0])
        if n > step:
            return np.concatenate([objective([v[i:i + step] for v in stack])
                                   for i in range(0, n, step)])
        return _pk(spec, lay.entropies(stack), hint)[0]

    return objective


def upper_bound_sk(
    t: TransceiverModel,
    a,
    cfg: InputOptimizerConfig,
    extra_inputs: Sequence[Sequence[np.ndarray]] = (),
    search: Optional[AscentResult] = None,
) -> CapacityReport:
    """Auxiliary-multiaccess upper bound relative to a declared input family.

    The family is the uniform input, any ``extra_inputs`` and the
    optimizer's endpoints, each evaluated once (exact repeats are
    skipped); for each member the converse expression is minimized over
    fractional covers by LP, and the maximum over the family is reported.
    A later member replaces an earlier one only when it is larger by more
    than ``TIE_TOL``, so members tied up to round-off report the first.
    The family is recorded in the witness: the value upper-bounds the
    noninteractive capacity restricted to that family, per the converse of
    the auxiliary construction.
    """
    a_mask = as_mask(a)
    _require_pair(PartySpec(t.m, a_mask, 0))
    if search is None:
        search = _ni_search(t, a_mask, cfg, extra_inputs)
    lay = _Layout(t)
    family: list[list[np.ndarray]] = [[np.full(k, 1.0 / k) for k in lay.dims]]
    family += [[np.asarray(v, dtype=float) for v in vecs] for vecs in extra_inputs]
    for vecs in family[1:]:  # the caller's inputs must be distributions
        JointPMF(t.channel.in_vars, lay.inputs(stack_points([vecs]))[0])
    family += [point for _, point in search.finals]
    family.append(search.point)
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


def sk_bounds(
    t: TransceiverModel,
    a,
    cfg: InputOptimizerConfig,
    emulation_inputs: Sequence[Sequence[np.ndarray]] = (),
) -> dict:
    """Lower bounds, noninteractive value, and surrogate upper bound.

    ``emulation_inputs`` are per-terminal product inputs used for
    V = constant emulation lower bounds, each the noninteractive objective
    at its input; they and the uniform input are folded into both the
    optimizer seeds and the upper bound's declared family so the reported
    ordering lower <= noninteractive <= upper holds by construction.
    Raises InternalConsistencyError if the computed numbers violate it.
    """
    a_mask = as_mask(a)
    spec = PartySpec(t.m, a_mask, 0)
    _require_pair(spec)
    lay = _Layout(t)
    inputs = [[np.full(k, 1.0 / k) for k in lay.dims]]
    inputs += [[np.asarray(v, dtype=float) for v in vecs] for vecs in emulation_inputs]
    search = _ni_search(t, a_mask, cfg, extra_inputs=inputs)
    ni = _ni_report(search)
    upper = upper_bound_sk(t, a_mask, cfg, extra_inputs=inputs, search=search)
    values = _ni_objective(lay, spec)(stack_points(inputs))
    lowers = [
        _emulation_report(np.ones(1), [[v] for v in vecs], float(value))
        for vecs, value in zip(inputs, values)
    ]
    best_lower = max(l.value for l in lowers)
    if best_lower > ni.value + 1e-7 or ni.value > upper.value + 1e-7:
        raise InternalConsistencyError(
            f"bound ordering violated: lower {best_lower}, "
            f"noninteractive {ni.value}, upper {upper.value}"
        )
    return {"lower_bounds": lowers, "noninteractive": ni, "upper_bound": upper}
