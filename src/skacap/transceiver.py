"""Transceiver channel-model constructions and capacity bounds.

Three routes to the key capacity of a channel where terminal j controls
input T_j and observes output Y_j:

* Source-emulation lower bounds: fix a publicly known auxiliary variable V
  with conditionally independent inputs, run the channel n times with no
  interleaved discussion, and run a source-model protocol on the realized
  IID source.  The emulated model gains terminal 0 (owning V), which is
  treated as compromised.
* The noninteractive SK capacity: with independent inputs and one public
  message per terminal after all transmissions, the capacity equals
  max over product input distributions of the emulated source's SK
  capacity.  Realized by a multistart search over per-terminal simplices.
  The search builds its objective once: each evaluation forms the
  emulated joint as an outer product of the inputs times the channel
  rows, takes its entropies off that array, and solves the CO LP from the
  previous evaluation's optimal basis when that basis still carries a
  duality certificate (its polytope depends on (m, A) alone), so the
  values are those of ``sk_capacity`` on the validated emulated source.
* Auxiliary multiaccess upper bounds: split each transceiver into an input
  terminal (owning T_j, connected through a noiseless identity layer) and
  an output terminal (owning (T_j, Y_j)); the weighted-entropy converse
  expression of that 2m-terminal model, minimized over fractional covers
  by LP and maximized over a declared family of input distributions, gives
  an upper bound relative to that family.

A wiretap reduction is included: promoting Eve's variable to an extra
compromised terminal turns any PK-capacity computation into an upper bound
on the wiretap SK capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InternalConsistencyError, ModelError
from .linprog import LinearProgram, lp_solve
from .models import (
    CapacityReport,
    PartySpec,
    SourceModel,
    TransceiverModel,
    as_mask,
    bits,
    emulated_to_source,  # noqa: F401  unused here; bench/spans.py probes this name
    popcount,
)
from .omniscience import (
    _pk,
    co_basis_hint,
    constraint_family,
    incidence,
    pk_capacity,
    sk_capacity,  # noqa: F401  unused here; bench/spans.py probes this name
)
from .optimize import AscentResult, InputOptimizerConfig, maximize_product_simplices
from .prob import (
    Dmc,
    EntropyOracle,
    JointPMF,
    VarId,
    compose,
    extend_with_channel,
    product_pmf,
)

#: Tolerance for Lambda(A) membership checks.
LAMBDA_TOL = 1e-8


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


@dataclass(frozen=True)
class AuxiliaryMultiaccess:
    """Two-layer multiaccess view of a transceiver model.

    Terminals 0..m-1 are the original transceivers owning X_j = (T_j, Y_j);
    terminals m..2m-1 are new input terminals owning X_{j+m} = T_j through a
    per-coordinate identity first layer (so their variable ids coincide with
    the T groups); with ``wiretapped`` the extra terminal 2m owns Z and is
    the compromised set.
    """

    base: TransceiverModel
    groups: tuple[frozenset[VarId], ...]
    d_mask: int

    @property
    def n_terminals(self) -> int:
        return len(self.groups)


def build_auxiliary(t: TransceiverModel, wiretapped: bool = False) -> AuxiliaryMultiaccess:
    """Auxiliary multiaccess layout over 2m (or 2m+1 with Z) terminals."""
    if wiretapped and t.eve_var is None:
        raise ModelError("wiretapped auxiliary model needs an eavesdropper variable")
    groups = list(t.terminal_vars())
    groups += [frozenset(t.input_vars[j]) for j in range(t.m)]
    d_mask = 0
    if wiretapped:
        groups.append(frozenset({t.eve_var}))
        d_mask = 1 << (2 * t.m)
    return AuxiliaryMultiaccess(base=t, groups=tuple(groups), d_mask=d_mask)


def emulate(t: TransceiverModel, spec: EmulationSpec) -> SourceModel:
    """Source model over {0} + M realized by V-correlated source emulation.

    Terminal 0 owns V; terminal j owns (T_j, Y_j).  The joint factorizes as
    P(V) * prod_j P(T_j | V) * P(Y_M | T_M).
    """
    if len(spec.conditionals) != t.m:
        raise ModelError(f"need {t.m} conditionals, got {len(spec.conditionals)}")
    claimed: list[VarId] = []
    for j, ch in enumerate(spec.conditionals):
        want = t.input_vars[j]
        if ch.out_ids != tuple(want):
            raise ModelError(
                f"conditional {j} outputs {ch.out_ids}, expected T group {tuple(want)}"
            )
        claimed += list(ch.out_ids)
    cur = spec.p_v
    for ch in spec.conditionals:
        cur = extend_with_channel(cur, ch)
    # reorder T variables to the channel's input order before composing
    order = [spec.v_id] + list(t.channel.in_ids)
    perm = [cur.index_of(v) for v in order]
    tens = np.transpose(cur.tensor(), perm)
    cur = JointPMF(tuple(cur.vars[i] for i in perm), tens.ravel())
    joint = extend_with_channel(cur, t.channel)
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
    src = emulate(t, e)
    inner = pk_capacity(src, _shift_spec(spec))
    witness = {
        "emulation": {
            "v_alphabet": e.p_v.vars[0][1].size,
            "p_v": [float(x) for x in e.p_v.probs],
            "conditionals": [
                [[float(x) for x in row] for row in ch.rows] for ch in e.conditionals
            ],
        },
        "emulated_pk": inner.value,
    }
    return CapacityReport(inner.value, "lower_bound", "source-emulation", witness)


def lower_bound_sk(t: TransceiverModel, a, e: EmulationSpec) -> CapacityReport:
    """Theorem-2 style lower bound on the SK capacity (D = empty)."""
    return lower_bound_pk(t, PartySpec(t.m, as_mask(a), 0), e)


# ---------------------------------------------------------------------------
# Auxiliary multiaccess converse expression
# ---------------------------------------------------------------------------


def _aux_oracle(aux: AuxiliaryMultiaccess, p_in: JointPMF) -> EntropyOracle:
    """Entropies of the auxiliary joint, one group per auxiliary terminal."""
    if p_in.vars != aux.base.channel.in_vars:
        raise ModelError("p_in must be declared over the channel input variables")
    return EntropyOracle(compose(p_in, aux.base.channel), aux.groups)


def _aux_term(aux: AuxiliaryMultiaccess, oracle: EntropyOracle, b: int) -> float:
    """g_B = H(X_B | X_{B^c}) - H(X_{B & M'} | X_{B^c & M'}), M' the input terminals.

    B^c is taken among all auxiliary terminals, compromised ones included,
    in the first term and among the input terminals in the second.
    """
    everyone = (1 << aux.n_terminals) - 1
    inputs = ((1 << aux.base.m) - 1) << aux.base.m
    return oracle.conditional(b, everyone & ~b) - oracle.conditional(
        b & inputs, inputs & ~b
    )


def _aux_constant(aux: AuxiliaryMultiaccess, oracle: EntropyOracle) -> float:
    """H(X_M) - H(X_{M'}): output terminals minus input terminals."""
    outputs = (1 << aux.base.m) - 1
    return oracle.h(outputs) - oracle.h(outputs << aux.base.m)


def lambda_upper_expression(
    aux: AuxiliaryMultiaccess, p_in: JointPMF, lam: dict[int, float]
) -> float:
    """Single-letter converse value E for a given fractional cover lambda.

    E = [H(X_M) - sum_B lam_B H(X_B | X_{B^c})]
        - [H(X_{M'}) - sum_B lam_B H(X_{B & M'} | X_{B^c & M'})],

    with B over the auxiliary-terminal family Gamma(A) and M' the input
    terminals.  ``lam`` must lie in Lambda(A): weights in [0, 1] whose sum
    over sets containing j is 1 for every uncompromised terminal j.
    """
    oracle = _aux_oracle(aux, p_in)
    for b, w in lam.items():
        if w < -LAMBDA_TOL or w > 1 + LAMBDA_TOL:
            raise ModelError(f"lambda weight {w!r} outside [0, 1]")
        if b >> aux.n_terminals:
            raise ModelError(f"lambda set {b:#b} names terminals outside the model")
    participants = bits(((1 << aux.n_terminals) - 1) & ~aux.d_mask)
    coverage = np.array(list(lam.values())) @ incidence(list(lam), participants)
    for j, c in zip(participants, coverage):
        if abs(c - 1.0) > LAMBDA_TOL:
            raise ModelError(f"infeasible lambda: coverage of terminal {j + 1} is {c!r}")
    return _aux_constant(aux, oracle) - sum(
        w * _aux_term(aux, oracle, b) for b, w in lam.items()
    )


def min_lambda_upper_expression(
    aux: AuxiliaryMultiaccess, p_in: JointPMF
) -> tuple[float, dict[int, float]]:
    """Minimize the converse expression over Lambda(A = all outputs) by LP."""
    return _min_lambda(aux, p_in, (1 << aux.base.m) - 1)


def _min_lambda(aux, p_in: JointPMF, a_mask: int) -> tuple[float, dict[int, float]]:
    oracle = _aux_oracle(aux, p_in)
    gamma = constraint_family(PartySpec(aux.n_terminals, a_mask, aux.d_mask))
    g = np.array([_aux_term(aux, oracle, b) for b in gamma.members])
    cover = incidence(gamma.members, bits(gamma.d_complement)).T
    sol = lp_solve(LinearProgram(c=-g, a_eq=cover, b_eq=np.ones(cover.shape[0])))
    lam = {b: float(sol.x[i]) for i, b in enumerate(gamma.members) if sol.x[i] > 1e-12}
    return _aux_constant(aux, oracle) + float(sol.value), lam


# ---------------------------------------------------------------------------
# Noninteractive capacity and the bounds sweep
# ---------------------------------------------------------------------------


def _input_dims(t: TransceiverModel) -> list[int]:
    sizes = dict((vid, a.size) for vid, a in t.channel.in_vars)
    return [int(np.prod([sizes[v] for v in g])) for g in t.input_vars]


def _product_input(t: TransceiverModel, vecs: Sequence[np.ndarray]) -> JointPMF:
    """Assemble per-terminal group distributions into a joint over T_M.

    Each group's vector is row-major over the group's variables in their
    listed order; the result is declared in the channel's input order.
    """
    factors = []
    for j, g in enumerate(t.input_vars):
        vl = tuple(
            (vid, t.channel.in_vars[t.channel.in_ids.index(vid)][1]) for vid in g
        )
        factors.append(JointPMF(vl, np.asarray(vecs[j], dtype=float)))
    joint = product_pmf(factors)
    order = [joint.index_of(v) for v in t.channel.in_ids]
    tens = np.transpose(joint.tensor(), order)
    return JointPMF(t.channel.in_vars, tens.ravel())


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
    if popcount(a_mask) < 2:
        raise ModelError("A must contain at least two terminals")
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
    dims = _input_dims(t)
    for vecs in extra_inputs:
        got = [int(np.size(v)) for v in vecs]
        if got != dims:
            raise ModelError(f"extra input has group sizes {got}, expected {dims}")
    return maximize_product_simplices(
        dims, _ni_objective(t, a_mask), cfg, extra_seeds=extra_inputs
    )


def _emulated_oracles(t: TransceiverModel):
    """The entropy oracle of the emulated source as a function of the
    per-terminal inputs, built on plain arrays.

    Gives what ``EntropyOracle`` of ``emulated_to_source(t, _product_input(t,
    p))`` gives, by the same floating-point operations: the input
    permutation, the joint shape and the group axes are fixed per model and
    computed here once, and no ``JointPMF`` is validated per point.
    """
    ch = t.channel
    sizes = dict((vid, a.size) for vid, a in ch.in_vars)
    group_order = [v for g in t.input_vars for v in g]
    group_shape = [sizes[v] for v in group_order]
    to_channel = [group_order.index(v) for v in ch.in_ids]
    ids = ch.in_ids + ch.out_ids
    joint_shape = tuple(a.size for _, a in ch.in_vars + ch.out_vars)
    eve_axes = tuple(i for i, v in enumerate(ids) if v == t.eve_var)
    axis = {v: i for i, v in enumerate(v for v in ids if v != t.eve_var)}
    group_axes = [sum(1 << axis[v] for v in g) for g in t.terminal_vars()]

    def oracle(point) -> EntropyOracle:
        p_in = point[0]
        for v in point[1:]:
            p_in = np.multiply.outer(p_in, v)
        p_in = np.transpose(p_in.reshape(group_shape), to_channel).ravel()
        joint = (p_in[:, None] * ch.rows).reshape(joint_shape)
        if eve_axes:
            joint = joint.sum(axis=eve_axes)
        return EntropyOracle.from_tensor(joint, group_axes)

    return oracle


def _ni_objective(t: TransceiverModel, a_mask: int):
    """C_SK of the emulated source as a function of the per-terminal inputs.

    Each evaluation's CO LP starts from the optimal basis of the last one
    (``co_basis_hint``), which is accepted only with its certificate.
    """
    spec = PartySpec(t.m, a_mask, 0)
    oracle = _emulated_oracles(t)
    hint = co_basis_hint(spec)
    return lambda point: _pk(spec, oracle(point), hint)[0]


def upper_bound_sk(
    t: TransceiverModel,
    a,
    cfg: InputOptimizerConfig,
    extra_inputs: Sequence[Sequence[np.ndarray]] = (),
    search: Optional[AscentResult] = None,
) -> CapacityReport:
    """Auxiliary-multiaccess upper bound relative to a declared input family.

    The family is the optimizer's converged endpoints plus the uniform
    input plus any ``extra_inputs``; for each member the converse
    expression is minimized over fractional covers by LP, and the maximum
    over the family is reported.  The family is recorded in the witness:
    the value upper-bounds the noninteractive capacity restricted to that
    family, per the converse of the auxiliary construction.
    """
    a_mask = as_mask(a)
    aux = build_auxiliary(t)
    if search is None:
        search = _ni_search(t, a_mask, cfg, extra_inputs)
    dims = _input_dims(t)
    family: list[list[np.ndarray]] = [[np.full(k, 1.0 / k) for k in dims]]
    family += [[np.asarray(v, dtype=float) for v in vecs] for vecs in extra_inputs]
    family += [point for _, point in search.finals]
    family.append(search.point)
    best_val = -np.inf
    best_lam: dict[int, float] = {}
    best_point = None
    recorded = []
    for vecs in family:
        p_in = _product_input(t, vecs)
        val, lam = _min_lambda(aux, p_in, a_mask)
        recorded.append({"input": [[float(x) for x in v] for v in vecs], "value": val})
        if val > best_val:
            best_val, best_lam, best_point = val, lam, vecs
    witness = {
        "family": recorded,
        "argmax_input": [[float(x) for x in v] for v in best_point],
        "lambda": {
            "{" + ",".join(str(j + 1) for j in bits(b)) + "}": w
            for b, w in sorted(best_lam.items())
        },
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
    V = constant emulation lower bounds; they are folded into both the
    optimizer seeds and the upper bound's declared family so the reported
    ordering lower <= noninteractive <= upper holds by construction.
    Raises InternalConsistencyError if the computed numbers violate it.
    """
    a_mask = as_mask(a)
    dims = _input_dims(t)
    inputs = [[np.full(k, 1.0 / k) for k in dims]]
    inputs += [[np.asarray(v, dtype=float) for v in vecs] for vecs in emulation_inputs]
    lowers = []
    for vecs in inputs:
        spec = constant_emulation(t, vecs)
        lowers.append(lower_bound_sk(t, a_mask, spec))
    search = _ni_search(t, a_mask, cfg, extra_inputs=inputs)
    ni = _ni_report(search)
    upper = upper_bound_sk(t, a_mask, cfg, extra_inputs=inputs, search=search)
    best_lower = max(l.value for l in lowers)
    if best_lower > ni.value + 1e-7 or ni.value > upper.value + 1e-7:
        raise InternalConsistencyError(
            f"bound ordering violated: lower {best_lower}, "
            f"noninteractive {ni.value}, upper {upper.value}"
        )
    return {"lower_bounds": lowers, "noninteractive": ni, "upper_bound": upper}
