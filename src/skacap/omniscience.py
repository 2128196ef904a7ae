"""Source-model SK/PK capacity via the communication-for-omniscience LP.

The PK capacity of a source P_{X_M} with key set A and compromised set D is

    C_PK = H(X_M | X_D) - R_CO,

where R_CO is the least total rate letting every uncompromised terminal
learn the whole source:

    R_CO = min sum(R_j, j in D^c)
    s.t.  sum(R_j, j in B) >= H(X_B | X_{B^c})
          for every nonempty B strictly inside D^c with A not a subset of B.

D = empty gives the SK capacity.  The same quantity has a weighted dual
over the family Gamma(A) of sets not containing A:

    C_SK = min over lambda in Lambda(A) of
           H(X_M) - sum_B lambda_B H(X_B | X_{B^c}),

where Lambda(A) are the fractional covers: lambda_B in [0, 1] with
sum of lambda_B over B containing j equal to 1 for every terminal j.
Both programs run on the package's own simplex solver and are checked
against each other in the test suite.  ``max_cover`` is the one solver of
the cover LP, max over Lambda(A) of g.lambda for given costs g: the dual
passes the conditional entropies, and the transceiver converse passes its
own terms over the 2m auxiliary terminals.

Both LPs run on one polytope, the packing polytope of the CO LP's dual:
lam >= 0 with sum of lam_B over B containing j at most 1 for every j in
D^c.  Its feasible set depends on (m, A, D) alone.  The CO LP is max h.lam
over it, with h the conditional entropies, and its optimal rates are the
duals.  The cover LP becomes a packing LP by the singleton completion:
when every singleton {j}, j in D^c, lies in Gamma(A),

    max {g.lam : lam in Lambda(A)}
        = sum_j g_{j} + max {g'.mu : mu packing},
    g'_B = g_B - sum(g_{j}, j in B),

since g.lam = sum_j g_{j} + g'.lam on every cover (g'_{j} = 0), and any
packing mu completes to the cover lam = mu + sum_j (1 - cover_j(mu)) e_{j}
of the same g'-value.  This holds for costs of either sign.  {j} is a
nonempty proper subset of D^c, and it contains A only when A = {j}, so
every singleton lies in Gamma(A) exactly when |A| >= 2, which
``max_cover`` requires, as key agreement does.

``_pk`` and ``_rco`` take a stack of sources, one row of subset
entropies each.  A search over many sources with one spec (the
noninteractive input search) passes one ``co_basis_hint(spec)`` to every
call, and the hint pools the optimal bases of its full solves.  The
rows of a call are checked against every pooled basis at once, each
accepted only with the solver's own certificate (rates feasible, lam
feasible, equal objectives within ``FEAS_TOL``) off the first basis that
passes; the first row that none passes is solved in full, its basis
joins the pool, and the rows after it are checked again.  Without a
hint a call starts from an empty one.

The simplex stops once no reduced cost is below -``FEAS_TOL``, an
absolute threshold, so conditional entropies far below one bit would all
read as zero.  When the largest cost is below 0.5 bit, every packing LP
therefore runs on the costs scaled up by the power of two that puts it in
[0.5, 1) (an exact scaling), and the value and the rates are scaled
back; larger costs are solved as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InternalConsistencyError, ModelError
from .linprog import BasisHint, LinearProgram, lp_solve
from .models import CapacityReport, PartySpec, SourceModel, as_mask, bits, popcount
from .prob import marginalize, subset_entropies

#: Never enumerate families over more than this many participating terminals.
MAX_FAMILY_TERMINALS = 20

#: Tolerance for witness feasibility checks.
WITNESS_TOL = 1e-8


@dataclass(frozen=True)
class SubsetFamily:
    """Constraint index family: bitmask subsets of D^c, ascending order."""

    d_complement: int
    members: tuple[int, ...]


@lru_cache(maxsize=256)
def constraint_family(spec: PartySpec) -> SubsetFamily:
    """All B with {} != B strictly inside D^c and A not a subset of B."""
    dc = spec.d_complement
    if popcount(dc) > MAX_FAMILY_TERMINALS:
        raise ModelError(
            f"|D^c| = {popcount(dc)} exceeds the 2^{MAX_FAMILY_TERMINALS} family guard"
        )
    members = []
    # ascending enumeration of submasks of dc
    for b in range(1, 1 << spec.m):
        if b & ~dc:
            continue
        if b == dc:
            continue
        if (spec.a & b) == spec.a:  # A subset of B
            continue
        members.append(b)
    return SubsetFamily(d_complement=dc, members=tuple(members))


def incidence(members, terminals) -> np.ndarray:
    """0/1 matrix whose entry [i, k] is 1 when ``terminals[k]`` lies in ``members[i]``."""
    members = np.asarray(members, dtype=np.int64).reshape(-1, 1)
    out = members >> np.asarray(terminals, dtype=np.int64)
    out &= 1
    return out.astype(float)


def source_entropies(model: SourceModel) -> np.ndarray:
    """H(X_S) for every terminal mask S of ``model``, Eve summed out."""
    p = marginalize(model.pmf, frozenset().union(*model.terminal_vars))
    axis = {v: i for i, v in enumerate(p.ids)}
    groups = [sum(1 << axis[v] for v in g) for g in model.terminal_vars]
    return subset_entropies(p.tensor()[None], groups)[0]


@lru_cache(maxsize=256)
def _complements(m: int, members: tuple[int, ...]) -> np.ndarray:
    """[m] minus each member, as an index array."""
    return ((1 << m) - 1) & ~np.asarray(members, dtype=np.int64)


def _conditionals(h: np.ndarray, m: int, members) -> np.ndarray:
    """H(X_B | X_{B^c}) off the subset entropies ``h`` (one row per source),
    B over ``members`` in [m]."""
    full = (1 << m) - 1
    return np.maximum(h[..., full:full + 1] - h[..., _complements(m, tuple(members))], 0.0)


def _unit(h: np.ndarray) -> np.ndarray:
    """Per row, the power of two that scales the row's maximum up into
    [0.5, 1); 1 when that maximum is at least 0.5 or the row is <= 0.
    Scalar math per row costs less than numpy calls on a search's few rows."""
    return np.array([
        math.ldexp(1.0, -min(max(math.frexp(top)[1], -1000), 0)) if top > 0.0 else 1.0
        for top in h.max(axis=1).tolist()
    ])


def _require_pair(spec: PartySpec):
    if popcount(spec.a) < 2:
        raise ModelError(
            "key agreement needs at least two terminals in A "
            "(a lone terminal has no counterpart)"
        )


def co_basis_hint(spec: PartySpec) -> BasisHint:
    """An empty basis hint for the CO LPs of ``spec``, shared by one search."""
    family = constraint_family(spec)
    inc = incidence(family.members, bits(spec.d_complement))
    np.negative(inc, out=inc)
    return BasisHint(a_ge=inc.T, b_ge=-np.ones(inc.shape[1]), key=spec)


def _rco(
    spec: PartySpec, h_all: np.ndarray, hint: BasisHint | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """R_CO and its optimal rates, one per terminal of D^c in ascending
    order, for each row of the subset entropies ``h_all``."""
    family = constraint_family(spec)
    if not family.members:
        return np.zeros(len(h_all)), np.zeros((len(h_all), popcount(spec.d_complement)))
    if hint is None:
        hint = co_basis_hint(spec)
    elif hint.key != spec:
        raise ModelError("basis hint was built for the CO LP of another spec")
    h = _conditionals(h_all, spec.m, family.members)
    value, _, rates = _pack(hint, h)
    short = rates @ hint.a_ge + h  # h - incidence @ rates, per row
    if short.max() > WITNESS_TOL:
        worst = family.members[int(np.argmax(short)) % short.shape[1]]
        raise InternalConsistencyError(
            f"rate vector violates constraint B={{{','.join(str(t + 1) for t in bits(worst))}}}"
        )
    lowest = value.min()
    if lowest < -1e-9:
        raise InternalConsistencyError(f"R_CO {lowest!r} below zero beyond tolerance")
    return (value if lowest >= 0.0 else np.maximum(value, 0.0)), rates


def _pack(hint: BasisHint, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max h.lam over the packing polytope of ``hint`` for each row of the
    cost stack ``h``: the values, the lam and the row duals (for the CO
    LP, the rates), one row each.

    Every row is first read off the hint's pool of bases at once
    (``BasisHint.reuse_all``).  The first row that no pooled basis
    certifies is solved in full from the surplus basis and its numbers
    written into the arrays, the pool adopts the new basis, and the rows
    after it are read again.  So each row gets the numbers it would get
    alone, after the rows before it.
    """
    units = _unit(h)
    costs = -h * units[:, None]
    which, values, lam, duals = hint.reuse_all(costs)
    missing = (which < 0).nonzero()[0]
    while missing.size:
        i = int(missing[0])
        sol = lp_solve(LinearProgram(c=costs[i], a_ge=hint.a_ge, b_ge=hint.b_ge))
        hint.adopt(sol.basis)
        values[i], lam[i], duals[i] = sol.value, sol.x, sol.dual_ge
        if i + 1 == len(costs):
            break
        which[i + 1:], values[i + 1:], lam[i + 1:], duals[i + 1:] = hint.reuse_all(costs[i + 1:])
        missing = i + 1 + (which[i + 1:] < 0).nonzero()[0]
    return -values / units, lam, duals / units[:, None]


def _rate_witness(spec: PartySpec, rates_vec: np.ndarray) -> dict:
    rates = {j: float(r) for j, r in zip(bits(spec.d_complement), rates_vec)}
    return {
        "rates": {str(j + 1): v for j, v in sorted(rates.items())},
        "total": float(sum(rates.values())),
    }


def pk_capacity(
    model: SourceModel, spec: PartySpec, h: np.ndarray | None = None
) -> CapacityReport:
    """Private-key capacity H(X_M | X_D) - R_CO (exact).

    ``h`` is ``source_entropies(model)``, for a caller that already has it.
    """
    if model.m != spec.m:
        raise ModelError(f"model has {model.m} terminals, spec has {spec.m}")
    _require_pair(spec)
    if h is None:
        h = source_entropies(model)
    value, h_given_d, co, rates = (x[0] for x in _pk(spec, h[None]))
    witness = _rate_witness(spec, rates)
    witness["rco"] = float(co)
    witness["h_given_d"] = float(h_given_d)
    return CapacityReport(float(value), "exact", "omniscience-lp", witness)


def _pk(
    spec: PartySpec, h: np.ndarray, hint: BasisHint | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """C_PK, H(X_M | X_D), R_CO and the CO rates for each row of the subset
    entropies ``h``, one row per source with one group per terminal of
    ``spec``."""
    h_given_d = h[:, (1 << spec.m) - 1] - h[:, spec.d]
    co, rates = _rco(spec, h, hint)
    value = h_given_d - co
    lowest = value.min()
    if lowest < -1e-9:
        raise InternalConsistencyError(f"PK capacity {lowest!r} below zero beyond tolerance")
    return (value if lowest >= 0.0 else np.maximum(value, 0.0)), h_given_d, co, rates


def sk_capacity(model: SourceModel, a, h: np.ndarray | None = None) -> CapacityReport:
    """Secret-key capacity: the D = empty specialization of pk_capacity."""
    return pk_capacity(model, PartySpec(model.m, as_mask(a), 0), h)


def max_cover(spec: PartySpec, g: np.ndarray) -> tuple[float, dict[int, float]]:
    """max g.lam over the fractional covers lam in Lambda(A) of ``spec``.

    ``g`` has one cost per member of ``constraint_family(spec)``; the
    maximizer is returned as its weights above 1e-12, keyed by member.
    Solved as the CO packing LP by the singleton completion (see the
    module docstring), which needs |A| >= 2.
    """
    _require_pair(spec)
    members = constraint_family(spec).members
    hint = co_basis_hint(spec)
    cover = -hint.a_ge  # [j, i] = 1 when terminal j lies in member i
    singles = np.searchsorted(members, [1 << j for j in bits(spec.d_complement)])
    g = np.asarray(g, dtype=float)
    g_single = g[singles]
    packed, lam, _ = _pack(hint, (g - g_single @ cover)[None])
    lam = lam[0].copy()
    lam[singles] += 1.0 - cover @ lam
    if np.abs(cover @ lam - 1.0).max() > WITNESS_TOL or lam.min() < -WITNESS_TOL:
        raise InternalConsistencyError("lambda witness violates Lambda(A) constraints")
    value = float(g_single.sum()) + float(packed[0])
    return value, {b: float(x) for b, x in zip(members, lam) if x > 1e-12}


def lambda_witness(lam: dict[int, float]) -> dict[str, float]:
    """Cover weights keyed by their 1-based terminal sets, as ``"{1,3}"``."""
    return {
        "{" + ",".join(str(t + 1) for t in bits(b)) + "}": w for b, w in sorted(lam.items())
    }


def sk_capacity_dual(model: SourceModel, a, h: np.ndarray | None = None) -> CapacityReport:
    """SK capacity by the fractional-cover dual; cross-checks the primal.

    ``h`` is ``source_entropies(model)``, for a caller that already has it.
    """
    spec = PartySpec(model.m, as_mask(a), 0)
    if h is None:
        h = source_entropies(model)
    packed, lam = max_cover(spec, _conditionals(h, model.m, constraint_family(spec).members))
    value = float(h[-1]) - packed
    witness = {"lambda": lambda_witness(lam)}
    return CapacityReport(max(value, 0.0), "exact", "omniscience-lp-dual", witness)
