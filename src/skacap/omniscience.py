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

``constraint_family(spec)`` is the one per-spec record of that polytope:
the sets B, their complements and the singleton indices, as int64 arrays.
``_pk`` and ``_rco`` take a stack of sources, one row of subset
entropies each, and a ``CoPool``: an empty basis pool built from the
record, whose packing matrix is formed per pool and never cached.  A
search over many sources with one spec (the noninteractive input search)
passes one pool to every call, and the pool keeps the optimal bases of
its full solves with the factors ``lp_solve`` formed for them.  The rows
of a call are checked against every pooled basis at once, each accepted
only with the solver's own certificate (rates feasible, lam feasible,
equal objectives within ``FEAS_TOL``) off the first basis that passes;
the first row that none passes is solved in full, its solution joins the
pool, and the rows after it are checked again.

The simplex stops once no reduced cost is below -``FEAS_TOL``, an
absolute threshold, so conditional entropies far below one bit would all
read as zero.  When the largest cost is below 0.5 bit, every packing LP
therefore runs on the costs scaled up by the power of two that puts it in
[0.5, 1) (an exact scaling), and the value and the rates are scaled
back; larger costs are solved as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InternalConsistencyError, ModelError
from .linprog import BasisHint, LinearProgram, lp_solve
from .models import CapacityReport, PartySpec, SourceModel, as_mask, bits, require_pair
from .prob import marginalize, subset_entropies

#: Never enumerate families over more than this many participating terminals.
MAX_FAMILY_TERMINALS = 20

#: Tolerance for witness feasibility checks.
WITNESS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SubsetFamily:
    """The CO polytope of one spec: its constraint sets B, ascending, as
    read-only int64 bitmask arrays."""

    spec: PartySpec
    members: np.ndarray  # the sets B
    complements: np.ndarray  # [m] minus each B
    singles: np.ndarray  # the indices of the singleton members, ascending


@lru_cache(maxsize=256)
def constraint_family(spec: PartySpec) -> SubsetFamily:
    """All B with {} != B strictly inside D^c and A not a subset of B.

    Only the submasks of D^c are enumerated: bit k of each rank
    1 .. 2^|D^c| - 2 deposited at the k-th terminal of D^c, which keeps
    them ascending.  The bits that move by the same shift move at once.
    """
    dc = bits(spec.d_complement)
    if len(dc) > MAX_FAMILY_TERMINALS or spec.m > 63:
        raise ModelError(
            f"|D^c| = {len(dc)} of m = {spec.m} exceeds the 2^{MAX_FAMILY_TERMINALS} "
            "family guard or a 64-bit mask"
        )
    rank = np.arange(1, (1 << len(dc)) - 1, dtype=np.int64)
    members = np.zeros_like(rank)
    for shift in set(j - k for k, j in enumerate(dc)):
        members |= (rank & sum(1 << k for k, j in enumerate(dc) if j - k == shift)) << shift
    members = members[(members & spec.a) != spec.a]
    arrays = members, ((1 << spec.m) - 1) & ~members, np.flatnonzero(members & (members - 1) == 0)
    for x in arrays:
        x.setflags(write=False)
    return SubsetFamily(spec, *arrays)


def incidence(members: np.ndarray, terminals) -> np.ndarray:
    """0/1 matrix whose entry [i, k] is 1 when ``terminals[k]`` lies in ``members[i]``."""
    return ((members[:, None] & [1 << j for j in terminals]) != 0).astype(float)


def source_entropies(model: SourceModel) -> np.ndarray:
    """H(X_S) for every terminal mask S of ``model``, Eve summed out."""
    p = marginalize(model.pmf, frozenset().union(*model.terminal_vars))
    axis = {v: i for i, v in enumerate(p.ids)}
    groups = [sum(1 << axis[v] for v in g) for g in model.terminal_vars]
    return subset_entropies(p.tensor()[None], groups)[0]


def _conditionals(h: np.ndarray, family: SubsetFamily) -> np.ndarray:
    """H(X_B | X_{B^c}) off the subset entropies ``h`` (one row per source),
    B over the members of ``family``."""
    full = (1 << family.spec.m) - 1
    return np.maximum(h[..., full:full + 1] - h[..., family.complements], 0.0)


def _unit(h: np.ndarray) -> np.ndarray:
    """Per row, the power of two that scales the row's maximum up into
    [0.5, 1); 1 when that maximum is at least 0.5 or the row is <= 0."""
    top = h.max(axis=1)
    e = np.maximum(np.minimum(np.frexp(top)[1], 0), -1000)
    return np.where(top > 0.0, np.ldexp(1.0, np.negative(e)), 1.0)


class CoPool(BasisHint):
    """An empty basis pool for the CO packing LP of ``spec``: a_ge =
    -incidence^T over the family and the terminals of D^c, b_ge = -1."""

    def __init__(self, spec: PartySpec):
        self.family = constraint_family(spec)
        inc = incidence(self.family.members, bits(spec.d_complement))
        np.negative(inc, out=inc)
        super().__init__(inc.T, -np.ones(inc.shape[1]))


def _rco(pool: CoPool, h_all: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_CO and its optimal rates, one per terminal of D^c in ascending
    order, for each row of the subset entropies ``h_all``.  Every caller
    requires |A| >= 2, so the family holds at least the singletons of A."""
    h = _conditionals(h_all, pool.family)
    value, _, rates = _pack(pool, h)
    short = rates @ pool.a_ge + h  # h - incidence @ rates, per row
    if short.max() > WITNESS_TOL:
        worst = int(pool.family.members[int(np.argmax(short)) % short.shape[1]])
        raise InternalConsistencyError(
            f"rate vector violates constraint B={{{','.join(str(t + 1) for t in bits(worst))}}}"
        )
    lowest = value.min()
    if lowest < -1e-9:
        raise InternalConsistencyError(f"R_CO {lowest!r} below zero beyond tolerance")
    return (value if lowest >= 0.0 else np.maximum(value, 0.0)), rates


def _pack(pool: BasisHint, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max h.lam over the packing polytope of ``pool`` for each row of the
    cost stack ``h``: the values, the lam and the row duals (for the CO
    LP, the rates), one row each.

    Every row is first read off the pool's bases at once
    (``BasisHint.reuse_all``).  The first row that no pooled basis
    certifies is solved in full from the surplus basis and its numbers
    written into the arrays, the pool adopts the solution, and the rows
    after it are read again.  So each row gets the numbers it would get
    alone, after the rows before it.
    """
    units = _unit(h)
    costs = -h * units[:, None]
    which, values, lam, duals = pool.reuse_all(costs)
    missing = (which < 0).nonzero()[0]
    while missing.size:
        i = int(missing[0])
        sol = lp_solve(LinearProgram(c=costs[i], a_ge=pool.a_ge, b_ge=pool.b_ge))
        pool.adopt(sol)
        values[i], lam[i], duals[i] = sol.value, sol.x, sol.dual_ge
        if i + 1 == len(costs):
            break
        which[i + 1:], values[i + 1:], lam[i + 1:], duals[i + 1:] = pool.reuse_all(costs[i + 1:])
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
    require_pair(spec.a)
    if h is None:
        h = source_entropies(model)
    value, h_given_d, co, rates = (x[0] for x in _pk(CoPool(spec), h[None]))
    witness = _rate_witness(spec, rates)
    witness["rco"] = float(co)
    witness["h_given_d"] = float(h_given_d)
    return CapacityReport(float(value), "exact", "omniscience-lp", witness)


def _pk(pool: CoPool, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """C_PK, H(X_M | X_D), R_CO and the CO rates for each row of the subset
    entropies ``h``, one row per source with one group per terminal of the
    pool's spec."""
    spec = pool.family.spec
    h_given_d = h[:, (1 << spec.m) - 1] - h[:, spec.d]
    co, rates = _rco(pool, h)
    value = h_given_d - co
    lowest = value.min()
    if lowest < -1e-9:
        raise InternalConsistencyError(f"PK capacity {lowest!r} below zero beyond tolerance")
    return (value if lowest >= 0.0 else np.maximum(value, 0.0)), h_given_d, co, rates


def sk_capacity(model: SourceModel, a, h: np.ndarray | None = None) -> CapacityReport:
    """Secret-key capacity: the D = empty specialization of pk_capacity."""
    return pk_capacity(model, PartySpec(model.m, as_mask(a, model.m), 0), h)


def max_cover(spec: PartySpec, g: np.ndarray) -> tuple[float, dict[int, float]]:
    """max g.lam over the fractional covers lam in Lambda(A) of ``spec``.

    ``g`` has one cost per member of ``constraint_family(spec)``; the
    maximizer is returned as its weights above 1e-12, keyed by member.
    Solved as the CO packing LP by the singleton completion (see the
    module docstring), which needs |A| >= 2.
    """
    require_pair(spec.a)
    pool = CoPool(spec)
    singles = pool.family.singles
    g = np.asarray(g, dtype=float)
    g_single = g[singles]
    # a_ge is minus the cover matrix: [j, i] = -1 when terminal j lies in member i
    packed, lam, _ = _pack(pool, (g + g_single @ pool.a_ge)[None])
    lam = lam[0].copy()
    lam[singles] += 1.0 + pool.a_ge @ lam
    if np.abs(pool.a_ge @ lam + 1.0).max() > WITNESS_TOL or lam.min() < -WITNESS_TOL:
        raise InternalConsistencyError("lambda witness violates Lambda(A) constraints")
    value = float(g_single.sum()) + float(packed[0])
    return value, {b: float(x) for b, x in zip(pool.family.members.tolist(), lam) if x > 1e-12}


def lambda_witness(lam: dict[int, float]) -> dict[str, float]:
    """Cover weights keyed by their 1-based terminal sets, as ``"{1,3}"``."""
    return {
        "{" + ",".join(str(t + 1) for t in bits(b)) + "}": w for b, w in sorted(lam.items())
    }


def sk_capacity_dual(model: SourceModel, a, h: np.ndarray | None = None) -> CapacityReport:
    """SK capacity by the fractional-cover dual; cross-checks the primal.

    ``h`` is ``source_entropies(model)``, for a caller that already has it.
    """
    spec = PartySpec(model.m, as_mask(a, model.m), 0)
    if h is None:
        h = source_entropies(model)
    packed, lam = max_cover(spec, _conditionals(h, constraint_family(spec)))
    value = float(h[-1]) - packed
    witness = {"lambda": lambda_witness(lam)}
    return CapacityReport(max(value, 0.0), "exact", "omniscience-lp-dual", witness)
