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
against each other in the test suite.

The CO LP is solved as its packing dual, max h.lam s.t. incidence^T lam
<= 1, lam >= 0, whose feasible set depends on (m, A, D) alone: only the
cost h, the conditional entropies, depends on the source.  A search over
many sources with one spec (the noninteractive input search) passes one
``co_basis_hint(spec)`` to every ``_rco`` call.  Each call first reads
the value and the rates off the last optimal basis, accepted only with
the solver's own certificate (rates feasible, lam feasible, equal
objectives within ``FEAS_TOL``); otherwise it solves in full and keeps
the new basis.  Without a hint every call solves in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InternalConsistencyError, ModelError
from .linprog import BasisHint, LinearProgram, lp_solve
from .models import CapacityReport, PartySpec, SourceModel, as_mask, bits, popcount
from .prob import EntropyOracle

#: Never enumerate families over more than this many participating terminals.
MAX_FAMILY_TERMINALS = 20

#: Guard on the dual family size.
MAX_GAMMA = 1 << 20

#: Tolerance for witness feasibility checks.
WITNESS_TOL = 1e-8


@dataclass(frozen=True)
class SubsetFamily:
    """Constraint index family: bitmask subsets of D^c, ascending order."""

    d_complement: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class RateVector:
    """Per-terminal communication rates for the omniscience primal."""

    rates: dict[int, float]

    def total(self) -> float:
        return float(sum(self.rates.values()))


@dataclass(frozen=True)
class LambdaVector:
    """Fractional-cover weights lambda_B indexed by subset bitmask."""

    weights: dict[int, float]


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
    return ((members >> np.asarray(terminals, dtype=np.int64)) & 1).astype(float)


def _conditionals(oracle: EntropyOracle, m: int, members) -> np.ndarray:
    """H(X_B | X_{B^c}) for every B in ``members``, complements inside [m]."""
    full = (1 << m) - 1
    h = oracle.h_all()
    return np.maximum(h[full] - h[full & ~np.asarray(members, dtype=np.int64)], 0.0)


def _check_compatible(model: SourceModel, spec: PartySpec):
    if model.m != spec.m:
        raise ModelError(f"model has {model.m} terminals, spec has {spec.m}")


def _require_pair(spec: PartySpec):
    if popcount(spec.a) < 2:
        raise ModelError(
            "key agreement needs at least two terminals in A "
            "(a lone terminal has no counterpart)"
        )


def rco(model: SourceModel, spec: PartySpec) -> CapacityReport:
    """Minimum total communication-for-omniscience rate for D^c."""
    _check_compatible(model, spec)
    value, rates = _rco(spec, EntropyOracle(model.pmf, model.terminal_vars))
    return CapacityReport(value, "exact", "omniscience-lp-primal", _rate_witness(spec, rates))


def co_basis_hint(spec: PartySpec) -> BasisHint:
    """An empty basis hint for the CO LPs of ``spec``, shared by one search."""
    family = constraint_family(spec)
    inc = incidence(family.members, bits(spec.d_complement))
    return BasisHint(a_ge=-inc.T, b_ge=-np.ones(inc.shape[1]), key=spec)


def _rco(
    spec: PartySpec, oracle: EntropyOracle, hint: BasisHint | None = None
) -> tuple[float, np.ndarray]:
    """R_CO and its optimal rates, one per terminal of D^c in ascending order."""
    family = constraint_family(spec)
    if not family.members:
        return 0.0, np.zeros(popcount(spec.d_complement))
    if hint is None:
        hint = co_basis_hint(spec)
    elif hint.key != spec:
        raise ModelError("basis hint was built for the CO LP of another spec")
    h = _conditionals(oracle, spec.m, family.members)
    # Solve the packing dual  max h.lam  s.t.  incidence^T lam <= 1, lam >= 0
    # (slack-basis start, no phase 1); the optimal rates are its duals.
    sol = hint.reuse(-h)
    if sol is None:
        sol = lp_solve(LinearProgram(c=-h, a_ge=hint.a_ge, b_ge=hint.b_ge))
        hint.adopt(sol.basis)
    value = -sol.value
    rates = sol.dual_ge
    slack = -hint.a_ge.T @ rates - h  # incidence @ rates - h
    if slack.min() < -WITNESS_TOL:
        worst = family.members[int(np.argmin(slack))]
        raise InternalConsistencyError(
            f"rate vector violates constraint B={{{','.join(str(t + 1) for t in bits(worst))}}}"
        )
    if value < -1e-9:
        raise InternalConsistencyError(f"R_CO {value!r} below zero beyond tolerance")
    return max(value, 0.0), rates


def _rate_witness(spec: PartySpec, rates_vec: np.ndarray) -> dict:
    rates = RateVector({j: float(r) for j, r in zip(bits(spec.d_complement), rates_vec)})
    return {
        "rates": {str(j + 1): v for j, v in sorted(rates.rates.items())},
        "total": rates.total(),
    }


def pk_capacity(model: SourceModel, spec: PartySpec) -> CapacityReport:
    """Private-key capacity H(X_M | X_D) - R_CO (exact)."""
    _check_compatible(model, spec)
    _require_pair(spec)
    value, h_given_d, co, rates = _pk(spec, EntropyOracle(model.pmf, model.terminal_vars))
    witness = _rate_witness(spec, rates)
    witness["rco"] = co
    witness["h_given_d"] = h_given_d
    return CapacityReport(value, "exact", "omniscience-lp", witness)


def _pk(
    spec: PartySpec, oracle: EntropyOracle, hint: BasisHint | None = None
) -> tuple[float, float, float, np.ndarray]:
    """C_PK, H(X_M | X_D), R_CO and the CO rates, off an oracle with one
    group per terminal of ``spec``."""
    h_given_d = oracle.h((1 << spec.m) - 1) - oracle.h(spec.d)
    co, rates = _rco(spec, oracle, hint)
    value = h_given_d - co
    if value < -1e-9:
        raise InternalConsistencyError(
            f"PK capacity {value!r} below zero beyond tolerance"
        )
    return max(value, 0.0), h_given_d, co, rates


def sk_capacity(model: SourceModel, a) -> CapacityReport:
    """Secret-key capacity: the D = empty specialization of pk_capacity."""
    return pk_capacity(model, PartySpec(model.m, as_mask(a), 0))


def sk_capacity_dual(model: SourceModel, a) -> CapacityReport:
    """SK capacity by the fractional-cover dual; cross-checks the primal."""
    spec = PartySpec(model.m, as_mask(a), 0)
    _require_pair(spec)
    gamma = constraint_family(spec)
    if len(gamma.members) > MAX_GAMMA:
        raise ModelError(f"|Gamma(A)| = {len(gamma.members)} exceeds the guard {MAX_GAMMA}")
    oracle = EntropyOracle(model.pmf, model.terminal_vars)
    m = model.m
    h = _conditionals(oracle, m, gamma.members)
    cover = incidence(gamma.members, range(m)).T
    sol = lp_solve(LinearProgram(c=-h, a_eq=cover, b_eq=np.ones(m)))
    lam = LambdaVector(
        {b: float(sol.x[i]) for i, b in enumerate(gamma.members) if sol.x[i] > 0}
    )
    coverage = cover @ sol.x
    if np.abs(coverage - 1.0).max() > WITNESS_TOL or sol.x.min() < -WITNESS_TOL:
        raise InternalConsistencyError("lambda witness violates Lambda(A) constraints")
    value = oracle.h((1 << m) - 1) + sol.value  # sol.value = -max sum(lam h)
    witness = {
        "lambda": {
            "{" + ",".join(str(t + 1) for t in bits(b)) + "}": w
            for b, w in sorted(lam.weights.items())
        }
    }
    return CapacityReport(max(value, 0.0), "exact", "omniscience-lp-dual", witness)
