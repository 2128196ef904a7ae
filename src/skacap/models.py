"""Model types: party specs, source/transceiver/polytree models, reports.

Terminal indexing is 1-based in model files (see `modelio`) and 0-based
everywhere in code.  Subsets of terminals are bitmasks over the 0-based
indices.  Degenerate size-1 alphabets stand in for "no variable here", so
every transceiver terminal always has both an input group and an output
group and X_j = (T_j, Y_j) is total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import InternalConsistencyError, ModelError
from .prob import Alphabet, Dmc, JointPMF, VarId, check_cells, compose


def mask_of(terminals: Iterable[int]) -> int:
    m = 0
    for t in terminals:
        if t < 0:
            raise ModelError(f"negative terminal index {t}")
        m |= 1 << t
    return m


def as_mask(terminals) -> int:
    """A terminal set given as a bitmask or as 0-based indices, as a bitmask."""
    return terminals if isinstance(terminals, int) else mask_of(terminals)


def bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def popcount(mask: int) -> int:
    return bin(mask).count("1")


@dataclass(frozen=True)
class PartySpec:
    """Terminal bookkeeping: m terminals, key set A, compromised set D.

    ``a`` and ``d`` are bitmasks over 0-based terminal indices.  A is
    nonempty, disjoint from D, and both live inside [m].
    """

    m: int
    a: int
    d: int = 0

    def __post_init__(self):
        full = (1 << self.m) - 1
        if self.m < 1:
            raise ModelError("need at least one terminal")
        if self.a == 0:
            raise ModelError("A must be nonempty")
        if self.a & self.d:
            raise ModelError(
                f"A and D intersect: terminals {[t + 1 for t in bits(self.a & self.d)]}"
            )
        if (self.a | self.d) & ~full:
            raise ModelError("A or D references terminals outside [m]")

    @classmethod
    def from_one_based(cls, m: int, a: Iterable[int], d: Iterable[int] = ()) -> "PartySpec":
        return cls(m, mask_of(t - 1 for t in a), mask_of(t - 1 for t in d))

    @property
    def d_complement(self) -> int:
        return ((1 << self.m) - 1) & ~self.d


@dataclass(frozen=True)
class SourceModel:
    """A joint source P_{X_M} with a terminal -> variables assignment.

    ``terminal_vars[j]`` is the set of variable ids terminal j observes;
    the groups partition the PMF's variables apart from the optional
    eavesdropper variable ``eve_var``.
    """

    pmf: JointPMF
    terminal_vars: tuple[frozenset[VarId], ...]
    eve_var: Optional[VarId] = None

    def __post_init__(self):
        groups = tuple(frozenset(g) for g in self.terminal_vars)
        object.__setattr__(self, "terminal_vars", groups)
        if not groups:
            raise ModelError("source model needs at least one terminal")
        all_ids = set(self.pmf.ids)
        claimed: set[VarId] = set()
        for j, g in enumerate(groups):
            if not g:
                raise ModelError(f"terminal {j + 1} owns no variables")
            if g & claimed:
                raise ModelError(f"terminal {j + 1} shares variables with another terminal")
            claimed |= g
        expected = all_ids - ({self.eve_var} if self.eve_var is not None else set())
        if claimed != expected:
            raise ModelError(
                f"terminal variables {sorted(claimed)} do not partition {sorted(expected)}"
            )
        if self.eve_var is not None and self.eve_var not in all_ids:
            raise ModelError(f"eve variable {self.eve_var} not in the PMF")

    @property
    def m(self) -> int:
        return len(self.terminal_vars)


@dataclass(frozen=True)
class TransceiverModel:
    """Channel model where terminal j controls T_j and observes Y_j.

    ``channel`` maps the joint input (all T groups) to the joint output
    (all Y groups plus the optional eavesdropper variable ``eve_var``).
    """

    m: int
    input_vars: tuple[tuple[VarId, ...], ...]
    output_vars: tuple[tuple[VarId, ...], ...]
    channel: Dmc
    eve_var: Optional[VarId] = None

    def __post_init__(self):
        ins = tuple(tuple(g) for g in self.input_vars)
        outs = tuple(tuple(g) for g in self.output_vars)
        object.__setattr__(self, "input_vars", ins)
        object.__setattr__(self, "output_vars", outs)
        if len(ins) != self.m or len(outs) != self.m:
            raise ModelError("need exactly one input and one output group per terminal")
        in_claimed: list[VarId] = [v for g in ins for v in g]
        out_claimed: list[VarId] = [v for g in outs for v in g]
        if any(len(g) == 0 for g in ins) or any(len(g) == 0 for g in outs):
            raise ModelError("every terminal needs a (possibly degenerate) T and Y group")
        if sorted(in_claimed) != sorted(self.channel.in_ids):
            raise ModelError("input groups do not partition the channel inputs")
        expected_out = set(out_claimed) | (
            {self.eve_var} if self.eve_var is not None else set()
        )
        if len(in_claimed) != len(set(in_claimed)) or len(out_claimed) != len(
            set(out_claimed)
        ):
            raise ModelError("a variable is claimed by two terminals")
        if expected_out != set(self.channel.out_ids) or len(expected_out) != len(
            self.channel.out_ids
        ):
            raise ModelError("output groups plus eve do not partition the channel outputs")

    def terminal_vars(self) -> tuple[frozenset[VarId], ...]:
        """X_j = (T_j, Y_j) variable groups."""
        return tuple(
            frozenset(self.input_vars[j]) | frozenset(self.output_vars[j])
            for j in range(self.m)
        )


@dataclass(frozen=True)
class PolytreeEdge:
    """Directed edge i -> j carrying a scalar DMC and an optional wiretap.

    The channel input T_ij lives at the sender i; the output Y_ji is
    observed by the receiver j.  A wiretap channel, when present, maps the
    edge output Y_ji to the eavesdropper symbol Z_ij (so the Markov chain
    T_ij - Y_ji - Z_ij holds structurally).
    """

    sender: int
    receiver: int
    channel: Dmc
    wiretap: Optional[Dmc] = None

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ModelError(f"self-loop at terminal {self.sender + 1}")
        if len(self.channel.in_vars) != 1 or len(self.channel.out_vars) != 1:
            raise ModelError("edge channels are scalar-input scalar-output")
        if self.wiretap is not None:
            if len(self.wiretap.in_vars) != 1 or len(self.wiretap.out_vars) != 1:
                raise ModelError("wiretap channels are scalar-input scalar-output")
            if self.wiretap.in_vars[0][1].size != self.channel.out_vars[0][1].size:
                raise ModelError("wiretap input alphabet must match the edge output")

    @property
    def in_size(self) -> int:
        return self.channel.in_vars[0][1].size

    @property
    def out_size(self) -> int:
        return self.channel.out_vars[0][1].size


def edge(sender: int, receiver: int, rows, wiretap_rows=None) -> PolytreeEdge:
    """Convenience constructor building the scalar Dmc wrappers."""
    rows = np.asarray(rows, dtype=float)
    ch = Dmc([(0, Alphabet(rows.shape[0]))], [(1, Alphabet(rows.shape[1]))], rows)
    wt = None
    if wiretap_rows is not None:
        wiretap_rows = np.asarray(wiretap_rows, dtype=float)
        wt = Dmc(
            [(0, Alphabet(wiretap_rows.shape[0]))],
            [(1, Alphabet(wiretap_rows.shape[1]))],
            wiretap_rows,
        )
    return PolytreeEdge(sender, receiver, ch, wt)


@dataclass(frozen=True)
class Polytree:
    """Directed graph whose underlying undirected graph is a tree."""

    m: int
    edges: tuple[PolytreeEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.m < 2:
            raise ModelError("polytree needs at least two terminals")
        pairs = set()
        parent = list(range(self.m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            if not (0 <= e.sender < self.m and 0 <= e.receiver < self.m):
                raise ModelError(
                    f"edge {e.sender + 1}->{e.receiver + 1} references unknown terminals"
                )
            key = (min(e.sender, e.receiver), max(e.sender, e.receiver))
            if key in pairs:
                raise ModelError(
                    f"parallel edges between terminals ({key[0] + 1}, {key[1] + 1})"
                )
            pairs.add(key)
            ra, rb = find(e.sender), find(e.receiver)
            if ra == rb:
                raise ModelError("not a tree: edge list contains a cycle")
            parent[ra] = rb
        if len(self.edges) != self.m - 1:
            raise ModelError("not a tree: graph is disconnected")

    def neighbors(self) -> dict[int, list[tuple[int, int]]]:
        """Undirected adjacency: node -> [(neighbor, edge index)]."""
        adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(self.m)}
        for idx, e in enumerate(self.edges):
            adj[e.sender].append((e.receiver, idx))
            adj[e.receiver].append((e.sender, idx))
        return adj


VALID_KINDS = ("exact", "lower_bound", "upper_bound")


@dataclass(frozen=True)
class CapacityReport:
    """A capacity value in bits plus how it was obtained.

    ``kind`` records whether the value is exact for its quantity or only a
    one-sided bound; ``witness`` carries the optimizer (rate vector, lambda
    weights, or input distribution) when one exists.
    """

    value: float
    kind: str
    method: str
    witness: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ModelError(f"unknown report kind {self.kind!r}")
        v = float(self.value)
        if v < 0.0:
            if v < -1e-9:
                raise InternalConsistencyError(f"negative capacity {v!r}")
            v = 0.0
        object.__setattr__(self, "value", v)

    def to_dict(self) -> dict:
        out = {"value": self.value, "kind": self.kind, "method": self.method}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def polytree_to_transceiver(g: Polytree) -> TransceiverModel:
    """Flatten a polytree into the equivalent transceiver channel model.

    The joint channel factorizes as the product of the edge channels (times
    the per-edge wiretaps when present).  Variable ids are assigned
    deterministically: edge inputs in edge order, then degenerate inputs for
    terminals with no outgoing edge, then edge outputs, degenerate outputs,
    and finally a single merged eavesdropper variable when any edge is
    wiretapped (its alphabet is the product of the per-edge wiretap outputs
    in edge order).
    """
    wiretapped = any(e.wiretap is not None for e in g.edges)
    next_id = 0

    def fresh(size: int) -> tuple[VarId, Alphabet]:
        nonlocal next_id
        v = (next_id, Alphabet(size))
        next_id += 1
        return v

    t_vars = [fresh(e.in_size) for e in g.edges]
    deg_in = {}
    for j in range(g.m):
        if not any(e.sender == j for e in g.edges):
            deg_in[j] = fresh(1)
    y_vars = [fresh(e.out_size) for e in g.edges]
    deg_out = {}
    for j in range(g.m):
        if not any(e.receiver == j for e in g.edges):
            deg_out[j] = fresh(1)

    z_sizes = [
        (e.wiretap.out_vars[0][1].size if e.wiretap is not None else 1) for e in g.edges
    ]
    z_total = math.prod(z_sizes)
    n_in = math.prod(e.in_size for e in g.edges)
    check_cells(n_in * math.prod(e.out_size for e in g.edges) * z_total, "flattened channel")
    z_var = fresh(z_total) if wiretapped else None

    # Build P(y_1..y_k, z_1..z_k | t_1..t_k) as a tensor, edge by edge.
    full = np.ones((1,))
    for e in g.edges:
        rows = e.channel.rows
        if e.wiretap is not None:
            block = rows[:, :, None] * e.wiretap.rows[None, :, :]
        else:
            block = rows[:, :, None]
        full = np.multiply.outer(full, block)
    # axes: (1, t1,y1,z1, t2,y2,z2, ...) -> (t..., y..., z...)
    k = len(g.edges)
    full = full.reshape(full.shape[1:])
    perm = (
        [3 * i for i in range(k)]
        + [3 * i + 1 for i in range(k)]
        + [3 * i + 2 for i in range(k)]
    )
    full = np.transpose(full, perm)
    rows_mat = full.reshape(n_in, -1)

    in_list = list(t_vars) + [deg_in[j] for j in sorted(deg_in)]
    out_list = list(y_vars) + [deg_out[j] for j in sorted(deg_out)]
    if z_var is not None:
        out_list.append(z_var)
    # degenerate axes have size 1: padding columns/rows is a no-op on the data
    channel = Dmc(tuple(in_list), tuple(out_list), rows_mat)

    input_groups = []
    output_groups = []
    for j in range(g.m):
        ti = [t_vars[i][0] for i, e in enumerate(g.edges) if e.sender == j]
        if not ti:
            ti = [deg_in[j][0]]
        yi = [y_vars[i][0] for i, e in enumerate(g.edges) if e.receiver == j]
        if not yi:
            yi = [deg_out[j][0]]
        input_groups.append(tuple(ti))
        output_groups.append(tuple(yi))

    return TransceiverModel(
        m=g.m,
        input_vars=tuple(input_groups),
        output_vars=tuple(output_groups),
        channel=channel,
        eve_var=z_var[0] if z_var is not None else None,
    )


def emulated_to_source(t: TransceiverModel, p_in: JointPMF) -> SourceModel:
    """Source model realized by feeding IID inputs ``p_in`` to the channel.

    Terminal j owns (T_j, Y_j); the channel's eavesdropper output, when
    present, becomes the source model's eve variable.
    """
    joint = compose(p_in, t.channel)
    return SourceModel(
        pmf=joint,
        terminal_vars=t.terminal_vars(),
        eve_var=t.eve_var,
    )
