import json
import pathlib

import numpy as np
import pytest

from skacap.errors import ModelError
from skacap.modelio import dumps_canonical, parse_model, serialize_model
from skacap.models import (
    PartySpec,
    Polytree,
    SourceModel,
    TransceiverModel,
    as_mask,
    bits,
    edge,
    emulated_to_source,
    polytree_to_transceiver,
)
from skacap.prob import (
    Alphabet,
    Dmc,
    JointPMF,
    bsc_matrix,
    marginalize,
    uniform_pmf,
)

SAMPLES = pathlib.Path(__file__).parents[1] / "sample_models"


def source_doc():
    return {
        "kind": "source",
        "terminals": 2,
        "variables": [
            {"id": 0, "size": 2, "owner": 1},
            {"id": 1, "size": 2, "owner": 2},
        ],
        "pmf": [0.5, 0.0, 0.0, 0.5],
    }


def test_party_spec_invariants():
    with pytest.raises(ModelError):
        PartySpec(2, a=0)
    with pytest.raises(ModelError):
        PartySpec(2, a=0b01, d=0b01)
    with pytest.raises(ModelError):
        PartySpec(2, a=0b100)
    spec = PartySpec.from_one_based(3, [1, 2], [3])
    assert spec.a == 0b011 and spec.d == 0b100
    assert spec.d_complement == 0b011


def test_parse_minimal_source():
    model = parse_model(json.dumps(source_doc()).encode())
    assert isinstance(model, SourceModel)
    assert model.m == 2
    assert model.terminal_vars == (frozenset({0}), frozenset({1}))


def test_source_round_trip_canonical():
    raw = json.dumps(source_doc()).encode()
    model = parse_model(raw)
    blob = serialize_model(model)
    again = parse_model(blob)
    assert serialize_model(again) == blob
    # canonical form is stable regardless of input key order
    shuffled = json.dumps(source_doc(), sort_keys=False).encode()
    assert serialize_model(parse_model(shuffled)) == blob


def test_parse_source_schema_errors():
    doc = source_doc()
    del doc["pmf"]
    with pytest.raises(ModelError, match=r"\$: missing required field 'pmf'"):
        parse_model(json.dumps(doc))
    doc = source_doc()
    doc["variables"][0]["owner"] = 7
    with pytest.raises(ModelError, match=r"variables\[0\].owner"):
        parse_model(json.dumps(doc))
    doc = source_doc()
    doc["pmf"] = [0.5, 0.0, 0.0, 0.4]
    with pytest.raises(ModelError, match=r"\$.pmf"):
        parse_model(json.dumps(doc))


def test_parse_polytree_and_cycle_error():
    doc = {
        "kind": "polytree",
        "terminals": 3,
        "edges": [
            {"from": 1, "to": 2, "channel": [[0.9, 0.1], [0.1, 0.9]]},
            {"from": 2, "to": 3, "channel": [[0.8, 0.2], [0.2, 0.8]]},
        ],
    }
    g = parse_model(json.dumps(doc))
    assert isinstance(g, Polytree)
    assert serialize_model(parse_model(serialize_model(g))) == serialize_model(g)

    doc["edges"].append({"from": 3, "to": 1, "channel": [[1.0, 0.0], [0.0, 1.0]]})
    doc["terminals"] = 3
    with pytest.raises(ModelError, match="not a tree"):
        parse_model(json.dumps(doc))


def test_parse_transceiver_row_sum_error_names_row():
    doc = {
        "kind": "transceiver",
        "terminals": 3,
        "inputs": [
            {"id": 0, "size": 2, "terminal": 1},
            {"id": 1, "size": 1, "terminal": 2},
            {"id": 2, "size": 1, "terminal": 3},
        ],
        "outputs": [
            {"id": 3, "size": 1, "terminal": 1},
            {"id": 4, "size": 2, "terminal": 2},
            {"id": 5, "size": 1, "terminal": 3},
        ],
        "rows": [[0.9, 0.1], [0.49, 0.49]],
    }
    with pytest.raises(ModelError, match=r"row 1 sums to 0\.98"):
        parse_model(json.dumps(doc))
    doc["rows"][1] = [0.5, 0.5]
    model = parse_model(json.dumps(doc))
    assert isinstance(model, TransceiverModel)
    assert serialize_model(parse_model(serialize_model(model))) == serialize_model(model)


def test_canonical_float_format():
    blob = dumps_canonical({"x": 1.0 / 3.0, "a": 1})
    assert blob == b'{"a":1,"x":0.33333333333333331}\n'


def test_polytree_single_edge_to_transceiver():
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.1)),))
    t = polytree_to_transceiver(g)
    assert t.m == 2
    # squeeze degenerate axes: channel equals the BSC matrix
    rows = t.channel.rows
    np.testing.assert_allclose(rows, bsc_matrix(0.1), atol=1e-15)


def kron_oracle(mats):
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def test_polytree_path_channel_is_kronecker_product():
    b1, b2 = bsc_matrix(0.1), bsc_matrix(0.2)
    g = Polytree(3, (edge(0, 1, b1), edge(1, 2, b2)))
    t = polytree_to_transceiver(g)
    np.testing.assert_allclose(t.channel.rows, kron_oracle([b1, b2]), atol=1e-15)
    # terminal groups: 1 sends on edge0, 2 receives edge0 and sends edge1
    assert len(t.input_vars[1]) == 1 and len(t.output_vars[1]) == 1
    assert t.channel.rows.shape == (4, 4)


def test_polytree_random_trees_channel_is_edge_product():
    # channel rows decompose as the Kronecker product of edge matrices
    # (t and y axes are both ordered by edge index)
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = int(rng.integers(2, 6))
        edges = []
        for j in range(1, m):
            other = int(rng.integers(0, j))
            rows = rng.dirichlet(np.ones(2), size=2)
            edges.append(edge(other, j, rows) if rng.random() < 0.5 else edge(j, other, rows))
        g = Polytree(m, tuple(edges))
        t = polytree_to_transceiver(g)
        expect = kron_oracle([e.channel.rows for e in g.edges])
        np.testing.assert_allclose(t.channel.rows, expect, atol=1e-12)


def test_polytree_star_output_alphabet():
    g = Polytree(
        4,
        (
            edge(0, 1, bsc_matrix(0.05)),
            edge(0, 2, bsc_matrix(0.05)),
            edge(0, 3, np.eye(3)),
        ),
    )
    t = polytree_to_transceiver(g)
    n_out = int(np.prod([a.size for _, a in t.channel.out_vars]))
    assert n_out == 2 * 2 * 3


def test_polytree_wiretap_merges_single_eve_variable():
    g = Polytree(
        3,
        (
            edge(0, 1, bsc_matrix(0.1), wiretap_rows=bsc_matrix(0.3)),
            edge(1, 2, bsc_matrix(0.2)),
        ),
    )
    t = polytree_to_transceiver(g)
    assert t.eve_var is not None
    assert dict(t.channel.out_vars)[t.eve_var].size == 2  # one wiretapped edge


def test_emulated_to_source_identity_channel():
    ident = Dmc([(0, Alphabet(2))], [(1, Alphabet(2))], np.eye(2))
    t = TransceiverModel(
        m=2,
        input_vars=((0,), (2,)),
        output_vars=((3,), (1,)),
        channel=Dmc(
            [(0, Alphabet(2)), (2, Alphabet(1))],
            [(3, Alphabet(1)), (1, Alphabet(2))],
            np.eye(2),
        ),
    )
    p_in = uniform_pmf(t.channel.in_vars)
    src = emulated_to_source(t, p_in)
    assert src.m == 2
    pair = marginalize(src.pmf, {0, 1})
    np.testing.assert_allclose(pair.probs, [0.5, 0.0, 0.0, 0.5])


def test_emulated_to_source_preserves_input_marginal():
    rng = np.random.default_rng(2)
    g = Polytree(3, (edge(0, 1, bsc_matrix(0.11)), edge(2, 1, bsc_matrix(0.2))))
    t = polytree_to_transceiver(g)
    flat = rng.dirichlet(np.ones(int(np.prod([a.size for _, a in t.channel.in_vars]))))
    p_in = JointPMF(t.channel.in_vars, flat)
    src = emulated_to_source(t, p_in)
    back = marginalize(src.pmf, set(p_in.ids))
    np.testing.assert_allclose(back.probs, p_in.probs, atol=1e-12)
    assert src.eve_var is None


def test_point_mass_input_gives_zero_shared_randomness():
    g = Polytree(2, (edge(0, 1, bsc_matrix(0.11)),))
    t = polytree_to_transceiver(g)
    flat = np.zeros(int(np.prod([a.size for _, a in t.channel.in_vars])))
    flat[0] = 1.0
    src = emulated_to_source(t, JointPMF(t.channel.in_vars, flat))
    # input variable is constant: its marginal entropy is zero
    from skacap.prob import entropy

    t_var = t.input_vars[0][0]
    assert entropy(src.pmf, {t_var}) == pytest.approx(0.0, abs=1e-12)


def transceiver_doc():
    return json.loads((SAMPLES / "transceiver_bsc.json").read_text())


def polytree_doc():
    return json.loads((SAMPLES / "polytree_wiretapped.json").read_text())


def _nan_source(doc, bad):
    doc["pmf"][1] = bad
    return r"\$\.pmf"


def _nan_transceiver(doc, bad):
    doc["rows"][0][0] = bad
    return r"\$\.rows"


def _nan_polytree_channel(doc, bad):
    doc["edges"][0]["channel"][0][0] = bad
    return r"\$\.edges\[0\]\.channel"


def _nan_polytree_wiretap(doc, bad):
    doc["edges"][-1]["wiretap"][1][0] = bad
    return rf"\$\.edges\[{len(doc['edges']) - 1}\]\.wiretap"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make,spoil", [
    (source_doc, _nan_source),
    (transceiver_doc, _nan_transceiver),
    (polytree_doc, _nan_polytree_channel),
    (polytree_doc, _nan_polytree_wiretap),
], ids=["source", "transceiver", "polytree-channel", "polytree-wiretap"])
def test_parse_rejects_non_finite_numbers(make, spoil, bad):
    # json reads NaN and Infinity, and NaN passes every comparison-based check
    doc = make()
    where = spoil(doc, bad)
    text = json.dumps(doc)
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ModelError, match=where + ": expected finite numbers"):
        parse_model(text)


def test_terminal_numbers_past_m_are_refused_before_a_mask():
    # 1 << t for these would take gigabytes
    with pytest.raises(ModelError, match=r"^A references unknown terminals: \[100000000001\]$"):
        PartySpec.from_one_based(2, [1, 100_000_000_001])
    with pytest.raises(ModelError, match=r"^D references unknown terminals: \[100000000001\]$"):
        PartySpec.from_one_based(2, [1], [100_000_000_001])
    with pytest.raises(ModelError, match=r"^A references unknown terminals: \[100000000001\]$"):
        as_mask([0, 100_000_000_000], 2)
    assert as_mask([0, 1], 2) == 0b11
    with pytest.raises(ModelError, match=r"^D references unknown terminals: \[4, 6\]$"):
        PartySpec(3, 0b1, 0b101000)
    assert bits((1 << 3_000_000) | 1) == [0, 3_000_000]  # one step per set bit


@pytest.mark.parametrize("doc, where", [
    ({**source_doc(), "terminals": 3}, "only 2 variables"),
    ({**json.loads((SAMPLES / "transceiver_bsc.json").read_text()), "terminals": 500_000},
     "only 2 inputs"),
    ({"kind": "polytree", "terminals": 4,
      "edges": [{"from": 1, "to": 2, "channel": [[1.0, 0.0], [0.0, 1.0]]},
                {"from": 2, "to": 3, "channel": [[1.0, 0.0], [0.0, 1.0]]}]},
     "a tree on 2 edges has only 3"),
], ids=["source", "transceiver", "polytree"])
def test_terminals_are_bounded_by_the_file(doc, where):
    with pytest.raises(ModelError, match=r"\$\.terminals: .*" + where):
        parse_model(json.dumps(doc))


def _set(path, value):
    """A spoiler that sets the entry at ``path`` (a key/index sequence)."""
    def spoil(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return spoil


FINITE = "expected finite numbers, got NaN or Infinity"


@pytest.mark.parametrize("make, spoil, message", [
    (source_doc, _set(("pmf", 1), float("nan")), f"$.pmf: {FINITE}"),
    (source_doc, _set(("pmf",), [0.75, -0.25, 0.0, 0.5]),
     "$.pmf: negative probability -2.500e-01"),
    (source_doc, _set(("pmf",), [0.5, 0.0, 0.0, 0.25]),
     "$.pmf: pmf sums to 0.75, not 1 within 1e-12"),
    (source_doc, _set(("pmf",), [0.5, 0.5]),
     "$.pmf: pmf has 2 entries, expected 4 for the declared alphabets"),
    (transceiver_doc, _set(("rows", 0, 1), float("inf")), f"$.rows: {FINITE}"),
    (transceiver_doc, _set(("rows", 1), [1.25, -0.25]),
     "$.rows: channel has a negative transition probability"),
    (transceiver_doc, _set(("rows", 1), [0.5, 0.25]),
     "$.rows: channel row 1 sums to 0.75, not 1 within 1e-12"),
    (transceiver_doc, _set(("rows",), [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
     "$.rows: channel has 6 entries, expected 2 x 2 for the declared alphabets"),
    (polytree_doc, _set(("edges", 0, "channel", 0, 0), float("-inf")),
     f"$.edges[0].channel: {FINITE}"),
    (polytree_doc, _set(("edges", 0, "channel", 0), [1.5, -0.5]),
     "$.edges[0]: channel has a negative transition probability"),
    (polytree_doc, _set(("edges", 0, "wiretap", 1), [0.25, 0.25]),
     "$.edges[0]: channel row 1 sums to 0.5, not 1 within 1e-12"),
    (polytree_doc, _set(("edges", 0, "channel"), [0.5, 0.5]),
     "$.edges[0]: channel must be a matrix of rows, got 1 dimension(s)"),
    (polytree_doc, _set(("edges", 0, "wiretap"), 1.0),
     "$.edges[0]: wiretap must be a matrix of rows, got 0 dimension(s)"),
], ids=["source-non-finite", "source-negative", "source-sum", "source-size",
        "transceiver-non-finite", "transceiver-negative", "transceiver-row-sum",
        "transceiver-size", "polytree-non-finite", "polytree-negative",
        "polytree-wiretap-row-sum", "polytree-vector-channel", "polytree-scalar-wiretap"])
def test_parse_refusals_keep_their_messages_behind_the_field_path(make, spoil, message):
    doc = make()
    spoil(doc)
    with pytest.raises(ModelError) as exc:
        parse_model(json.dumps(doc))
    assert str(exc.value) == message
