import contextlib
import copy
import io
import json
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchbook.cli import main
from matchbook.constructions import complete_embedding, kpcq_embedding
from matchbook.formats import (
    MAX_PRODUCT_DEPTH,
    FormatError,
    dumps,
    embedding_to_dict,
    graph_to_dict,
    load_embedding,
    load_graph,
    parse_embedding_dict,
    parse_embedding_text,
    parse_graph_dict,
    parse_graph_text,
    save_embedding,
)
from matchbook.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    kpcq,
    path,
)
from matchbook.layout import BookEmbedding
from graph_files import save_graph

GENERATED = [
    complete(1),
    complete(5),
    cycle(3),
    cycle(6),
    path(4),
    complete_bipartite(3, 3),
    hypercube(3),
    kpcq(5, 3),
    cartesian_product(complete(3), path(3)),
]


@pytest.mark.parametrize("g", GENERATED, ids=lambda g: g.name)
def test_graph_round_trip(g):
    doc = parse_graph_text(dumps(graph_to_dict(g)))
    assert doc == g
    assert doc.name == g.name
    # family survives, including nested product factors
    if g.family:
        assert doc.family[0] == g.family[0]


def test_graph_file_round_trip(tmp_path):
    p = tmp_path / "g.json"
    save_graph(kpcq(4, 3), p)
    g = load_graph(p)
    assert g == kpcq(4, 3) and g.family == ("kpcq", 4, 3)


def test_kpcq_file_carries_label_table():
    doc = graph_to_dict(kpcq(5, 3))
    assert doc["product_labels"][0] == [0, 0]
    assert doc["product_labels"][7] == [2, 1]  # id 7 = column 1, row 2
    assert len(doc["product_labels"]) == 15


def test_embedding_round_trip(tmp_path):
    emb = complete_embedding(5)
    p = tmp_path / "e.json"
    save_embedding(emb, p, scheme="complete-congruence")
    assert load_embedding(p) == emb
    assert json.loads(p.read_text())["scheme"] == "complete-congruence"


def test_embedding_round_trip_product_graph(tmp_path):
    out = kpcq_embedding(4, 4)
    p = tmp_path / "e.json"
    save_embedding(out.embedding, p, scheme=out.scheme)
    assert load_embedding(p) == out.embedding


def test_graph_rejects_duplicate_edge():
    with pytest.raises(FormatError, match="duplicate edge"):
        parse_graph_text('{"n": 3, "edges": [[0, 1], [1, 0]]}')


def test_graph_rejects_out_of_range():
    with pytest.raises(FormatError, match="out of range"):
        parse_graph_text('{"n": 2, "edges": [[0, 7]]}')


def test_graph_rejects_self_loop():
    with pytest.raises(FormatError, match="self-loop"):
        parse_graph_text('{"n": 2, "edges": [[1, 1]]}')


def test_graph_rejects_bad_shapes():
    with pytest.raises(FormatError, match="must be a JSON object"):
        parse_graph_text("[1, 2]")
    with pytest.raises(FormatError, match="'n'"):
        parse_graph_text('{"edges": []}')
    with pytest.raises(FormatError, match="not a pair"):
        parse_graph_text('{"n": 3, "edges": [[0, 1, 2]]}')
    with pytest.raises(FormatError, match="not valid JSON"):
        parse_graph_text("{nope")


def _emb_doc(**overrides):
    doc = embedding_to_dict(complete_embedding(3))
    doc.update(overrides)
    return json.dumps(doc)


def test_embedding_rejects_non_permutation_spine():
    with pytest.raises(FormatError, match="not a permutation"):
        parse_embedding_text(_emb_doc(spine=[0, 1, 1]))


def test_embedding_rejects_wrong_pages_length():
    with pytest.raises(FormatError, match="entries for"):
        parse_embedding_text(_emb_doc(pages=[0, 1]))


def test_embedding_rejects_page_out_of_range():
    with pytest.raises(FormatError, match="out of range"):
        parse_embedding_text(_emb_doc(pages=[0, 1, 9]))


def test_embedding_rejects_non_contiguous_pages():
    with pytest.raises(FormatError, match="not contiguous"):
        parse_embedding_text(_emb_doc(page_count=7))


def test_embedding_rejects_bad_scheme_type():
    with pytest.raises(FormatError, match="'scheme'"):
        parse_embedding_text(_emb_doc(scheme=3))


# JSON true/false parse to bool, a subclass of int; none may stand for 0 or 1


def test_graph_rejects_boolean_n():
    with pytest.raises(FormatError, match="'n'"):
        parse_graph_text('{"n": true, "edges": []}')


def test_graph_rejects_boolean_edge_endpoint():
    with pytest.raises(FormatError, match="not a pair of integers"):
        parse_graph_text('{"n": 3, "edges": [[0, true], [1, 2]]}')


def test_embedding_rejects_boolean_spine_entry():
    with pytest.raises(FormatError, match="'spine'"):
        parse_embedding_text(_emb_doc(spine=[0, True, 2]))


def test_embedding_rejects_boolean_page():
    doc = embedding_to_dict(complete_embedding(3))
    pages = [True if p == 1 else p for p in doc["pages"]]
    assert True in pages
    with pytest.raises(FormatError, match="'pages'"):
        parse_embedding_text(_emb_doc(pages=pages))


def test_embedding_rejects_boolean_page_count():
    doc = embedding_to_dict(BookEmbedding(path(2), (0, 1), (0,), 1))
    doc["page_count"] = True
    with pytest.raises(FormatError, match="'page_count'"):
        parse_embedding_text(json.dumps(doc))


def test_graph_rejects_boolean_family_arg():
    with pytest.raises(FormatError, match="family args"):
        parse_graph_text(
            '{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "family": {"kind": "cycle", "args": [true]}}'
        )


# a family tag is checked against the document before anything trusts it

TRIANGLE = '{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "family": %s}'


def test_graph_rejects_family_with_wrong_arity():
    with pytest.raises(FormatError, match="kpcq takes 2 argument"):
        parse_graph_text(TRIANGLE % '{"kind": "kpcq", "args": []}')


def test_graph_rejects_family_of_another_size():
    # rejected from the closed form, without building a 3,000-vertex cycle
    with pytest.raises(FormatError, match=r"cycle\(3000\) does not match"):
        parse_graph_text(TRIANGLE % '{"kind": "cycle", "args": [3000]}')
    with pytest.raises(FormatError, match="does not match"):
        parse_graph_text(TRIANGLE % '{"kind": "hypercube", "args": [1000000000000]}')


def test_graph_rejects_family_with_other_edges():
    # four vertices and four edges, like C4, but a triangle with a pendant
    doc = {"n": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]], "family": {"kind": "cycle", "args": [4]}}
    with pytest.raises(FormatError, match="edges differ"):
        parse_graph_text(json.dumps(doc))
    doc = graph_to_dict(cartesian_product(complete(3), path(3)))
    doc["family"]["right"] = graph_to_dict(cycle(3))
    with pytest.raises(FormatError, match="product does not match"):
        parse_graph_text(json.dumps(doc))


@pytest.mark.parametrize(
    "family",
    [
        '{"kind": "nosuch", "args": [3]}',
        '{"kind": ["cycle"], "args": [3]}',
        '{"kind": "cycle", "args": 3}',
        '{"kind": "product"}',
    ],
)
def test_graph_rejects_malformed_family(family):
    with pytest.raises(FormatError):
        parse_graph_text(TRIANGLE % family)


def test_graph_rejects_family_outside_generator_domain():
    # K0 has the size of the empty document, but the generator refuses it
    with pytest.raises(FormatError, match=r"complete\(0\): complete graph needs p >= 1"):
        parse_graph_text('{"n": 0, "edges": [], "family": {"kind": "complete", "args": [0]}}')


# parser fuzzing: anything that is not a well-formed document is a FormatError

FIELDS = ["n", "edges", "name", "family", "kind", "args", "left", "right", "graph", "spine", "pages", "page_count", "scheme"]
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**64), 2**64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

GRAPH_DOCS = [graph_to_dict(g) for g in (cycle(4), kpcq(3, 3), cartesian_product(complete(2), path(2)))]
# the seed embeddings, K3's congruence pages and K3xC3's snake scheme, are
# written out, so that importing this module runs no construction and no
# validation, and a mutant of either fails a test, not the module's collection
EMBEDDING_DOCS = [
    embedding_to_dict(BookEmbedding(complete(3), (0, 1, 2), (1, 2, 0), 3), "complete-congruence"),
    embedding_to_dict(
        BookEmbedding(kpcq(3, 3), (2, 1, 0, 3, 4, 5, 8, 7, 6), (2, 4, 3, 0, 0, 3, 1, 3, 2, 0, 1, 4, 2, 4, 4, 2, 3, 0), 5),
        "kpcq-odd-direct",
    ),
]


@st.composite
def mutated(draw, bases):
    """A valid document with one to three values replaced or deleted at any depth."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(JSON)
            break
    return doc


# a family tag's sizes are checked in closed form and its regeneration costs
# O(edges), so a document claiming a huge graph parses in bounded time; an
# edgeless graph, and the product of K1 and an edgeless factor when its n
# and its right factor's n grow together, stay well formed at any size
HUGE = st.sampled_from([2**31, 10**12, 2**63, 2**64]) | st.integers(2**20, 2**64)
EDGELESS = [graph_to_dict(Graph(3)), graph_to_dict(cartesian_product(Graph(1), Graph(3)))]


def _size_fields(node, out):
    """(container, key) of every 'n' field and family argument in a document."""
    if isinstance(node, dict):
        for key, child in node.items():
            if key == "n":
                out.append((node, key))
            elif key == "args":
                out.extend((child, i) for i in range(len(child)))
            else:
                _size_fields(child, out)
    elif isinstance(node, list):
        for child in node:
            _size_fields(child, out)
    return out


@st.composite
def inflated(draw, bases):
    """A valid document with one to three of its sizes set to one huge value."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    fields = _size_fields(doc, [])
    value = draw(HUGE)
    for container, key in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3)):
        container[key] = value
    return doc


class ExampleOverran(Exception):
    """An example ran past its wall-clock bound."""


@contextlib.contextmanager
def within(seconds: float):
    """Interrupt the body once it has run for `seconds` of wall time."""

    def expire(signum, frame):
        raise ExampleOverran(f"example ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _format_error(parse, doc) -> bool:
    """True when parse rejects doc; any exception but FormatError escapes."""
    try:
        parse(doc)
    except FormatError:
        return True
    return False


def _cli_rejects(*argv, diagnostic="format error: ") -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 2 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(diagnostic), lines


@given(doc=JSON | mutated(GRAPH_DOCS) | inflated(GRAPH_DOCS + EDGELESS))
def test_graph_parser_raises_only_format_error(doc):
    with within(0.5), tempfile.TemporaryDirectory() as tmp:
        if _format_error(parse_graph_dict, doc):
            gp, ep = Path(tmp, "g.json"), Path(tmp, "e.json")
            gp.write_text(json.dumps(doc))
            save_embedding(complete_embedding(3), ep)
            _cli_rejects("embed", str(gp))
            _cli_rejects("verify", str(gp), str(ep))
        elif doc["n"] >= 2**20:
            # a well-formed claim of a huge graph with a few edges: too few
            # to connect it, which solve and embed decide at once
            gp = Path(tmp, "g.json")
            gp.write_text(json.dumps(doc))
            _cli_rejects("embed", str(gp), diagnostic="error: ")
            _cli_rejects("solve", str(gp), diagnostic="error: ")


@given(doc=JSON | mutated(EMBEDDING_DOCS) | inflated(EMBEDDING_DOCS))
def test_embedding_parser_raises_only_format_error(doc):
    with within(0.5), tempfile.TemporaryDirectory() as tmp:
        if _format_error(parse_embedding_dict, doc):
            gp, ep = Path(tmp, "g.json"), Path(tmp, "e.json")
            save_graph(complete(3), gp)
            ep.write_text(json.dumps(doc))
            _cli_rejects("verify", str(gp), str(ep))


def test_embedding_of_a_huge_graph_is_rejected_by_spine_length():
    # the permutation check must not build range(n) for a claimed n; for
    # n >= 2**63 that was an OverflowError, not a FormatError
    doc = {"graph": {"n": 2**64, "edges": []}, "spine": [], "pages": [], "page_count": 0}
    with pytest.raises(FormatError, match="not a permutation"):
        parse_embedding_dict(doc)


def test_product_tags_nest_at_most_max_depth():
    g = Graph(1)
    for _ in range(MAX_PRODUCT_DEPTH):
        g = cartesian_product(g, Graph(1))
    doc = graph_to_dict(g)
    assert parse_graph_dict(doc).family[0] == "product"
    deeper = {"n": 1, "edges": [], "family": {"kind": "product", "left": doc, "right": {"n": 1, "edges": []}}}
    with pytest.raises(FormatError, match=f"nested more than {MAX_PRODUCT_DEPTH} deep"):
        parse_graph_dict(deeper)
    # the right factor's nesting counts as much as the left's
    deeper["family"]["left"], deeper["family"]["right"] = deeper["family"]["right"], doc
    with pytest.raises(FormatError, match="nested more than"):
        parse_graph_dict(deeper)
