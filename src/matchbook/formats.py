"""Canonical JSON file formats for graphs and embeddings.

A graph file holds name, n and the sorted edge list; an embedding file
holds the graph inline plus the spine and the page array parallel to the
canonical edge order. Parsers reject duplicate edges, out-of-range
indices, non-permutation spines, page indices outside 0..page_count-1
and a page_count other than the largest page index plus one (so unused
pages below it are allowed), each with its own diagnostic. A family tag
is trusted by the constructions, so it must name a kind of
``graphs.FAMILIES`` with its number of arguments, or be a product of two
factor graphs nested at most ``MAX_PRODUCT_DEPTH`` product tags deep; it
must agree with the document's n and m in closed form, and then
regenerate exactly the document's edges. The size check comes first, so
a tag that claims a huge graph is rejected without building it. ``dumps``
writes every document as one line of ASCII JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

from .graphs import FAMILIES, Graph, cartesian_product, n_left, product_labels
from .layout import BookEmbedding, MalformedEmbeddingError, check_structure, is_int


MAX_PRODUCT_DEPTH = 64


class FormatError(ValueError):
    """Input document violates the canonical file format."""


def _family_to_json(fam: tuple | None):
    if fam is None:
        return None
    if fam[0] == "product":
        return {
            "kind": "product",
            "left": graph_to_dict(fam[1]),
            "right": graph_to_dict(fam[2]),
        }
    return {"kind": fam[0], "args": list(fam[1:])}


def _check_family(g: Graph) -> None:
    """Raises FormatError unless g's family tag describes g exactly."""
    if g.family is None:
        return
    kind, *args = g.family
    if kind == "product":
        left, right = args
        label, build = "product", cartesian_product
        size = (left.n * right.n, left.m * right.n + right.m * left.n)
    else:
        build, flags, closed_form = FAMILIES[kind]
        if len(args) != len(flags):
            raise FormatError(f"family {kind} takes {len(flags)} argument(s), got {len(args)}")
        label = f"{kind}({', '.join(map(str, args))})"
        size = closed_form(*args)
    if size != (g.n, g.m):
        raise FormatError(f"family {label} does not match the graph's n={g.n}, m={g.m}")
    try:
        regenerated = build(*args)
    except ValueError as exc:
        raise FormatError(f"family {label}: {exc}") from None
    if regenerated != g:
        raise FormatError(f"family {label} edges differ from the graph's")


def _family_from_json(doc, depth: int) -> tuple | None:
    if doc is None:
        return None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("family must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "product":
        if depth >= MAX_PRODUCT_DEPTH:
            raise FormatError(f"product family tags are nested more than {MAX_PRODUCT_DEPTH} deep")
        return ("product", *(parse_graph_dict(doc.get(side), depth + 1) for side in ("left", "right")))
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise FormatError(f"unknown family kind {kind!r}")
    args = doc.get("args", [])
    if not (isinstance(args, list) and all(is_int(a) for a in args)):
        raise FormatError("family args must be integers")
    return (kind, *args)


def graph_to_dict(g: Graph) -> dict:
    doc = {
        "type": "graph",
        "name": g.name,
        "n": g.n,
        "edges": [list(e) for e in g.edges],
    }
    fam = _family_to_json(g.family)
    if fam is not None:
        doc["family"] = fam
    block = n_left(g)
    if block:
        doc["product_labels"] = [[lab.left, lab.right] for lab in product_labels(block, g.n // block)]
    return doc


def parse_graph_dict(doc, depth: int = 0) -> Graph:
    """The graph a document holds; ``depth`` counts the product tags it is
    nested in."""
    if not isinstance(doc, dict):
        raise FormatError("graph document must be a JSON object")
    n = doc.get("n")
    if not is_int(n) or n < 0:
        raise FormatError("field 'n' must be a nonnegative integer")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise FormatError("field 'edges' must be a list of pairs")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(is_int(x) for x in e)):
            raise FormatError(f"edge entry {e!r} is not a pair of integers")
        pairs.append((e[0], e[1]))
    name = doc.get("name", "G")
    if not isinstance(name, str):
        raise FormatError("field 'name' must be a string")
    try:
        g = Graph(n, tuple(pairs), name=name, family=_family_from_json(doc.get("family"), depth))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    _check_family(g)
    return g


def embedding_to_dict(emb: BookEmbedding, scheme: str | None = None) -> dict:
    doc = {
        "type": "embedding",
        "graph": graph_to_dict(emb.graph),
        "spine": list(emb.spine),
        "pages": list(emb.pages),
        "page_count": emb.page_count,
    }
    if scheme is not None:
        doc["scheme"] = scheme
    return doc


def parse_embedding_dict(doc) -> BookEmbedding:
    if not isinstance(doc, dict):
        raise FormatError("embedding document must be a JSON object")
    g = parse_graph_dict(doc.get("graph"))
    spine, pages = doc.get("spine"), doc.get("pages")
    for key, value in (("spine", spine), ("pages", pages)):
        if not (isinstance(value, list) and all(is_int(x) for x in value)):
            raise FormatError(f"field '{key}' must be a list of integers")
    page_count = doc.get("page_count")
    if not is_int(page_count):
        raise FormatError("field 'page_count' must be an integer")
    if doc.get("scheme") is not None and not isinstance(doc["scheme"], str):
        raise FormatError("field 'scheme' must be a string")
    emb = BookEmbedding(g, tuple(spine), tuple(pages), page_count)
    try:
        check_structure(emb)
    except MalformedEmbeddingError as exc:
        raise FormatError(str(exc)) from None
    return emb


def dumps(doc: dict) -> str:
    """The one text form of every document and result: one line of ASCII
    JSON (other characters escaped), so its size is linear in the document."""
    return json.dumps(doc) + "\n"


def _parse(parse, text: str):
    try:
        return parse(json.loads(text))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("document is nested too deeply") from None


def parse_graph_text(text: str, depth: int = 0) -> Graph:
    return _parse(lambda doc: parse_graph_dict(doc, depth), text)


def parse_embedding_text(text: str) -> BookEmbedding:
    return _parse(parse_embedding_dict, text)


def load_graph(path: str | Path, depth: int = 0) -> Graph:
    """``depth`` counts the product tags the graph is nested in."""
    return parse_graph_text(Path(path).read_text(), depth)


def load_embedding(path: str | Path) -> BookEmbedding:
    return parse_embedding_text(Path(path).read_text())


def save_embedding(emb: BookEmbedding, path: str | Path, scheme: str | None = None) -> None:
    Path(path).write_text(dumps(embedding_to_dict(emb, scheme)))
