"""Canonical JSON file formats for graphs and embeddings.

A graph file holds name, n and the sorted edge list; an embedding file
holds the graph inline plus the spine and the page array parallel to the
canonical edge order. Parsers reject duplicate edges, out-of-range
indices, non-permutation spines and non-contiguous page indices, each
with its own diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .graphs import Graph, product_labels
from .layout import BookEmbedding, MalformedEmbeddingError, check_structure


class FormatError(ValueError):
    """Input document violates the canonical file format."""


def _is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` parse to bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


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


def _family_from_json(doc) -> tuple | None:
    if doc is None:
        return None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("family must be an object with a 'kind' field")
    if doc["kind"] == "product":
        return ("product", parse_graph_dict(doc["left"]), parse_graph_dict(doc["right"]))
    args = doc.get("args", [])
    if not all(_is_int(a) for a in args):
        raise FormatError("family args must be integers")
    return (doc["kind"], *args)


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
    if g.family and g.family[0] in ("product", "kpcq"):
        n_left = g.family[1].n if g.family[0] == "product" else g.family[1]
        doc["product_labels"] = [
            [lab.left, lab.right] for lab in product_labels(n_left, g.n // n_left)
        ]
    return doc


def parse_graph_dict(doc) -> Graph:
    if not isinstance(doc, dict):
        raise FormatError("graph document must be a JSON object")
    n = doc.get("n")
    if not _is_int(n) or n < 0:
        raise FormatError("field 'n' must be a nonnegative integer")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise FormatError("field 'edges' must be a list of pairs")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            raise FormatError(f"edge entry {e!r} is not a pair of integers")
        pairs.append((e[0], e[1]))
    name = doc.get("name", "G")
    if not isinstance(name, str):
        raise FormatError("field 'name' must be a string")
    try:
        return Graph(n, tuple(pairs), name=name, family=_family_from_json(doc.get("family")))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


@dataclass(frozen=True)
class EmbeddingDocument:
    embedding: BookEmbedding
    scheme: str | None = None
    repaired: bool | None = None


def embedding_to_dict(
    emb: BookEmbedding, scheme: str | None = None, repaired: bool | None = None
) -> dict:
    doc = {
        "type": "embedding",
        "graph": graph_to_dict(emb.graph),
        "spine": list(emb.spine),
        "pages": list(emb.pages),
        "page_count": emb.page_count,
    }
    if scheme is not None:
        doc["scheme"] = scheme
    if repaired is not None:
        doc["repaired"] = repaired
    return doc


def parse_embedding_dict(doc) -> EmbeddingDocument:
    if not isinstance(doc, dict):
        raise FormatError("embedding document must be a JSON object")
    g = parse_graph_dict(doc.get("graph"))
    spine = doc.get("spine")
    if not (isinstance(spine, list) and all(_is_int(x) for x in spine)):
        raise FormatError("field 'spine' must be a list of integers")
    if sorted(spine) != list(range(g.n)):
        raise FormatError("spine is not a permutation of 0..n-1")
    pages = doc.get("pages")
    if not (isinstance(pages, list) and all(_is_int(x) for x in pages)):
        raise FormatError("field 'pages' must be a list of integers")
    if len(pages) != g.m:
        raise FormatError(f"pages has {len(pages)} entries for {g.m} edges")
    page_count = doc.get("page_count")
    if not _is_int(page_count):
        raise FormatError("field 'page_count' must be an integer")
    if any(p < 0 or p >= page_count for p in pages):
        raise FormatError("page index out of range 0..page_count-1")
    expected = max(pages) + 1 if pages else 0
    if page_count != expected:
        raise FormatError(
            f"page indices not contiguous: page_count {page_count}, expected {expected}"
        )
    scheme = doc.get("scheme")
    if scheme is not None and not isinstance(scheme, str):
        raise FormatError("field 'scheme' must be a string")
    repaired = doc.get("repaired")
    if repaired is not None and not isinstance(repaired, bool):
        raise FormatError("field 'repaired' must be a boolean")
    emb = BookEmbedding(g, tuple(spine), tuple(pages), page_count)
    try:
        check_structure(emb)
    except MalformedEmbeddingError as exc:  # belt and braces
        raise FormatError(str(exc)) from None
    return EmbeddingDocument(emb, scheme, repaired)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None


def parse_graph_text(text: str) -> Graph:
    return parse_graph_dict(_loads(text))


def parse_embedding_text(text: str) -> EmbeddingDocument:
    return parse_embedding_dict(_loads(text))


def load_graph(path: str | Path) -> Graph:
    return parse_graph_text(Path(path).read_text())


def load_embedding(path: str | Path) -> EmbeddingDocument:
    return parse_embedding_text(Path(path).read_text())


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(dumps(graph_to_dict(g)))


def save_embedding(
    emb: BookEmbedding, path: str | Path, scheme: str | None = None, repaired: bool | None = None
) -> None:
    Path(path).write_text(dumps(embedding_to_dict(emb, scheme, repaired)))
