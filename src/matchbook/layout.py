"""Book embeddings over a linear spine, and the validator deciding whether
a spine order plus page assignment is a matching book embedding.

A page is valid when its edges are pairwise noncrossing under the spine
order and form a matching (no vertex carries two edges on one page). The
validator reports every violation rather than the first one found, so a
broken construction can be localised page by page.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import combinations

from .graphs import Edge, Graph

__all__ = [
    "BookEmbedding",
    "Crossing",
    "MatchingViolation",
    "ValidationReport",
    "MalformedEmbeddingError",
    "check_structure",
    "edges_cross",
    "validate",
    "rotate_spine",
    "reflect_spine",
]


class MalformedEmbeddingError(ValueError):
    """Structurally broken embedding, as opposed to a merely invalid one."""


@dataclass(frozen=True)
class BookEmbedding:
    """Spine permutation (position -> vertex) plus a page per canonical edge."""

    graph: Graph
    spine: tuple[int, ...]
    pages: tuple[int, ...]
    page_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "spine", tuple(self.spine))
        object.__setattr__(self, "pages", tuple(self.pages))


@dataclass(frozen=True)
class Crossing:
    page: int
    edge_a: Edge
    edge_b: Edge


@dataclass(frozen=True)
class MatchingViolation:
    page: int
    vertex: int
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    page_count: int
    violations: tuple[Crossing | MatchingViolation, ...]


def check_structure(emb: BookEmbedding) -> None:
    """Raise MalformedEmbeddingError unless the embedding is well formed."""
    g = emb.graph
    if len(emb.spine) != g.n or sorted(emb.spine) != list(range(g.n)):
        raise MalformedEmbeddingError("spine is not a permutation of 0..n-1")
    if len(emb.pages) != g.m:
        raise MalformedEmbeddingError(
            f"page assignment has {len(emb.pages)} entries for {g.m} edges"
        )
    expected = max(emb.pages) + 1 if emb.pages else 0
    for p in emb.pages:
        if not isinstance(p, int) or not 0 <= p < emb.page_count:
            raise MalformedEmbeddingError(f"page index {p!r} out of range 0..{emb.page_count - 1}")
    if emb.page_count != expected:
        raise MalformedEmbeddingError(
            f"page indices not contiguous: page_count {emb.page_count}, expected {expected}"
        )


def edges_cross(spine: tuple[int, ...], e1: Edge, e2: Edge) -> bool:
    """True iff the two edges interleave under the linear spine order.

    Edges sharing an endpoint never cross; they interact through the
    matching rule instead.
    """
    pos = {v: i for i, v in enumerate(spine)}
    try:
        a, b = sorted((pos[e1[0]], pos[e1[1]]))
        c, d = sorted((pos[e2[0]], pos[e2[1]]))
    except KeyError as exc:
        raise ValueError(f"endpoint {exc.args[0]} not on spine") from None
    if len({e1[0], e1[1], e2[0], e2[1]}) < 4:
        return False
    return a < c < b < d or c < a < d < b


def validate(emb: BookEmbedding) -> ValidationReport:
    """Exhaustively check the no-crossing rule and the matching rule."""
    check_structure(emb)
    g = emb.graph
    pos = [0] * g.n
    for i, v in enumerate(emb.spine):
        pos[v] = i
    by_page: dict[int, list[Edge]] = defaultdict(list)
    for edge, page in zip(g.edges, emb.pages):
        by_page[page].append(edge)

    violations: list[Crossing | MatchingViolation] = []
    for page, edges in by_page.items():
        spans = []
        for u, v in edges:
            pu, pv = pos[u], pos[v]
            spans.append((pu, pv) if pu < pv else (pv, pu))
        for i, j in combinations(range(len(edges)), 2):
            a, b = spans[i]
            c, d = spans[j]
            if a < c < b < d or c < a < d < b:
                ea, eb = sorted((edges[i], edges[j]))
                violations.append(Crossing(page, ea, eb))
        incident: dict[int, list[Edge]] = defaultdict(list)
        for edge in edges:
            incident[edge[0]].append(edge)
            incident[edge[1]].append(edge)
        for vertex, hit in incident.items():
            if len(hit) >= 2:
                violations.append(MatchingViolation(page, vertex, tuple(sorted(hit))))

    violations.sort(key=_violation_key)
    return ValidationReport(not violations, emb.page_count, tuple(violations))


def _violation_key(v: Crossing | MatchingViolation):
    if isinstance(v, Crossing):
        return (v.page, 0, v.edge_a, v.edge_b)
    return (v.page, 1, (v.vertex,), v.edges)


def rotate_spine(emb: BookEmbedding, k: int) -> BookEmbedding:
    """Cyclically rotate the spine by k positions; pages are untouched."""
    n = len(emb.spine)
    if n == 0:
        return emb
    k %= n
    return replace(emb, spine=emb.spine[k:] + emb.spine[:k])


def reflect_spine(emb: BookEmbedding) -> BookEmbedding:
    """Reverse the spine; pages are untouched."""
    return replace(emb, spine=emb.spine[::-1])
