"""Book embeddings over a linear spine, and the validator deciding whether
a spine order plus page assignment is a matching book embedding.

A page is valid when its edges are pairwise noncrossing under the spine
order and form a matching (no vertex carries two edges on one page). The
validator reports every violation rather than the first one found, so a
broken construction can be localised page by page.

This module owns the crossing rule, once: ``straddling`` reads the edges
with exactly one end strictly between two spine positions off the
spine's parity masks. ``crossings`` applies it to every edge of a spine,
and the validator reads its same-page crossings from there; the solver
builds its page-conflict masks from ``crossings`` and decides the
crossings of a spine prefix with ``straddling`` itself.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .graphs import Edge, Graph

__all__ = [
    "BookEmbedding",
    "Crossing",
    "MatchingViolation",
    "ValidationReport",
    "MalformedEmbeddingError",
    "check_structure",
    "crossings",
    "incidence",
    "straddling",
    "validate",
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


def incidence(n: int, edges) -> list[int]:
    """Per vertex, the bitmask of the indices of the edges at it."""
    inc = [0] * n
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    return inc


def straddling(odd, a: int, b: int) -> int:
    """The edges with exactly one end strictly between spine positions
    a < b, where ``odd[x]`` holds the edges with exactly one end among the
    first x spine vertices (the XOR of their incidence masks).

    ``odd[b] ^ odd[a + 1]`` XORs the incidence masks of the vertices
    strictly between a and b, so an edge with both ends there cancels out.
    Of the edges left, those sharing an end with the edge at (a, b) have
    their other end inside; every other one has one end inside and one
    outside [a, b], so it crosses that edge. Dropping the edges sharing an
    end with it leaves exactly the edges crossing it. The rule is
    symmetric and needs no history, and on a spine prefix it decides the
    crossings that hold in every order extending it.
    """
    return odd[b] ^ odd[a + 1]


def crossings(g: Graph, spine) -> list[int]:
    """Per canonical edge of g, the mask of the edges crossing it on spine."""
    inc = incidence(g.n, g.edges)
    odd = [0]  # odd[x]: the edges with exactly one end among the first x
    pos = [0] * g.n
    for here, v in enumerate(spine):
        odd.append(odd[-1] ^ inc[v])
        pos[v] = here
    return [
        straddling(odd, *sorted((pos[u], pos[v]))) & ~(inc[u] | inc[v]) for u, v in g.edges
    ]


def validate(emb: BookEmbedding) -> ValidationReport:
    """Exhaustively check the no-crossing rule and the matching rule."""
    check_structure(emb)
    g = emb.graph
    on_page = [0] * emb.page_count
    by_page: dict[int, list[Edge]] = defaultdict(list)
    for i, (edge, page) in enumerate(zip(g.edges, emb.pages)):
        on_page[page] |= 1 << i
        by_page[page].append(edge)

    violations: list[Crossing | MatchingViolation] = []
    # each same-page pair once, from its lower-indexed edge
    for i, cross in enumerate(crossings(g, emb.spine)):
        page = emb.pages[i]
        cross &= on_page[page] & -(2 << i)
        while cross:
            low = cross & -cross
            cross ^= low
            violations.append(Crossing(page, g.edges[i], g.edges[low.bit_length() - 1]))
    for page, edges in by_page.items():
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
