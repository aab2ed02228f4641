"""Book embeddings over a linear spine, and the validator deciding whether
a spine order plus page assignment is a matching book embedding.

A page is valid when its edges are pairwise noncrossing under the spine
order and form a matching (no vertex carries two edges on one page). The
validator reports every violation rather than the first one found, so a
broken construction can be localised page by page.

This module owns the crossing rule, once: ``closing_crossings`` places a
vertex to the right of a spine prefix and reports the crossings that
placement decides. The validator folds it over a whole spine, and the
solver builds its page-conflict masks, and searches spine prefixes, with
the same function.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from .graphs import Edge, Graph

__all__ = [
    "BookEmbedding",
    "Crossing",
    "MatchingViolation",
    "ValidationReport",
    "MalformedEmbeddingError",
    "check_structure",
    "closing_crossings",
    "incidence",
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


def incidence(n: int, edges) -> list[int]:
    """Per vertex, the bitmask of the indices of the edges at it."""
    inc = [0] * n
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    return inc


def closing_crossings(v: int, pos, below, closed: int, inc, edges) -> tuple[int, list[tuple[int, int]]]:
    """The crossings decided by placing v to the right of a spine prefix.

    ``pos`` maps the placed vertices to their positions, ``below[x]`` is
    the mask of edges at the positions before x (so ``below[-1]`` holds
    every edge the prefix touches) and ``closed`` the edges with both ends
    placed. Returns the edges v closes and, per closed edge f, the mask of
    still-open edges crossing it: those whose placed end lies strictly
    between f's ends. Folded over a whole spine this reports every pair of
    interleaving edges exactly once, when the first of the two closes.
    """
    touched = below[-1]
    newly = inc[v] & touched
    opens = touched & ~closed & ~newly
    found = []
    rest = newly
    while rest:
        low = rest & -rest
        f = low.bit_length() - 1
        rest ^= low
        a, b = edges[f]
        found.append((f, opens & ~below[pos[b if a == v else a] + 1]))
    return newly, found


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
    inc = incidence(g.n, g.edges)
    pos = [0] * g.n
    below = [0]
    closed = 0
    for here, v in enumerate(emb.spine):
        newly, found = closing_crossings(v, pos, below, closed, inc, g.edges)
        for f, cross in found:
            page = emb.pages[f]
            cross &= on_page[page]
            while cross:
                low = cross & -cross
                cross ^= low
                ea, eb = sorted((g.edges[f], g.edges[low.bit_length() - 1]))
                violations.append(Crossing(page, ea, eb))
        pos[v] = here
        closed |= newly
        below.append(below[-1] | inc[v])
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
