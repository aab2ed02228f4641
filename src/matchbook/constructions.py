"""Constructive matching book embeddings.

Covers complete graphs (congruence pages: edge (a, b) on page (a+b) mod p
gives parallel, noncrossing chords), dispersable witnesses for paths and
even cycles, the block-copy product construction, and a direct snake-grid
scheme that embeds a complete graph stacked over an odd cycle in exactly
max degree + 1 pages (over an even cycle, the product construction does
the same). ``SCHEMES`` is the one map from a family tag to a scheme:
``kpcq_embedding`` and a product's right-factor witness are both a
graph's ``auto`` embedding. Every embedding is validated once in
``construct`` before it is returned; the constructors themselves check
only the embeddings a caller hands them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from . import solver
from .graphs import (
    Graph,
    bipartition,
    cartesian_product,
    complete,
    cycle,
    is_connected,
    kpcq,
    max_degree,
    path,
)
from .layout import BookEmbedding, MalformedEmbeddingError, ValidationReport, validate

SCHEME_COMPLETE = "complete-congruence"
SCHEME_EVEN_CYCLE = "even-cycle"
SCHEME_PATH = "path"
SCHEME_PRODUCT = "product-lemma2.5"
SCHEME_KPCQ_ODD = "kpcq-odd-direct"
SCHEME_KPCQ_EVEN = "kpcq-even-product"
SCHEME_SOLVER = "solver"


class ConstructionError(RuntimeError):
    """A construction produced an invalid embedding, or none."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


class ConstructionUnresolved(Exception):
    """No embedding here: a construction does not apply to this graph, or
    the exact solver found none within its page cap."""


@dataclass(frozen=True)
class DispersableWitness:
    """A max-degree-page matching book embedding of a bipartite graph plus
    the 2-colouring that orients block copies in the product construction
    (0 = forward block, 1 = reversed block)."""

    embedding: BookEmbedding
    coloring: tuple[int, ...]


@dataclass(frozen=True)
class ConstructionOutcome:
    embedding: BookEmbedding
    scheme: str


def _normalized_pages(edges, raw: dict) -> tuple[tuple[int, ...], int]:
    used = sorted(set(raw.values()))
    remap = {p: i for i, p in enumerate(used)}
    return tuple(remap[raw[e]] for e in edges), len(used)


def complete_embedding(p: int) -> BookEmbedding:
    """Embed the complete graph on p vertices in p pages (1 page for p=2).

    With the natural spine, a page holds the edges (a, b) with a+b fixed
    mod p: parallel chords, hence a noncrossing matching.
    """
    if p < 1:
        raise ValueError("complete graph needs p >= 1")
    g = complete(p)
    raw = {e: (e[0] + e[1]) % p for e in g.edges}
    pages, count = _normalized_pages(g.edges, raw)
    return BookEmbedding(g, tuple(range(p)), pages, count)


def even_cycle_embedding(m: int) -> DispersableWitness:
    """Two-page witness for the cycle on 2m vertices, m >= 2."""
    if m < 2:
        raise ValueError("even cycle witness needs m >= 2")
    g = cycle(2 * m)
    raw = {}
    for u, v in g.edges:
        if (u, v) == (0, 2 * m - 1):
            raw[(u, v)] = 1
        else:
            raw[(u, v)] = u % 2
    pages = tuple(raw[e] for e in g.edges)
    emb = BookEmbedding(g, tuple(range(2 * m)), pages, 2)
    return DispersableWitness(emb, tuple(v % 2 for v in range(2 * m)))


def path_witness(n: int) -> DispersableWitness:
    """Alternating-page witness for the path on n vertices, n >= 2."""
    if n < 2:
        raise ValueError("path witness needs n >= 2")
    g = path(n)
    pages = tuple(u % 2 for u, _ in g.edges)
    emb = BookEmbedding(g, tuple(range(n)), pages, 1 if n == 2 else 2)
    return DispersableWitness(emb, tuple(v % 2 for v in range(n)))


def make_witness(emb: BookEmbedding, coloring) -> DispersableWitness:
    """Check and package a dispersable witness."""
    coloring = tuple(coloring)
    rep = validate(emb)
    if not rep.valid:
        raise ValueError("witness embedding is not a valid matching book embedding")
    if emb.page_count != max_degree(emb.graph):
        raise ValueError(
            f"witness needs exactly {max_degree(emb.graph)} pages, got {emb.page_count}"
        )
    if len(coloring) != emb.graph.n or any(c not in (0, 1) for c in coloring):
        raise ValueError("coloring must assign 0/1 to every vertex")
    if any(coloring[u] == coloring[v] for u, v in emb.graph.edges):
        raise ValueError("coloring is not a proper 2-coloring")
    return DispersableWitness(emb, coloring)


def product_embedding(g_emb: BookEmbedding, b_wit: DispersableWitness) -> BookEmbedding:
    """Embed the product of G and a dispersable bipartite B.

    Each vertex of B becomes one contiguous block holding a copy of G's
    spine, forward for colour 0 and reversed for colour 1. Copies of G keep
    their pages; the rung bundle of every B-edge lands on one fresh page
    per witness page, where the opposite block orientations make the
    bundle's arcs concentric.
    """
    grep = validate(g_emb)
    if not grep.valid:
        raise ValueError("left embedding is not a valid matching book embedding")
    make_witness(b_wit.embedding, b_wit.coloring)
    gg, bb = g_emb.graph, b_wit.embedding.graph
    prod = cartesian_product(gg, bb)
    ng = gg.n

    spine: list[int] = []
    for bv in b_wit.embedding.spine:
        block = g_emb.spine if b_wit.coloring[bv] == 0 else tuple(reversed(g_emb.spine))
        spine.extend(bv * ng + x for x in block)

    base = g_emb.page_count
    page_of: dict[tuple[int, int], int] = {}
    for (u, v), pg in zip(gg.edges, g_emb.pages):
        for bv in range(bb.n):
            page_of[(bv * ng + u, bv * ng + v)] = pg
    for (b1, b2), pc in zip(bb.edges, b_wit.embedding.pages):
        for x in range(ng):
            page_of[(b1 * ng + x, b2 * ng + x)] = base + pc

    pages = tuple(page_of[e] for e in prod.edges)
    return BookEmbedding(prod, tuple(spine), pages, base + b_wit.embedding.page_count)


# direct scheme for a complete graph stacked over an odd cycle


def _snake_spine(p: int, q: int) -> tuple[int, ...]:
    spine: list[int] = []
    for col in range(q):
        rows = range(p - 1, -1, -1) if col % 2 == 0 else range(p)
        spine.extend(col * p + r for r in rows)
    return tuple(spine)


def _direct_page(p: int, q: int, u: int, v: int) -> int:
    """Page for one edge of K_p over C_q (odd q) under the snake scheme.

    Boundary-column clique edges spiral through pages 0..p-1 by their
    1-based row sum s: low band s <= p on page s-1, high band s >= p+2 on
    page s-p-2, and the middle band s = p+1 on the two rung pages. The
    wrap rung of row r rides page r; interior clique edges use the row-sum
    congruence mod p; interior rungs alternate between pages p and p+1.
    """
    cu, ru = divmod(u, p)
    cv, rv = divmod(v, p)
    if cu == cv:
        s = ru + rv + 2
        if cu == 0 or cu == q - 1:
            if s <= p:
                return s - 1
            if s == p + 1:
                return p if cu == q - 1 else p + 1
            return s - (p + 2)
        return s % p
    if cv - cu == 1:
        return p if cu % 2 == 0 else p + 1
    return ru


def kpcq_embedding(p: int, q: int) -> ConstructionOutcome:
    """Max-degree-plus-one embedding of K_p over C_q by its ``auto`` scheme."""
    return construct(kpcq(p, q), "auto")


def witness_for(b: Graph, opts: solver.SolveOptions | None = None) -> DispersableWitness | None:
    """Dispersable witness for b: its ``auto`` embedding, when that has
    max-degree pages, with b's 2-colouring.

    Returns None when b is not bipartite or no max-degree embedding was
    found, since only dispersable bipartite graphs can play the second
    factor of the product construction.
    """
    part = bipartition(b)
    if not part.is_bipartite:
        return None
    try:
        emb = auto_embedding(b, opts).embedding
    except ConstructionUnresolved:
        return None
    return DispersableWitness(emb, part.coloring) if emb.page_count == max_degree(b) else None


def _product(g: Graph, opts: solver.SolveOptions | None) -> BookEmbedding:
    _, left, right = g.family
    wit = witness_for(right, opts)
    if wit is None:
        raise ConstructionUnresolved("right factor admits no dispersable witness")
    emb = product_embedding(auto_embedding(left, opts).embedding, wit)
    # product_embedding names the product after its factors' embedded graphs;
    # the result keeps g's own name and tag unless it embeds another graph
    return replace(emb, graph=g) if emb.graph == g else emb


# each kpcq builder regenerates the graph from the tag, so a false tag embeds
# another graph, which construct reports
def _kpcq_odd(g: Graph, opts: solver.SolveOptions | None) -> BookEmbedding:
    _, p, q = g.family
    g = kpcq(p, q)
    pages = tuple(_direct_page(p, q, u, v) for u, v in g.edges)
    return BookEmbedding(g, _snake_spine(p, q), pages, p + 2)


def _kpcq_even(g: Graph, opts: solver.SolveOptions | None) -> BookEmbedding:
    # even cycles are dispersable: the product construction on top of the
    # congruence embedding
    _, p, q = g.family
    emb = product_embedding(complete_embedding(p), even_cycle_embedding(q // 2))
    return replace(emb, graph=kpcq(p, q))


def _solve(g: Graph, opts: solver.SolveOptions | None) -> BookEmbedding:
    res = solver.exact_mbt(g, opts)
    if res.witness is None:
        raise ConstructionUnresolved(f"exact search found no embedding in {opts.max_pages} pages or fewer")
    return res.witness


def _family(kind: str, test: Callable[..., bool] = lambda *args: True) -> Callable:
    return lambda fam: fam is not None and fam[0] == kind and test(*fam[1:])


# scheme -> (applies to a family tag, builder); "auto" takes the first that applies
SCHEMES = {
    SCHEME_COMPLETE: (_family("complete"), lambda g, opts: complete_embedding(g.family[1])),
    SCHEME_EVEN_CYCLE: (
        _family("cycle", lambda q: q % 2 == 0),
        lambda g, opts: even_cycle_embedding(g.family[1] // 2).embedding,
    ),
    SCHEME_PATH: (_family("path", lambda n: n >= 2), lambda g, opts: path_witness(g.family[1]).embedding),
    SCHEME_KPCQ_ODD: (_family("kpcq", lambda p, q: q % 2 == 1), _kpcq_odd),
    SCHEME_KPCQ_EVEN: (_family("kpcq", lambda p, q: q % 2 == 0), _kpcq_even),
    SCHEME_PRODUCT: (_family("product"), _product),
    SCHEME_SOLVER: (lambda fam: True, _solve),
}


def construct(g: Graph, scheme: str, opts: solver.SolveOptions | None = None) -> ConstructionOutcome:
    """Embed g by the named scheme, or by the first that applies for "auto".

    The result is checked to embed g itself and to pass ``validate``;
    either failure is a ConstructionError. Under "auto" a scheme that
    cannot resolve g falls through to the exact solver, which runs once:
    when the solver itself finds nothing under the page cap, the
    ConstructionUnresolved propagates. A disconnected g is a ValueError
    before any scheme runs.
    """
    if not is_connected(g):
        raise ValueError(f"{g.name} is not connected; an embedding requires a connected graph")
    if scheme == "auto":
        scheme = next(name for name, (applies, _) in SCHEMES.items() if applies(g.family))
        try:
            emb = SCHEMES[scheme][1](g, opts)
        except ConstructionUnresolved:
            if scheme == SCHEME_SOLVER:
                raise
            scheme, emb = SCHEME_SOLVER, _solve(g, opts)
    elif scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; known: auto, {', '.join(SCHEMES)}")
    elif not SCHEMES[scheme][0](g.family):
        raise ValueError(f"scheme {scheme} does not apply to {g.name}")
    else:
        emb = SCHEMES[scheme][1](g, opts)
    if emb.graph != g:
        raise ConstructionError(f"scheme {scheme} embedded a different graph than {g.name}")
    try:
        rep = validate(emb)
    except MalformedEmbeddingError as exc:
        raise ConstructionError(f"scheme {scheme} produced a malformed embedding: {exc}") from None
    if not rep.valid:
        raise ConstructionError(f"scheme {scheme} produced {len(rep.violations)} violations", rep)
    return ConstructionOutcome(emb, scheme)


def auto_embedding(g: Graph, opts: solver.SolveOptions | None = None) -> ConstructionOutcome:
    """Family-recognised construction when one applies, else exact search."""
    return construct(g, "auto", opts)
