"""Constructive matching book embeddings.

Covers complete graphs (congruence pages: edge (a, b) on page (a+b) mod p
gives parallel, noncrossing chords), dispersable embeddings of paths and
even cycles, the block-copy product construction, and a direct snake-grid
scheme that embeds a complete graph stacked over an odd cycle in exactly
max degree + 1 pages (over an even cycle, the product construction does
the same). A product orients each block copy by the right factor's
bipartition, so its right factor is just an embedding in max-degree
pages. ``SCHEMES`` is the one map from a family tag to a scheme:
``kpcq_embedding`` and a product's right-factor witness are both a
graph's ``auto`` embedding. ``construct`` validates the embedding it
returns, and ``product_embedding`` the two factor embeddings it is handed,
so a product whose factors ``construct`` embeds validates each one twice.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import NamedTuple

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
from .options import SCHEME_SOLVER, SolveOptions

SCHEME_COMPLETE = "complete-congruence"
SCHEME_EVEN_CYCLE = "even-cycle"
SCHEME_PATH = "path"
SCHEME_PRODUCT = "product-lemma2.5"
SCHEME_KPCQ_ODD = "kpcq-odd-direct"
SCHEME_KPCQ_EVEN = "kpcq-even-product"


class ConstructionError(RuntimeError):
    """A construction produced an invalid embedding, or none."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


class ConstructionUnresolved(Exception):
    """No embedding here: a construction does not apply to this graph, or
    the exact solver found none within its page cap."""


class ConstructionOutcome(NamedTuple):
    embedding: BookEmbedding
    scheme: str


def complete_embedding(p: int) -> BookEmbedding:
    """Embed the complete graph on p vertices in p pages (1 page for p=2).

    With the natural spine, a page holds the edges (a, b) with a+b fixed
    mod p: parallel chords, hence a noncrossing matching. For p >= 3 every
    residue occurs on some edge, so the p pages are all used; K1 and K2
    have at most one edge, on page 0.
    """
    g = complete(p)
    if p <= 2:
        return BookEmbedding(g, range(p), (0,) * g.m, g.m)
    return BookEmbedding(g, range(p), ((a + b) % p for a, b in g.edges), p)


def even_cycle_embedding(m: int) -> BookEmbedding:
    """Two-page embedding of the cycle on 2m vertices, m >= 2."""
    if m < 2:
        raise ValueError("even cycle witness needs m >= 2")
    g = cycle(2 * m)
    # edge (u, u+1) on page u mod 2, and the closing edge (0, 2m-1) on page 1
    pages = (1 if v - u > 1 else u % 2 for u, v in g.edges)
    return BookEmbedding(g, range(2 * m), pages, 2)


def path_witness(n: int) -> BookEmbedding:
    """Alternating-page embedding of the path on n vertices, n >= 2."""
    if n < 2:
        raise ValueError("path witness needs n >= 2")
    g = path(n)
    return BookEmbedding(g, range(n), (u % 2 for u, _ in g.edges), 1 if n == 2 else 2)


def product_embedding(g_emb: BookEmbedding, b_emb: BookEmbedding) -> BookEmbedding:
    """Embed the product of G and a bipartite B embedded in max-degree pages.

    Each vertex of B becomes one contiguous block holding a copy of G's
    spine, forward on side 0 of B's bipartition and reversed on side 1.
    Copies of G keep their pages; the rung bundle of every B-edge lands on
    one fresh page per page of B, where the opposite block orientations
    make the bundle's arcs concentric.
    """
    for side, emb in (("left", g_emb), ("right", b_emb)):
        if not validate(emb).valid:
            raise ValueError(f"{side} embedding is not a valid matching book embedding")
    gg, bb = g_emb.graph, b_emb.graph
    coloring = bipartition(bb).coloring
    if coloring is None:
        raise ValueError(f"right factor {bb.name} is not bipartite")
    if b_emb.page_count != max_degree(bb):
        raise ValueError(f"right factor needs exactly {max_degree(bb)} pages, got {b_emb.page_count}")
    prod = cartesian_product(gg, bb)
    ng = gg.n

    spine: list[int] = []
    for bv in b_emb.spine:
        block = g_emb.spine if coloring[bv] == 0 else tuple(reversed(g_emb.spine))
        spine.extend(bv * ng + x for x in block)

    base = g_emb.page_count
    page_of: dict[tuple[int, int], int] = {}
    for (u, v), pg in zip(gg.edges, g_emb.pages):
        for bv in range(bb.n):
            page_of[(bv * ng + u, bv * ng + v)] = pg
    for (b1, b2), pc in zip(bb.edges, b_emb.pages):
        for x in range(ng):
            page_of[(b1 * ng + x, b2 * ng + x)] = base + pc

    pages = tuple(page_of[e] for e in prod.edges)
    return BookEmbedding(prod, spine, pages, base + b_emb.page_count)


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


def witness_for(b: Graph, opts: SolveOptions | None = None) -> BookEmbedding | None:
    """Dispersable witness for b: its ``auto`` embedding, when that has
    max-degree pages. The product orients its blocks by b's bipartition.

    Returns None when b is not bipartite or no max-degree embedding was
    found, since only dispersable bipartite graphs can play the second
    factor of the product construction.
    """
    if not bipartition(b).is_bipartite:
        return None
    try:
        emb = auto_embedding(b, opts).embedding
    except ConstructionUnresolved:
        return None
    return emb if emb.page_count == max_degree(b) else None


def _budget(opts: SolveOptions, start: float) -> SolveOptions:
    """opts with ``timeout_s`` less the time spent since ``start``, and never
    below 0, so that every solve one embedding starts shares one budget."""
    if opts.timeout_s is None:
        return opts
    return opts._replace(timeout_s=max(0.0, opts.timeout_s - (time.monotonic() - start)))


def _product(g: Graph, opts: SolveOptions) -> BookEmbedding:
    start = time.monotonic()
    _, left, right = g.family
    wit = witness_for(right, opts)
    if wit is None:
        raise ConstructionUnresolved("right factor admits no dispersable witness")
    emb = product_embedding(auto_embedding(left, _budget(opts, start)).embedding, wit)
    # product_embedding names the product after its factors' embedded graphs;
    # the result keeps g's own name and tag unless it embeds another graph
    return emb._replace(graph=g) if emb.graph == g else emb


# each kpcq builder regenerates the graph from the tag, so a false tag embeds
# another graph, which construct reports
def _kpcq_odd(g: Graph, opts: SolveOptions) -> BookEmbedding:
    _, p, q = g.family
    g = kpcq(p, q)
    pages = tuple(_direct_page(p, q, u, v) for u, v in g.edges)
    return BookEmbedding(g, _snake_spine(p, q), pages, p + 2)


def _kpcq_even(g: Graph, opts: SolveOptions) -> BookEmbedding:
    # even cycles are dispersable: the product construction on top of the
    # congruence embedding
    _, p, q = g.family
    emb = product_embedding(complete_embedding(p), even_cycle_embedding(q // 2))
    return emb._replace(graph=kpcq(p, q))


def _solve(g: Graph, opts: SolveOptions) -> BookEmbedding:
    # loaded here, so that an embedding by a construction never loads the solver
    from . import solver

    res = solver.exact_mbt(g, opts)
    if res.witness is None:
        failed = "timed out before finding an" if res.stats.timed_out else "found no"
        raise ConstructionUnresolved(f"exact search {failed} embedding in {opts.max_pages} pages or fewer")
    return res.witness


def _family(kind: str, test: Callable[..., bool] = lambda *args: True) -> Callable:
    return lambda fam: fam is not None and fam[0] == kind and test(*fam[1:])


# scheme -> (applies to a family tag, builder); "auto" takes the first that applies
SCHEMES = {
    SCHEME_COMPLETE: (_family("complete"), lambda g, opts: complete_embedding(g.family[1])),
    SCHEME_EVEN_CYCLE: (
        _family("cycle", lambda q: q % 2 == 0),
        lambda g, opts: even_cycle_embedding(g.family[1] // 2),
    ),
    SCHEME_PATH: (_family("path", lambda n: n >= 2), lambda g, opts: path_witness(g.family[1])),
    SCHEME_KPCQ_ODD: (_family("kpcq", lambda p, q: q % 2 == 1), _kpcq_odd),
    SCHEME_KPCQ_EVEN: (_family("kpcq", lambda p, q: q % 2 == 0), _kpcq_even),
    SCHEME_PRODUCT: (_family("product"), _product),
    SCHEME_SOLVER: (lambda fam: True, _solve),
}


def construct(g: Graph, scheme: str, opts: SolveOptions | None = None) -> ConstructionOutcome:
    """Embed g by the named scheme, or by the first that applies for "auto".

    The result is checked to embed g itself and to pass ``validate``;
    either failure is a ConstructionError. An embedding above the page cap
    ``opts.max_pages`` leaves g unresolved. Under "auto" a scheme that
    cannot resolve g falls through to the exact solver, which runs once:
    when the solver itself finds nothing under the page cap, the
    ConstructionUnresolved propagates. Every solve that g's embedding
    starts, for a product's factors or for the fallback, gets what is left
    of one ``opts.timeout_s``. A disconnected g, or options out of range,
    are a ValueError before any scheme runs.
    """
    start = time.monotonic()
    if not is_connected(g):
        raise ValueError(f"{g.name} is not connected; an embedding requires a connected graph")
    opts = (opts or SolveOptions()).checked()
    cap = opts.max_pages

    def build(scheme: str) -> BookEmbedding:
        emb = SCHEMES[scheme][1](g, _budget(opts, start))
        if cap is not None and emb.page_count > cap:
            raise ConstructionUnresolved(f"scheme {scheme} needs {emb.page_count} pages, over the cap of {cap}")
        return emb

    if scheme == "auto":
        scheme = next(name for name, (applies, _) in SCHEMES.items() if applies(g.family))
        try:
            emb = build(scheme)
        except ConstructionUnresolved:
            if scheme == SCHEME_SOLVER:
                raise
            scheme, emb = SCHEME_SOLVER, _solve(g, _budget(opts, start))
    elif scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; known: auto, {', '.join(SCHEMES)}")
    elif not SCHEMES[scheme][0](g.family):
        raise ValueError(f"scheme {scheme} does not apply to {g.name}")
    else:
        emb = build(scheme)
    if emb.graph != g:
        raise ConstructionError(f"scheme {scheme} embedded a different graph than {g.name}")
    try:
        rep = validate(emb)
    except MalformedEmbeddingError as exc:
        raise ConstructionError(f"scheme {scheme} produced a malformed embedding: {exc}") from None
    if not rep.valid:
        raise ConstructionError(f"scheme {scheme} produced {len(rep.violations)} violations", rep)
    return ConstructionOutcome(emb, scheme)


def auto_embedding(g: Graph, opts: SolveOptions | None = None) -> ConstructionOutcome:
    """Family-recognised construction when one applies, else exact search."""
    return construct(g, "auto", opts)
