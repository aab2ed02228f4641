"""Exact matching book thickness.

Feasibility of k pages for a fixed spine is k-colourability of the
conflict graph on edges (two edges conflict when they share an endpoint or
interleave on the spine), so one backtracking colouring kernel serves both
the page search and the exact chromatic-index oracle (which is the same
kernel on the shared-endpoint conflicts alone). The kernel is Brélaz's
DSATUR on bitmasks: per colour, the set of vertices adjacent to it, and
the saturation counts bit-sliced into log k planes, so picking, colouring
and uncolouring a vertex take a few mask operations instead of a pass
over the conflict graph.

The search for the thickness iterates k upward from a certified lower
bound and searches spine orders one per dihedral symmetry class, so the
first feasible level is exact and carries an exhaustiveness certificate.
Orders are searched by prefix: the conflicts a prefix decides hold in
every order that extends it, so k+1 edges that all conflict under them
refute a whole subtree, since each page holds at most one of those edges.
An exact search finds such a clique whenever one holds a newly decided
conflict. Page parity is the other rule that prunes a prefix: a page is a
non-crossing matching, so it cannot cover every vertex of an odd set on
one side of one of its edges, strictly inside it or outside it, and a
vertex with k edges is covered on all k pages. The kernel colours only
full spines, each on its own conflicts, and gives the witness pages.

The lower bound is a count and runs no search (``lower_bound``). One rule
skips search that cannot change an answer, proved where it is applied:
the prefix search places twin vertices in increasing order, since swapping
twins maps every skipped order to an earlier one that is just as feasible
(``_PrefixSearch``). Only the search counters fall.
"""

from __future__ import annotations

import time
from math import factorial
from typing import NamedTuple

from .graphs import (
    Graph,
    adjacency,
    bipartition,
    is_connected,
    is_regular,
    max_degree,
)
from .layout import BookEmbedding, crossings, incidence, straddling
from .options import SolveOptions

FOUND = "found"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

DEFAULT_ORDER_NODES = 500_000
DEFAULT_CHI_NODES = 2_000_000


class ColoringOutcome(NamedTuple):
    status: str
    colors: tuple[int, ...] | None = None
    nodes: int = 0


def conflict_masks(g: Graph, spine: tuple[int, ...]) -> list[int]:
    """Adjacency bitmasks of the page-conflict graph on g's canonical edges:
    the edges crossing each one on the spine or sharing an end with it."""
    return [c | e for c, e in zip(crossings(g, spine), endpoint_conflict_masks(g))]


def endpoint_conflict_masks(g: Graph) -> list[int]:
    """Conflict bitmasks from shared endpoints only (the line graph)."""
    inc = incidence(g.n, g.edges)
    return [(inc[u] | inc[v]) ^ (1 << i) for i, (u, v) in enumerate(g.edges)]


def color_graph(
    masks: list[int], k: int, node_budget: int = DEFAULT_ORDER_NODES, deadline: float | None = None
) -> ColoringOutcome:
    """Exact k-colourability by saturation-ordered backtracking (DSATUR).

    Each step colours the uncoloured vertex with the largest (saturation,
    degree, -index) and tries its colours in ascending order. Unused colour
    indices are interchangeable, so at most one fresh colour is branched
    per step, and used colours always form the prefix 0..u-1. Returns
    FOUND with an assignment, INFEASIBLE after a complete search, or
    UNKNOWN as soon as the node count passes the budget (so with budget + 1
    nodes) or, checked every 1,024 nodes, the ``time.monotonic()``
    deadline has passed.

    The search state is a handful of bitmasks over the vertices, so a
    step's cost does not grow with the vertex count beyond the width of
    those masks. ``near[c]`` holds the vertices adjacent to colour c; a
    vertex's saturation is the number of colours whose mask holds it.
    Saturations are kept bit-sliced: ``planes[i]`` holds the vertices
    whose saturation has bit i set, and colouring a vertex ripple-adds the
    vertices it newly makes adjacent to its colour. The most saturated
    uncoloured vertices are found by intersecting the planes from the top,
    ties go to the highest degree class, then to the lowest index.
    Colouring and undoing a vertex are O(log k) mask operations. The search
    keeps its own stack, so its depth (up to the vertex count) is not
    bounded by Python's recursion limit. It holds one frame per vertex on
    the path: [vertex, colours still to try, colour held, vertices that
    colour newly reached, colours in use before it]. Every frame but a
    just-pushed one holds its colour, and a dead end undoes frames down to
    the first with a colour left to try.
    """
    m = len(masks)
    classes: dict[int, int] = {}
    for v, mask in enumerate(masks):
        d = mask.bit_count()
        classes[d] = classes.get(d, 0) | 1 << v
    by_degree = [classes[d] for d in sorted(classes, reverse=True)]
    planes = [0] * k.bit_length()
    bits = range(len(planes))
    top_down = bits[::-1]
    near = [0] * k
    free = (1 << m) - 1
    used = 0
    nodes = 0
    stack: list[list] = []
    while True:
        if not free:
            colors = [0] * m
            for frame in stack:
                colors[frame[0]] = frame[2]
            return ColoringOutcome(FOUND, tuple(colors), nodes)
        cand = free
        for i in top_down:
            hit = cand & planes[i]
            if hit:
                cand = hit
        for cls in by_degree:
            hit = cand & cls
            if hit:
                break
        low = hit & -hit
        avail = 0
        for c in range(used):
            if not near[c] & low:
                avail |= 1 << c
        if used < k:
            avail |= 1 << used
        if avail:
            stack.append([low.bit_length() - 1, avail, 0, 0, used])
        while not avail:
            if not stack:
                return ColoringOutcome(INFEASIBLE, None, nodes)
            v, avail, c, added, used = stack[-1]
            free |= 1 << v
            near[c] ^= added
            for i in bits:
                plane = planes[i]
                planes[i] = plane ^ added
                added &= ~plane
                if not added:
                    break
            if not avail:
                stack.pop()
        nodes += 1
        if nodes > node_budget or not nodes & 1023 and deadline is not None and time.monotonic() > deadline:
            return ColoringOutcome(UNKNOWN, None, nodes)
        frame = stack[-1]
        bit = avail & -avail
        c = bit.bit_length() - 1
        v = frame[0]
        frame[1] = avail ^ bit
        frame[2] = c
        free ^= 1 << v
        added = masks[v] & ~near[c]
        near[c] |= added
        frame[3] = added
        for i in bits:
            plane = planes[i]
            planes[i] = plane ^ added
            added &= plane
            if not added:
                break
        if c == used:
            used += 1


def first_fit_pages(g: Graph, spine: tuple[int, ...]) -> tuple[int, ...]:
    """Greedy page assignment in canonical edge order; always valid."""
    members: list[int] = []  # per page, the edges already on it
    pages = []
    for i, mask in enumerate(conflict_masks(g, spine)):
        c = next((c for c, on in enumerate(members) if not mask & on), len(members))
        if c == len(members):
            members.append(0)
        members[c] |= 1 << i
        pages.append(c)
    return tuple(pages)


class EdgeColoringResult(NamedTuple):
    value: int
    coloring: tuple[int, ...]
    nodes: int


def overfull_bound(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(count, vertices): a lower bound on the chromatic index by counting
    edges, and the vertex set of the subgraph H that gives it.

    Every colour class (and every page) is a matching, which covers at most
    ⌊n_H/2⌋ of H's m_H edges, so k ≥ ⌈m_H / ⌊n_H/2⌋⌉; recounting m_H from
    the vertex set checks it. H starts as G and loses a vertex of least
    degree in H, lowest label first, down to two vertices; the first H with
    the largest count wins, and (0, ()) means no H has two vertices. Degree
    buckets of vertex masks make this O(n + m) mask steps. As g is simple,
    χ' ≤ Δ + 1 (Vizing, 1964), so a count above Δ is the chromatic index.
    """
    adj = adjacency(g)
    deg = [len(a) for a in adj]
    bucket = [0] * (max(deg, default=0) + 1)  # per degree, the vertices left with it
    for v, d in enumerate(deg):
        bucket[d] |= 1 << v
    left, m, d, best, keep = (1 << g.n) - 1, g.m, 0, 0, 0
    for size in range(g.n, 1, -1):
        if -(-m // (size // 2)) > best:
            best, keep = -(-m // (size // 2)), left
        while not bucket[d]:
            d += 1
        low = bucket[d] & -bucket[d]
        bucket[d] ^= low
        left ^= low
        m -= d
        for u in adj[low.bit_length() - 1]:
            if left >> u & 1:
                bucket[deg[u]] ^= 1 << u
                deg[u] -= 1
                bucket[deg[u]] |= 1 << u
        d = max(d - 1, 0)  # a neighbour of the removed vertex may now have d − 1
    return best, tuple(v for v in range(g.n) if keep >> v & 1)


def edge_chromatic_exact(g: Graph, node_budget: int = DEFAULT_CHI_NODES) -> EdgeColoringResult | None:
    """Exact chromatic index, or None when out of budget.

    Colours the shared-endpoint conflict graph, searching k upward from
    the larger of the max degree and the ``overfull_bound`` count, so the
    first success is exact: no level below that bound has a colouring.
    """
    if g.m > 80:
        return None
    masks = endpoint_conflict_masks(g)
    total = 0
    for k in range(max(max_degree(g), overfull_bound(g)[0]), g.m + 1):
        out = color_graph(masks, k, node_budget)
        total += out.nodes
        if out.status == FOUND:
            return EdgeColoringResult(k, out.colors, total)
        if out.status == UNKNOWN:
            return None
    return None


class BoundCertificate(NamedTuple):
    """Provable page lower bound with re-checkable evidence (an odd cycle or an overfull vertex set).

    ``solve`` prints the fields, in this order, as its ``lower_bound``."""

    value: int
    reason: str  # max-degree | chromatic-index | regular-nonbipartite
    max_degree: int
    regular_degree: int | None = None
    odd_cycle: tuple[int, ...] | None = None
    overfull: tuple[int, ...] | None = None
    chromatic_index: int | None = None


def lower_bound(g: Graph) -> BoundCertificate:
    """Best page lower bound that counting proves, with no search.

    Every page is a matching, so the max degree holds. A regular graph with
    an odd cycle cannot meet it: each page would be a non-crossing perfect
    matching, which joins only spine positions of opposite parity, so the
    graph would be bipartite. Otherwise an ``overfull_bound`` count above
    the max degree is the chromatic index, with its vertex set as evidence.
    """
    if not is_connected(g):
        raise ValueError("lower_bound requires a connected graph")
    d, reg = max_degree(g), is_regular(g)
    if reg is not None and not (part := bipartition(g)).is_bipartite:
        return BoundCertificate(d + 1, "regular-nonbipartite", d, regular_degree=reg, odd_cycle=part.odd_cycle)
    count, hood = overfull_bound(g)
    if count > d:
        return BoundCertificate(count, "chromatic-index", d, chromatic_index=count, overfull=hood)
    return BoundCertificate(d, "max-degree", d)


class SolveStats:
    """Counters of one solve, filled in while it runs; each starts at zero.

    ``kernel_calls`` counts the full spines the scan coloured, ``nodes`` the
    kernel's search nodes over them, ``clique_refuted`` the prefixes that a
    clique refuted, ``clique_steps`` the steps of the clique search,
    ``parity_refuted`` the prefixes that page parity refuted, inside or
    outside the edge they closed, and ``placements`` the calls to
    ``_PrefixSearch.place``, each level's pinned root included. ``per_level``
    counts each level's orders as they are settled; ``orders_tested``, their
    sum, is set when the scan ends, on a timeout too. ``solve`` prints every
    slot but ``elapsed_s``, in this order, as its ``stats``.
    """

    __slots__ = (
        "orders_tested", "nodes", "elapsed_s", "per_level", "timed_out",
        "kernel_calls", "clique_refuted", "clique_steps", "parity_refuted", "placements",
    )

    def __init__(self) -> None:
        self.orders_tested = self.nodes = self.kernel_calls = 0
        self.clique_refuted = self.clique_steps = self.parity_refuted = self.placements = 0
        self.elapsed_s = 0.0
        self.per_level: dict[int, int] = {}
        self.timed_out = False

    def __repr__(self) -> str:
        return "SolveStats(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"


class SolveResult(NamedTuple):
    value: int | None
    witness: BookEmbedding | None
    exhaustive: bool
    bound: BoundCertificate
    stats: SolveStats


class _Timeout(Exception):
    """The deadline passed before or during a kernel call or clique search."""


class _PrefixSearch:
    """Depth-first search over spine prefixes at one page budget.

    Vertices are placed left to right, each time trying the free vertices
    in increasing order, so the canonical orders (vertex 0 first and the
    second vertex below the last) are reached in lexicographic order.
    Every unplaced vertex lies right of every placed one, and a crossing
    depends only on the relative order of four endpoints, so some
    conflicts are decided by the prefix alone:
    two closed edges (both ends placed) cross as on a full spine, and a
    closed edge conflicts with an open edge whose placed end lies strictly
    between its ends. The decided conflicts hold in every completion, so
    a proof that they need more than k pages refutes every order below the
    prefix. A full spine decides every pair, as ``conflict_masks``.

    The prefix state lives in arrays indexed by prefix length d: one
    ``spine`` and ``pos``, and per d the parity masks ``odd[d]``, free
    vertices ``free[d]``, ``ends[d]``, ``before[d]`` and conflict masks
    ``masks[d]``, which start from the shared-endpoint conflicts; placing v
    adds, for each edge it closes, the crossings ``layout.straddling``
    decides that the masks lack. The stack holds one root-to-leaf path, so
    placing v after spine[:d] writes only ``spine[d]``, ``pos[v]`` and the
    entries at d+1, which a later sibling overwrites; ``pos`` is read only
    at the placed end of an edge with one end placed, so never stale. No stored masks list
    changes: ``masks[d+1]`` is the parent's when the placement decided no
    new conflict, else a copy. A level is one search, in this process, so its
    result and counters do not depend on ``SolveOptions.jobs``. It counts its
    effort into the solve's ``stats``, its orders in ``stats.per_level[k]``.

    Twins are placed in increasing order. Twins are u ≠ v with
    N(u)∖{v} = N(v)∖{u}, so the swap (u v) is an automorphism
    of g. The search does not place v while a twin u < v is free, and
    counts that child's canonical orders as settled. This is sound: take a
    canonical order σ that extends the prefix P with v and has u later.
    Swapping u and v in σ gives σ', an order of the same page count (the
    swap carries each page of σ to a page of σ'), which agrees with σ on P
    and has u < v at the next position, so it comes earlier. It is still
    canonical: P keeps vertex 0 first, and if u or v is at position 1 or
    last, then v = σ[1] < σ[-1] gives u = σ'[1] < σ'[-1], and u = σ[-1] >
    σ[1] gives v = σ'[-1] > σ'[1]. So every skipped order has an earlier
    canonical order just as feasible, the earliest feasible order is never
    skipped, and the witness, ``per_level`` and ``orders_tested`` are those
    of a search without the rule; only search is saved. Twins are one class
    per open or closed neighbourhood, and the rule places each class in
    increasing order, so checking v's nearest smaller twin suffices.

    A prefix is refuted or descended, and the kernel runs only on full
    spines. A placement of v that decided new conflicts goes to ``clique``,
    which reads only the child's masks, whose conflicts hold in every
    completion. If k+1 edges all conflict under them, a page holds at most
    one of them in every completion, and k pages cannot hold all k+1: every
    order below the prefix is infeasible, and those edges are its
    certificate. ``clique`` is exact (each prune is proved where it is
    made), so a prefix is descended only when no such edges hold a new
    conflict. Each full spine is coloured by the kernel on its own masks,
    ``conflict_masks`` of that spine. A refuted prefix holds no feasible
    order, and every other canonical order is tested, so the first feasible
    order, ``per_level`` and ``orders_tested`` are those of one kernel call
    per order in enumeration sequence; only a full spine whose call runs out
    of its ``DEFAULT_ORDER_NODES`` nodes (UNKNOWN) makes the level not
    exhaustive.

    Before ``place``, page parity may refute the child instead, with
    nothing written (``parity``). Call a vertex short when it has fewer
    than k edges. Placing v at position d closes each edge (u, v) with u
    placed, and splits the other vertices into I, those at positions
    ``pos[u]+1 … d−1``, and O, those placed before u and the unplaced ones
    but v. Neither set depends on the completion, |I| = d − pos[u] − 1 and
    |O| = n − 2 − |I|. The child is refuted when I or O is odd and holds no
    short vertex. Proof: in any completion, (u, v) lies on some page P, a
    non-crossing matching. An edge of P at a vertex of I ends in I, and one
    at a vertex of O ends in O, since one ending on the other side would
    cross (u, v) and one ending at u or v would share its end. So P covers
    an even number of that odd set and leaves one uncovered. But each has
    k or more edges and a page holds at most one edge at a vertex, so it is
    covered on every page, P included (a vertex with more than k edges fits
    no k pages at all). Hence no completion fits k pages. ``ends[d][0]``
    and ``ends[d][1]`` hold the placed vertices at an even and an odd
    distance before position d, counting only those at or after the last
    short vertex: a short vertex starts them afresh, as it may lie at an
    end of (u, v) but not in I. ``before[d][0]`` and ``before[d][1]`` hold
    the placed vertices at even and odd positions up to and including the
    first short one, as a short u may end (u, v) but none may precede it.
    So I refutes when ``near[v] & ends[d][0]`` is nonzero, and O, when no
    unplaced vertex but v is short, when ``near[v] & before[d][(d + n) % 2]``
    is. The child is settled with the same count of canonical orders as a
    clique-refuted one, so the witness, ``per_level`` and ``orders_tested``
    do not change; only search is saved.
    """

    def __init__(self, g: Graph, k: int, deadline: float | None, stats: SolveStats):
        self.n, self.edges = g.n, g.edges
        self.inc = incidence(self.n, self.edges)
        self.k = k
        self.near = near = [0] * self.n  # each vertex's neighbours
        for a, b in self.edges:
            near[a] |= 1 << b
            near[b] |= 1 << a
        self.short = sum(1 << v for v in range(self.n) if near[v].bit_count() < k)
        self.twin = [-1] * self.n  # each vertex's nearest smaller twin
        last: dict[int, int] = {}
        for v in range(self.n):
            for hood in (near[v], near[v] | 1 << v):
                self.twin[v] = last.get(hood, self.twin[v])
                last[hood] = v
        self.spine, self.pos, self.odd = [0] * g.n, [0] * g.n, [0] * (g.n + 1)
        self.free, self.ends = [(1 << g.n) - 1] * (g.n + 1), [(0, 0)] * (g.n + 1)
        self.before = [(0, 0)] * (g.n + 1)
        self.masks = [endpoint_conflict_masks(g)] * (g.n + 1)
        self.deadline = deadline
        self.stats = stats
        stats.per_level[k] = 0
        self.unknown = False

    def place(self, d: int, v: int) -> list[tuple[int, int]]:
        """Places v after spine[:d]; returns (f, its new conflicts), lowest f
        first, for each edge f at v whose conflicts that placement grew."""
        self.stats.placements += 1
        pos, odd, masks = self.pos, self.odd, self.masks[d]
        self.spine[d], pos[v] = v, d
        grown = []
        rest = self.inc[v] & odd[d]
        while rest:
            low = rest & -rest
            f = low.bit_length() - 1
            rest ^= low
            a, b = self.edges[f]
            new = straddling(odd, pos[b if a == v else a], d) & ~masks[f]
            if not new:
                continue
            if not grown:
                masks = masks[:]
            grown.append((f, new))
            masks[f] |= new
            while new:
                bit = new & -new
                masks[bit.bit_length() - 1] |= low
                new ^= bit
        self.masks[d + 1] = masks
        odd[d + 1] = odd[d] ^ self.inc[v]
        self.free[d + 1] = self.free[d] ^ 1 << v
        even, far = self.ends[d]
        self.ends[d + 1] = (0, 1 << v) if self.short >> v & 1 else (far, even | 1 << v)
        b = self.before[d]  # v joins the side of d's parity while no short vertex is placed
        self.before[d + 1] = b if self.short & ~self.free[d] else (b[0] | (d + 1) % 2 << v, b[1] | d % 2 << v)
        return grown

    def parity(self, d: int, v: int) -> bool:
        """Whether page parity refutes placing v after spine[:d], by the
        vertices inside or outside an edge it closes."""
        across = self.ends[d][0]
        if not self.short & self.free[d] & ~(1 << v):
            across |= self.before[d][(d + self.n) % 2]
        return bool(self.near[v] & across)

    def leaves(self, d: int, v: int) -> tuple[int, int]:
        """(c, f): c·f! canonical spine orders extend spine[:d] by v."""
        rest = self.n - d - 1
        # the order is canonical when its last vertex exceeds its second
        second = self.spine[1] if d > 1 else v
        if rest == 0:
            return int(v > second), 0
        return (self.free[d] >> second + 1).bit_count() - (v > second), rest - 1

    def clique(self, masks: list[int], grown: list[tuple[int, int]]) -> int:
        """The mask of k+1 edges that all conflict under ``masks`` and hold a
        conflict (f, g) that ``place`` listed in ``grown``, or 0 if none do.
        Each new pair asks ``extend`` for k−1 more in ``masks[f] & masks[g]``;
        within one f, each g tried leaves the later pairs' candidates, since
        every clique holding f and g was searched with it."""
        need = self.k - 1
        for f, new in grown:
            low, near = 1 << f, masks[f]
            while new:
                bit = new & -new
                new ^= bit
                near ^= bit
                cand = near & masks[bit.bit_length() - 1]
                if cand.bit_count() >= need and (found := self.extend(masks, low | bit, cand, need)):
                    return found
        return 0

    def extend(self, masks: list[int], found: int, cand: int, need: int) -> int:
        """``found`` plus ``need`` edges of ``cand`` that pairwise conflict
        under ``masks``, or 0 when there are none. With more than two to
        spare, a greedy colouring first splits the candidates into classes
        of pairwise non-conflicting edges; like a page, a class holds at most
        one edge of a clique, so fewer than ``need`` classes refute (Tomita
        & Seki). The search takes candidates lowest index first on its own
        stack, so ``need`` is not bounded by the recursion limit, and gives
        up a depth or a candidate once fewer candidates are left than edges
        wanted. The deadline is checked every 1,024 steps."""
        if cand.bit_count() > need + 2:
            left, classes = cand, 0
            while left and classes < need:
                free, classes = left, classes + 1
                while free:
                    bit = free & -free
                    left ^= bit
                    free = (free ^ bit) & ~masks[bit.bit_length() - 1]
            if classes < need:
                return 0
        stats, deadline = self.stats, self.deadline
        stack, chosen, want = [cand], 0, need
        while want:
            stats.clique_steps += 1
            if not stats.clique_steps & 1023 and deadline is not None and time.monotonic() > deadline:
                raise _Timeout
            cand = stack[-1]
            if cand.bit_count() < want:
                stack.pop()
                if not stack:
                    return 0
                chosen ^= 1 << chosen.bit_length() - 1  # the last taken is the highest
                want += 1
                continue
            bit = cand & -cand
            stack[-1] = cand = cand ^ bit
            cand &= masks[bit.bit_length() - 1]
            if cand.bit_count() >= want - 1:
                stack.append(cand)
                chosen |= bit
                want -= 1
        return found | chosen

    def run(self):
        """Searches the orders below the root and returns the earliest
        feasible (spine, pages), or None.

        The search keeps its own stack, entry d the next vertex to try after
        spine[:d], so its depth (up to the vertex count) is not bounded by
        Python's recursion limit, and tries only the free vertices from that
        one on. Each child is settled where it is reached: skipped as a twin,
        refuted by parity or ``clique``, coloured by the kernel when its
        spine is full, or else pushed. The root is never a full spine, as
        ``exact_mbt`` scans no level of a graph with fewer than 3 vertices
        (connected, its greedy upper bound is its lower bound). So both
        canonical rules hold on every scanned level: pinning vertex 0 first
        needs one vertex, and keeping the second below the last, three.
        """
        n, k, twin, stats, deadline = self.n, self.k, self.twin, self.stats, self.deadline
        free, masks, per_level = self.free, self.masks, stats.per_level
        self.place(0, 0)  # the root is vertex 0, and depth 0 has no other vertex to try
        stack = [n, 0]
        while stack:
            d = len(stack) - 1
            rest = free[d] >> stack[d] << stack[d]
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                ways = self.leaves(d, v)
                if not ways[0]:
                    continue
                t = twin[v]
                if t < 0 or not free[d] >> t & 1:
                    if not self.parity(d, v):
                        break
                    stats.parity_refuted += 1
                # a smaller twin is free, or page parity refutes v
                per_level[k] += ways[0] * factorial(ways[1])
            else:
                stack.pop()
                continue
            stack[d] = v + 1
            if deadline is not None and time.monotonic() > deadline:
                raise _Timeout
            grown = self.place(d, v)
            if grown and self.clique(masks[d + 1], grown):
                stats.clique_refuted += 1
                per_level[k] += ways[0] * factorial(ways[1])
            elif d + 1 < n:
                stack.append(0)
            else:
                per_level[k] += 1
                out = color_graph(masks[n], k, DEFAULT_ORDER_NODES, deadline)
                stats.kernel_calls += 1
                stats.nodes += out.nodes
                if out.status == FOUND:
                    return tuple(self.spine), out.colors
                if out.status == UNKNOWN:
                    if deadline is not None and time.monotonic() > deadline:
                        raise _Timeout
                    self.unknown = True
        return None


def exact_mbt(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Smallest page count over all spine orders.

    The identity spine's greedy embedding is the answer until a scanned
    level finds a better one. k is searched upward from the certified lower
    bound, so the first feasible level is the answer; ``exhaustive`` is set
    when every level below it was either fully refuted or already below the
    bound. A timeout ends the scan with the answer so far, not exhaustive.
    An answer above ``max_pages`` is none: value and witness are None.
    """
    opts = (opts or SolveOptions()).checked()
    cap = opts.max_pages
    if not is_connected(g):
        raise ValueError("exact_mbt requires a connected graph")
    start = time.monotonic()
    deadline = start + opts.timeout_s if opts.timeout_s is not None else None
    cert = lower_bound(g)
    stats = SolveStats()

    spine = tuple(range(g.n))
    pages = first_fit_pages(g, spine)
    upper = max(pages, default=-1) + 1
    assert upper >= cert.value, "valid embedding beats the lower bound"

    exhaustive = True
    try:
        for k in range(cert.value, upper if cap is None else min(upper, cap + 1)):
            search = _PrefixSearch(g, k, deadline, stats)
            found = search.run()
            if found is not None:
                spine, pages = found
                break
            exhaustive = exhaustive and not search.unknown
    except _Timeout:
        stats.timed_out, exhaustive = True, False
    stats.orders_tested = sum(stats.per_level.values())
    stats.elapsed_s = time.monotonic() - start
    value = max(pages, default=-1) + 1
    if cap is not None and value > cap:
        return SolveResult(None, None, False, cert, stats)
    return SolveResult(value, BookEmbedding(g, spine, pages, value), exhaustive, cert, stats)
