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
every order that extends it, so one kernel call can refute a subtree.

Two rules skip search that cannot change an answer, and each is proved
where it is applied: the chromatic-index search starts at the overfull
count (``overfull_bound``), since no level below it can succeed, and the
prefix search places twin vertices in increasing order (``_PrefixSearch``),
since swapping twins maps every skipped order to an earlier one that is
just as feasible. Neither changes a value, certificate or witness; only
the node counters fall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import factorial

from .graphs import (
    Graph,
    bipartition,
    degrees,
    is_connected,
    is_regular,
    max_degree,
)
from .layout import BookEmbedding, crossings, incidence, straddling

FOUND = "found"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

DEFAULT_ORDER_NODES = 500_000
DEFAULT_CHI_NODES = 2_000_000


@dataclass(frozen=True)
class ColoringOutcome:
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
    UNKNOWN once the node budget runs out or, checked every 1,024 nodes,
    the ``time.monotonic()`` deadline has passed.

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
    bounded by Python's recursion limit.
    """
    m = len(masks)
    if m == 0:
        return ColoringOutcome(FOUND, ())
    if k <= 0:
        return ColoringOutcome(INFEASIBLE)
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
    # One frame per coloured vertex: [vertex, colours still to try, status
    # so far, colour held, vertices that colour newly reached, colours in
    # use before it]. ``result`` carries a finished child's status up to
    # the frame below it, whose vertex holds the colour that child was
    # searched under.
    stack: list[list] = []
    result = None
    while True:
        if result is None:
            if not free:
                colors = [0] * m
                for frame in stack:
                    colors[frame[0]] = frame[3]
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
                stack.append([low.bit_length() - 1, avail, INFEASIBLE, 0, 0, used])
            else:
                result = INFEASIBLE
        if result is not None:
            if not stack:
                return ColoringOutcome(result, None, nodes)
            frame = stack[-1]
            v, c, added, used = frame[0], frame[3], frame[4], frame[5]
            free |= 1 << v
            near[c] ^= added
            for i in bits:
                plane = planes[i]
                planes[i] = plane ^ added
                added &= ~plane
                if not added:
                    break
            if result == UNKNOWN:
                frame[2] = UNKNOWN
        frame = stack[-1]
        avail = frame[1]
        if not avail:
            stack.pop()
            result = frame[2]
            continue
        nodes += 1
        if nodes > node_budget:
            stack.pop()
            result = UNKNOWN
            continue
        if not nodes & 1023 and deadline is not None and time.monotonic() > deadline:
            return ColoringOutcome(UNKNOWN, None, nodes)
        bit = avail & -avail
        c = bit.bit_length() - 1
        v = frame[0]
        frame[1] = avail ^ bit
        frame[3] = c
        free ^= 1 << v
        added = masks[v] & ~near[c]
        near[c] |= added
        frame[4] = added
        for i in bits:
            plane = planes[i]
            planes[i] = plane ^ added
            added &= plane
            if not added:
                break
        if c == used:
            used += 1
        result = None


def _require_spine(g: Graph, spine) -> tuple[int, ...]:
    spine = tuple(spine)
    if sorted(spine) != list(range(g.n)):
        raise ValueError("spine is not a permutation of the graph's vertices")
    return spine


def first_fit_pages(g: Graph, spine) -> tuple[int, ...]:
    """Greedy page assignment in canonical edge order; always valid."""
    spine = _require_spine(g, spine)
    members: list[int] = []  # per page, the edges already on it
    pages = []
    for i, mask in enumerate(conflict_masks(g, spine)):
        c = next((c for c, on in enumerate(members) if not mask & on), len(members))
        if c == len(members):
            members.append(0)
        members[c] |= 1 << i
        pages.append(c)
    return tuple(pages)


@dataclass(frozen=True)
class EdgeColoringResult:
    value: int
    coloring: tuple[int, ...]
    nodes: int


def overfull_bound(g: Graph) -> int:
    """A lower bound on the chromatic index by counting edges.

    Every colour class is a matching, which covers at most ⌊n_H/2⌋ edges of
    a subgraph H on n_H vertices, so k colours cover at most k·⌊n_H/2⌋ of
    its m_H edges: k ≥ ⌈m_H / ⌊n_H/2⌋⌉. This takes H = G and, for even
    n ≥ 4, H = G − v for v of least degree δ (n − 1 vertices, m − δ edges),
    the vertex whose removal keeps the most edges. The max degree bounds
    the chromatic index too, and the larger of the three is returned.
    """
    ds = degrees(g)
    bound = max(ds, default=0)
    half = g.n // 2
    if half:
        bound = max(bound, -(-g.m // half))
    if g.n >= 4 and g.n % 2 == 0:
        bound = max(bound, -(-(g.m - min(ds)) // (half - 1)))
    return bound


def edge_chromatic_exact(
    g: Graph, node_budget: int = DEFAULT_CHI_NODES, deadline: float | None = None
) -> EdgeColoringResult | None:
    """Exact chromatic index, or None when out of budget or past the
    ``time.monotonic()`` deadline.

    Colours the shared-endpoint conflict graph, searching k upward from
    ``overfull_bound``, so the first success is exact: no level below that
    bound has a colouring, and searching those levels (as a start at the
    max degree would) could only refute them. The levels searched, and so
    the value and the colouring found, are those of a search from the max
    degree that finished; only the refuting levels' nodes are skipped.
    """
    if g.m > 80:
        return None
    if g.m == 0:
        return EdgeColoringResult(0, (), 0)
    masks = endpoint_conflict_masks(g)
    total = 0
    for k in range(overfull_bound(g), g.m + 1):
        out = color_graph(masks, k, node_budget, deadline)
        total += out.nodes
        if out.status == FOUND:
            return EdgeColoringResult(k, out.colors, total)
        if out.status == UNKNOWN:
            return None
    return None


@dataclass(frozen=True)
class BoundCertificate:
    """Provable page lower bound with re-checkable evidence."""

    value: int
    reason: str  # max-degree | chromatic-index | regular-nonbipartite
    max_degree: int
    regular_degree: int | None = None
    odd_cycle: tuple[int, ...] | None = None
    chromatic_index: int | None = None
    edge_coloring: tuple[int, ...] | None = None


def lower_bound(g: Graph, deadline: float | None = None) -> BoundCertificate:
    """Best provable lower bound on the number of pages.

    The max degree always holds, the chromatic index refines it, and a
    regular graph containing an odd cycle cannot meet the max-degree bound
    at all, which pushes the bound to max degree + 1. A chromatic-index
    search that runs out of ``DEFAULT_CHI_NODES`` nodes or past the
    deadline leaves the max-degree bound. That search starts at the
    overfull count (see ``edge_chromatic_exact``), so an overfull graph
    such as K9−e gets its chromatic-index bound from a single colouring
    at the count instead of a refutation of the max-degree level.
    """
    if not is_connected(g):
        raise ValueError("lower_bound requires a connected graph")
    d = max_degree(g)
    reg = is_regular(g)
    part = bipartition(g)
    if reg is not None and not part.is_bipartite:
        return BoundCertificate(
            d + 1, "regular-nonbipartite", d, regular_degree=reg, odd_cycle=part.odd_cycle
        )
    chi = edge_chromatic_exact(g, DEFAULT_CHI_NODES, deadline)
    if chi is not None and chi.value > d:
        return BoundCertificate(
            chi.value, "chromatic-index", d, chromatic_index=chi.value, edge_coloring=chi.coloring
        )
    return BoundCertificate(d, "max-degree", d)


@dataclass
class SolveOptions:
    """``timeout_s`` bounds the whole solve (None: no limit). ``jobs`` is
    accepted and ignored: each level is one prefix search in this process;
    it stays because the benchmark harness still passes it. Node budgets
    are the module constants ``DEFAULT_ORDER_NODES`` and ``DEFAULT_CHI_NODES``."""

    max_pages: int | None = None
    timeout_s: float | None = 600.0
    jobs: int = 1
    symmetry: bool = True


@dataclass
class SolveStats:
    orders_tested: int = 0
    nodes: int = 0
    elapsed_s: float = 0.0
    per_level: dict[int, int] = field(default_factory=dict)
    timed_out: bool = False


@dataclass
class SolveResult:
    value: int | None
    witness: BookEmbedding | None
    exhaustive: bool
    bound: BoundCertificate
    stats: SolveStats


class _Timeout(Exception):
    """The solve's deadline passed before or during a kernel call."""


class _PrefixSearch:
    """Depth-first search over spine prefixes at one page budget.

    Vertices are placed left to right, each time trying the free vertices
    in increasing order, so the canonical orders (vertex 0 first and the
    second vertex below the last, under symmetry) are reached in
    lexicographic order. Every unplaced vertex lies right of every placed
    one, and a crossing depends only on the relative order of four
    endpoints, so some conflicts are decided by the prefix alone:
    two closed edges (both ends placed) cross as on a full spine, and a
    closed edge conflicts with an open edge whose placed end lies strictly
    between its ends. The decided conflicts hold in every completion, so
    when the kernel refutes them at k pages, every order below the prefix
    is refuted. A full spine decides every pair, as ``conflict_masks``.

    A state is (spine prefix, positions, masks, parity masks ``odd``); masks
    start from the shared-endpoint conflicts, and placing v adds, for each
    edge it closes, the crossings ``layout.straddling`` decides that the
    masks lack. A level is one search from the root, in this process, so
    its result and counters do not depend on ``SolveOptions.jobs``. Each
    kernel call gets ``DEFAULT_ORDER_NODES`` nodes.

    Under symmetry, twins are placed in increasing order. Twins are
    u ≠ v with N(u)∖{v} = N(v)∖{u}, so the swap (u v) is an automorphism
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
    of the plain search; only kernel nodes are saved. Twins are one class
    per open or closed neighbourhood, and the rule places each class in
    increasing order, so checking v's nearest smaller twin suffices.
    Without symmetry the search stays plain enumeration: it is the oracle.
    """

    def __init__(self, g: Graph, k: int, symmetry: bool, deadline: float | None):
        self.n, self.edges = g.n, g.edges
        self.base = endpoint_conflict_masks(g)
        self.inc = incidence(self.n, self.edges)
        self.k = k
        self.pinned = symmetry and self.n >= 1
        self.mirror = symmetry and self.n >= 3
        self.twin = [-1] * self.n  # each vertex's nearest smaller twin
        if symmetry:
            near = [0] * self.n
            for a, b in self.edges:
                near[a] |= 1 << b
                near[b] |= 1 << a
            last: dict[int, int] = {}
            for v in range(self.n):
                for hood in (near[v], near[v] | 1 << v):
                    self.twin[v] = last.get(hood, self.twin[v])
                    last[hood] = v
        self.deadline = deadline
        self.settled = 0  # orders refuted or tested so far
        self.nodes = 0
        self.unknown = False

    def root(self):
        state = ((), [-1] * self.n, self.base, (0,))
        return self.place(state, 0)[0] if self.pinned else state

    def place(self, state, v: int):
        """The state extended by vertex v, and whether that decided a new
        conflict."""
        spine, pos, masks, odd = state
        here = len(spine)
        pos = pos[:]
        pos[v] = here
        changed = False
        rest = self.inc[v] & odd[-1]
        while rest:
            low = rest & -rest
            f = low.bit_length() - 1
            rest ^= low
            a, b = self.edges[f]
            new = straddling(odd, pos[b if a == v else a], here) & ~masks[f]
            if not new:
                continue
            if not changed:
                masks = masks[:]
                changed = True
            masks[f] |= new
            while new:
                bit = new & -new
                masks[bit.bit_length() - 1] |= low
                new ^= bit
        return (spine + (v,), pos, masks, odd + (odd[-1] ^ self.inc[v],)), changed

    def leaves(self, spine: tuple[int, ...]) -> int:
        """Canonical spine orders that extend the prefix."""
        free = self.n - len(spine)
        if not self.mirror:
            return factorial(free)
        if len(spine) == 1:
            return factorial(free) // 2
        # the order is canonical when its last vertex exceeds spine[1]
        if free == 0:
            return int(spine[-1] > spine[1])
        larger = sum(1 for v in range(spine[1] + 1, self.n) if v not in spine)
        return larger * factorial(free - 1)

    def kernel(self, masks: list[int]) -> ColoringOutcome:
        deadline = self.deadline
        out = color_graph(masks, self.k, DEFAULT_ORDER_NODES, deadline)
        self.nodes += out.nodes
        if out.status == UNKNOWN and deadline is not None and time.monotonic() > deadline:
            raise _Timeout
        return out

    def run(self):
        """Searches the orders below the root and returns the earliest
        feasible (spine, pages), or None.

        The search keeps its own stack of [state, the kernel's verdict on
        its masks, next vertex to try], so its depth (up to the vertex
        count) is not bounded by Python's recursion limit. A child whose
        placement decided no new conflict inherits its parent's verdict.
        """
        n = self.n
        twin = self.twin
        stack: list[list] = []
        state, out = self.root(), None
        while True:
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise _Timeout
            spine = state[0]
            if out is None:
                out = self.kernel(state[2])
            if out.status == INFEASIBLE:
                self.settled += self.leaves(spine)
            elif len(spine) == n:
                self.settled += 1
                if out.status == FOUND:
                    return spine, out.colors
                self.unknown = True
            else:
                stack.append([state, out, 0])
            while stack:
                frame = stack[-1]
                parent, v = frame[0], frame[2]
                pos = parent[1]
                while v < n:
                    if pos[v] < 0 and (leaves := self.leaves(parent[0] + (v,))):
                        t = twin[v]
                        if t < 0 or pos[t] >= 0:
                            break
                        self.settled += leaves  # a smaller twin is free
                    v += 1
                if v < n:
                    frame[2] = v + 1
                    state, changed = self.place(parent, v)
                    out = None if changed else frame[1]
                    break
                stack.pop()
            else:
                return None


def _scan_level(g: Graph, k: int, opts: SolveOptions, deadline: float | None, stats: SolveStats):
    """Searches the spine orders at page budget k.

    Returns (found, any_unknown); found is (spine, pages) for the earliest
    feasible order in enumeration sequence. Stats count the orders settled
    up to that one, or up to the deadline.
    Raises _Timeout once the deadline has passed.
    """
    search = _PrefixSearch(g, k, opts.symmetry, deadline)
    try:
        return search.run(), search.unknown
    finally:
        stats.nodes += search.nodes
        stats.orders_tested += search.settled
        stats.per_level[k] = search.settled


def _embedding_from(g: Graph, spine: tuple[int, ...], pages: tuple[int, ...]) -> BookEmbedding:
    count = max(pages) + 1 if pages else 0
    return BookEmbedding(g, spine, pages, count)


def exact_mbt(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Smallest page count over all spine orders.

    k is searched upward from the certified lower bound, so the first
    feasible level is the answer; ``exhaustive`` is set when every level
    below it was either fully refuted or already below the bound.
    """
    opts = opts or SolveOptions()
    if opts.timeout_s is not None and not opts.timeout_s >= 0:
        raise ValueError(f"timeout must be a non-negative number of seconds, not {opts.timeout_s}")
    if not is_connected(g):
        raise ValueError("exact_mbt requires a connected graph")
    start = time.monotonic()
    deadline = start + opts.timeout_s if opts.timeout_s is not None else None
    cert = lower_bound(g, deadline)
    stats = SolveStats()

    id_spine = tuple(range(g.n))
    greedy = first_fit_pages(g, id_spine)
    upper = max(greedy, default=-1) + 1
    fallback = _embedding_from(g, id_spine, greedy)
    assert upper >= cert.value, "valid embedding beats the lower bound"

    clean_below = True
    hi = upper if opts.max_pages is None else min(upper, opts.max_pages + 1)
    for k in range(cert.value, hi):
        try:
            found, level_unknown = _scan_level(g, k, opts, deadline, stats)
        except _Timeout:
            stats.timed_out = True
            stats.elapsed_s = time.monotonic() - start
            return SolveResult(upper, fallback, False, cert, stats)
        if found is not None:
            spine, pages = found
            emb = _embedding_from(g, spine, pages)
            stats.elapsed_s = time.monotonic() - start
            return SolveResult(emb.page_count, emb, clean_below, cert, stats)
        clean_below = clean_below and not level_unknown
    stats.elapsed_s = time.monotonic() - start
    if opts.max_pages is not None and upper > opts.max_pages:
        return SolveResult(None, None, False, cert, stats)
    return SolveResult(upper, fallback, clean_below, cert, stats)
