"""Simple undirected graphs with canonical edge storage.

Vertices are dense integers 0..n-1. Edges are unordered pairs stored as
sorted tuples in lexicographic order, which makes structural equality and
parallel arrays (such as page assignments) unambiguous. Graph values are
immutable and hashable; generators attach a ``family`` tag so the CLI can
recognise where a graph came from without any isomorphism testing.
``FAMILIES`` is the one table of the tagged generators: the CLI's ``gen``
builds from it and the file formats check tags against it.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

Edge = tuple[int, int]


def _canonical_edges(n: int, edges) -> tuple[Edge, ...]:
    seen: set[Edge] = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise ValueError(f"edge {e!r} is not a pair") from None
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise ValueError(f"duplicate edge {pair}")
        seen.add(pair)
    return tuple(sorted(seen))


class Graph:
    """Immutable simple graph; equality and hashing ignore name/family."""

    __slots__ = ("n", "edges", "name", "family")

    def __init__(self, n: int, edges=(), name: str = "G", family: tuple | None = None) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        init = object.__setattr__
        init(self, "n", n)
        init(self, "edges", _canonical_edges(n, edges))
        init(self, "name", name)
        init(self, "family", family)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Graph")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Graph")

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r}, name={self.name!r}, family={self.family!r})"

    def __reduce__(self):
        return Graph, (self.n, self.edges, self.name, self.family)

    @property
    def m(self) -> int:
        return len(self.edges)


class ProductLabel(NamedTuple):
    """Factor coordinates of a product vertex: id = right * n_left + left."""

    left: int
    right: int


@lru_cache(maxsize=512)
def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Neighbour tuples indexed by vertex, each sorted ascending."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


def degrees(g: Graph) -> tuple[int, ...]:
    return tuple(len(a) for a in adjacency(g))


def max_degree(g: Graph) -> int:
    return max(degrees(g), default=0)


def is_regular(g: Graph) -> int | None:
    """The common degree if all vertices agree, else None."""
    if g.n == 0:
        return 0
    ds = set(degrees(g))
    return ds.pop() if len(ds) == 1 else None


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    if g.m < g.n - 1:
        # too few edges for a spanning tree, decided without O(n) work
        return False
    adj = adjacency(g)
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


class BipartitionResult(NamedTuple):
    """Either a proper 2-colouring or an explicit odd cycle, never both."""

    coloring: tuple[int, ...] | None = None
    odd_cycle: tuple[int, ...] | None = None

    @property
    def is_bipartite(self) -> bool:
        return self.coloring is not None


def bipartition(g: Graph) -> BipartitionResult:
    """2-colour each component by BFS; on failure return an odd cycle.

    The cycle is a sequence of distinct vertices whose consecutive pairs,
    including last-to-first, are all edges of ``g``.
    """
    adj = adjacency(g)
    color = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    return BipartitionResult(odd_cycle=_close_cycle(u, w, parent))
    return BipartitionResult(coloring=tuple(color))


def _close_cycle(u: int, w: int, parent: list[int]) -> tuple[int, ...]:
    # walk both endpoints of the offending edge up to their lowest common
    # ancestor; the two tree paths plus the edge (w, u) form an odd cycle.
    # The colour is the parity of the BFS depth, and adjacent vertices'
    # depths differ by at most one, so u and w, of one colour, sit at one
    # depth and climb in step
    pu: list[int] = []
    pw: list[int] = []
    while u != w:
        pu.append(u)
        u = parent[u]
        pw.append(w)
        w = parent[w]
    return tuple(pu + [u] + list(reversed(pw)))


def delete_edge(g: Graph, e: Edge) -> Graph:
    u, v = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
    if (u, v) not in g.edges:
        raise ValueError(f"edge ({u}, {v}) not in graph")
    rest = tuple(x for x in g.edges if x != (u, v))
    return Graph(g.n, rest, name=f"{g.name}-e", family=None)


# generator families


def complete(p: int) -> Graph:
    if p < 1:
        raise ValueError("complete graph needs p >= 1")
    return Graph(p, tuple(combinations(range(p), 2)), name=f"K{p}", family=("complete", p))


def cycle(q: int) -> Graph:
    if q < 3:
        raise ValueError("cycle needs q >= 3")
    edges = [(i, i + 1) for i in range(q - 1)] + [(0, q - 1)]
    return Graph(q, tuple(edges), name=f"C{q}", family=("cycle", q))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)), name=f"P{n}", family=("path", n))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs a, b >= 1")
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return Graph(a + b, edges, name=f"K{a},{b}", family=("complete-bipartite", a, b))


def hypercube(d: int) -> Graph:
    if d < 0:
        raise ValueError("hypercube needs d >= 0")
    n = 1 << d
    edges = tuple((v, v | (1 << b)) for v in range(n) for b in range(d) if not v & (1 << b))
    return Graph(n, edges, name=f"Q{d}", family=("hypercube", d))


def cartesian_product(g: Graph, b: Graph) -> Graph:
    """Cartesian product with row-major vertex ids: (left, right) maps to
    right * g.n + left, so each right-factor vertex owns one contiguous
    block of ids holding a full copy of the left factor."""
    if g.n == 0 or b.n == 0:
        raise ValueError("product factors must be nonempty")
    # the loops run over factor edges, so the work is O(edges of the product)
    # however many vertices the factors claim
    edges = [(j * g.n + u, j * g.n + v) for u, v in g.edges for j in range(b.n)]
    edges += [(j * g.n + x, k * g.n + x) for j, k in b.edges for x in range(g.n)]
    return Graph(g.n * b.n, tuple(edges), name=f"{g.name}□{b.name}", family=("product", g, b))


def kpcq(p: int, q: int) -> Graph:
    """Complete graph on p vertices stacked over a q-cycle."""
    if p < 3 or q < 3:
        raise ValueError("kpcq needs p >= 3 and q >= 3")
    prod = cartesian_product(complete(p), cycle(q))
    return Graph(prod.n, prod.edges, name=prod.name, family=("kpcq", p, q))


# kind -> (generator, its `gen` flags, closed-form (n, m) of its graph); the
# product, tagged with its factor graphs, is built by cartesian_product
FAMILIES = {
    "complete": (complete, ("n",), lambda p: (p, p * (p - 1) // 2)),
    "cycle": (cycle, ("n",), lambda q: (q, q)),
    "path": (path, ("n",), lambda n: (n, n - 1)),
    "complete-bipartite": (complete_bipartite, ("a", "b"), lambda a, b: (a + b, a * b)),
    # no document holds the 64 * 2**63 edges of Q64, so a larger d never
    # matches and 2**d need not be computed
    "hypercube": (hypercube, ("d",), lambda d: (1 << d, d << d >> 1) if 0 <= d <= 64 else None),
    "kpcq": (kpcq, ("p", "q"), lambda p, q: (p * q, p * q * (p + 1) // 2)),
}


def product_labels(n_left: int, n_right: int) -> tuple[ProductLabel, ...]:
    """Label table in vertex-id order for a row-major product."""
    return tuple(ProductLabel(v % n_left, v // n_left) for v in range(n_left * n_right))


def n_left(g: Graph) -> int | None:
    """Block size of a product-tagged graph (its left factor's vertex
    count), or None for any other tag."""
    fam = g.family
    if fam and fam[0] == "product":
        return fam[1].n
    return fam[1] if fam and fam[0] == "kpcq" else None


def vertex_labels(g: Graph) -> tuple[str, ...]:
    """Display labels: grid coordinates for products, bit strings for cubes."""
    block = n_left(g)
    if block:
        return tuple(f"u{v // block + 1}v{v % block + 1}" for v in range(g.n))
    if g.family and g.family[0] == "hypercube" and g.family[1] > 0:
        return tuple(format(v, f"0{g.family[1]}b") for v in range(g.n))
    return tuple(str(v) for v in range(g.n))
