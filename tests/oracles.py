"""Independent brute-force oracles the tests pin expected values against.

Everything here is written from first principles (position dicts, double
loops, exhaustive assignment enumeration) and deliberately shares no code
with the package.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import permutations
from itertools import product as iproduct


def brute_valid(spine, edges, pages) -> bool:
    """Check every same-page edge pair and every (vertex, page) bucket."""
    where = {v: i for i, v in enumerate(spine)}
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if pages[i] != pages[j]:
                continue
            e, f = edges[i], edges[j]
            if set(e) & set(f):
                return False  # two edges at one vertex on one page
            a, b = sorted((where[e[0]], where[e[1]]))
            c, d = sorted((where[f[0]], where[f[1]]))
            if (a < c < b < d) or (c < a < d < b):
                return False
    return True


def brute_violation_count(spine, edges, pages) -> int:
    where = {v: i for i, v in enumerate(spine)}
    count = 0
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if pages[i] != pages[j]:
                continue
            e, f = edges[i], edges[j]
            if set(e) & set(f):
                continue
            a, b = sorted((where[e[0]], where[e[1]]))
            c, d = sorted((where[f[0]], where[f[1]]))
            if (a < c < b < d) or (c < a < d < b):
                count += 1
    buckets: dict[tuple[int, int], int] = {}
    for e, p in zip(edges, pages):
        for v in e:
            buckets[(p, v)] = buckets.get((p, v), 0) + 1
    count += sum(1 for c in buckets.values() if c >= 2)
    return count


def _interleave(where, e, f) -> bool:
    a, b = sorted((where[e[0]], where[e[1]]))
    c, d = sorted((where[f[0]], where[f[1]]))
    return (a < c < b < d) or (c < a < d < b)


def brute_conflict_masks(spine, edges) -> list[int]:
    """Page-conflict bitmasks by testing every edge pair: two edges
    conflict when they share an endpoint or interleave on the spine."""
    where = {v: i for i, v in enumerate(spine)}
    masks = [0] * len(edges)
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if set(edges[i]) & set(edges[j]) or _interleave(where, edges[i], edges[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def brute_violations(spine, edges, pages) -> list[tuple]:
    """Every violation in page order, crossings before matching clashes:
    ("crossing", page, e, f) per same-page interleaving pair with e < f,
    then ("matching", page, v, edges at v) per vertex with two or more
    edges on the page."""
    where = {v: i for i, v in enumerate(spine)}
    out = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e, f = sorted((edges[i], edges[j]))
            if pages[i] == pages[j] and not set(e) & set(f) and _interleave(where, e, f):
                out.append(((pages[i], 0, e, f), ("crossing", pages[i], e, f)))
    for page in set(pages):
        for v in spine:
            at = tuple(sorted(e for e, p in zip(edges, pages) if p == page and v in e))
            if len(at) >= 2:
                out.append(((page, 1, (v,), at), ("matching", page, v, at)))
    return [item for _, item in sorted(out)]


def brute_feasible(edges, spine, k: int) -> bool:
    """Try all k^m page assignments (only sensible for tiny m)."""
    if not edges:
        return True
    for assignment in iproduct(range(k), repeat=len(edges)):
        if brute_valid(spine, edges, assignment):
            return True
    return False


def brute_chromatic_index(edges) -> int:
    """Smallest k admitting a proper edge colouring, by full enumeration."""
    if not edges:
        return 0
    adjacent = [
        [j for j in range(len(edges)) if j != i and set(edges[i]) & set(edges[j])]
        for i in range(len(edges))
    ]
    for k in range(1, len(edges) + 1):
        for assignment in iproduct(range(k), repeat=len(edges)):
            if all(
                assignment[i] != assignment[j]
                for i in range(len(edges))
                for j in adjacent[i]
                if j > i
            ):
                return k
    return len(edges)


def product_edges_by_definition(gn, g_edges, bn, b_edges):
    """Adjacency of the product, straight from its defining clauses."""
    ge = {frozenset(e) for e in g_edges}
    be = {frozenset(e) for e in b_edges}
    vid = lambda left, right: right * gn + left
    out = set()
    for u1 in range(gn):
        for v1 in range(bn):
            for u2 in range(gn):
                for v2 in range(bn):
                    if (u1, v1) >= (u2, v2):
                        continue
                    adjacent = (u1 == u2 and frozenset((v1, v2)) in be) or (
                        v1 == v2 and frozenset((u1, u2)) in ge
                    )
                    if adjacent:
                        a, b = vid(u1, v1), vid(u2, v2)
                        out.add((min(a, b), max(a, b)))
    return out


def check_odd_cycle(g, cert) -> bool:
    """The certificate must be a closed odd walk of distinct vertices in g."""
    if cert is None or len(cert) % 2 == 0 or len(cert) < 3:
        return False
    if len(set(cert)) != len(cert):
        return False
    edge_set = set(g.edges)
    pairs = list(zip(cert, cert[1:])) + [(cert[-1], cert[0])]
    return all((min(a, b), max(a, b)) in edge_set for a, b in pairs)


def spine_orders(n: int, symmetry: bool = True):
    """Spine permutations; with symmetry=True, one per dihedral class
    (vertex 0 pinned to position 0, reflections dropped)."""
    if n == 0:
        yield ()
        return
    if not symmetry:
        yield from permutations(range(n))
        return
    if n == 1:
        yield (0,)
        return
    for rest in permutations(range(1, n)):
        if n >= 3 and rest[0] > rest[-1]:
            continue
        yield (0, *rest)


def rotate_spine(emb, k: int):
    """The embedding with its spine cyclically rotated by k positions;
    pages are untouched."""
    n = len(emb.spine)
    if n == 0:
        return emb
    k %= n
    return replace(emb, spine=emb.spine[k:] + emb.spine[:k])


def reflect_spine(emb):
    """The embedding with its spine reversed; pages are untouched."""
    return replace(emb, spine=emb.spine[::-1])
