"""Independent checks of matchbook's outputs.

Nothing here imports ``matchbook``: the graphs are rebuilt from their
definitions and embeddings are checked from first principles, so a defect
in the program cannot hide behind the same defect in its own validator.
"""

from __future__ import annotations

from itertools import combinations


def complete_edges(p: int) -> list[tuple[int, int]]:
    return list(combinations(range(p), 2))


def cycle_edges(q: int) -> list[tuple[int, int]]:
    return sorted([(i, i + 1) for i in range(q - 1)] + [(0, q - 1)])


def complete_bipartite_edges(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def product_edges(nl: int, left, nr: int, right) -> list[tuple[int, int]]:
    """Cartesian product edges; vertex (x, y) has id y * nl + x."""
    out = [(y * nl + u, y * nl + v) for y in range(nr) for u, v in left]
    out += [(j * nl + x, k * nl + x) for j, k in right for x in range(nl)]
    return sorted((u, v) if u < v else (v, u) for u, v in out)


def kpcq_edges(p: int, q: int) -> list[tuple[int, int]]:
    return product_edges(p, complete_edges(p), q, cycle_edges(q))


def graph_doc(name: str, n: int, edges) -> dict:
    """A graph file in matchbook's canonical format, without a family tag."""
    return {"type": "graph", "name": name, "n": n, "edges": [list(e) for e in sorted(edges)]}


def check_graph_doc(doc, n: int, edges) -> list[str]:
    """Problems with a graph document that should hold exactly these edges."""
    if not isinstance(doc, dict):
        return ["graph document is not an object"]
    problems = []
    if doc.get("n") != n:
        problems.append(f"n is {doc.get('n')!r}, expected {n}")
    got = doc.get("edges")
    if not isinstance(got, list) or sorted(tuple(e) for e in got) != sorted(edges):
        problems.append("edge list differs from the expected graph")
    return problems


def check_embedding(n: int, edges, spine, pages, page_count) -> list[str]:
    """Problems with a book embedding; empty when every page is a
    noncrossing matching under the spine.

    Each page is checked in O(s log s) for s edges: a page is a matching
    when no spine position is used twice, and a matching is noncrossing
    when a scan along the spine closes every arc at the top of a stack of
    open arcs.
    """
    if not isinstance(spine, list) or sorted(spine) != list(range(n)):
        return ["spine is not a permutation of 0..n-1"]
    if not isinstance(pages, list) or len(pages) != len(edges):
        return ["page list does not match the edge list"]
    if not isinstance(page_count, int) or any(
        not isinstance(p, int) or not 0 <= p < page_count for p in pages
    ):
        return ["page index out of range"]
    pos = [0] * n
    for i, v in enumerate(spine):
        pos[v] = i
    by_page: list[list[tuple[int, int]]] = [[] for _ in range(page_count)]
    for (u, v), p in zip(edges, pages):
        a, b = pos[u], pos[v]
        by_page[p].append((a, b) if a < b else (b, a))
    problems = []
    for p, arcs in enumerate(by_page):
        ends = [x for arc in arcs for x in arc]
        if len(set(ends)) != len(ends):
            problems.append(f"page {p} is not a matching")
            continue
        closes = {b: a for a, b in arcs}
        stack: list[int] = []
        for x in sorted(ends):
            if x in closes:
                if not stack or stack[-1] != closes[x]:
                    problems.append(f"page {p} has crossing edges")
                    break
                stack.pop()
            else:
                stack.append(x)
    return problems


def check_embedding_doc(doc, n: int, edges, page_count: int | None = None) -> list[str]:
    """Problems with an embedding document for the graph (n, edges);
    ``page_count`` is the page count the document must report."""
    if not isinstance(doc, dict):
        return ["embedding document is not an object"]
    problems = check_graph_doc(doc.get("graph"), n, edges)
    if problems:
        return problems
    count = doc.get("page_count")
    if page_count is not None and count != page_count:
        return [f"page_count is {count!r}, expected {page_count}"]
    return check_embedding(n, sorted(edges), doc.get("spine"), doc.get("pages"), count)


def check_svg(text: str, m: int) -> list[str]:
    """Shape of a rendered arc diagram: one arc per edge, closed document."""
    if not text.startswith("<?xml") or not text.endswith("</svg>\n"):
        return ["SVG document is not closed"]
    arcs = text.count('class="arc"/>') + text.count('class="arc bad"/>')
    if arcs != m:
        return [f"SVG has {arcs} arcs for {m} edges"]
    return []
