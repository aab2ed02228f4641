"""Rebuild perfbench/corpus.json: the solve corpora as explicit edge lists.

Each entry carries the exhaustive answer of ``matchbook.solver.exact_mbt``
at identity labels (matching book thickness, certified lower bound and its
reason, and the number of spine orders refuted on the levels below the
answer), the rule that produced the graph and why it is in the corpus.
Relabelling the vertices leaves all of these unchanged.

A graph whose answer is its bound is solved as soon as the scan meets its
first feasible spine order, and where that happens depends on the labels:
over random labels one solve of R7-159 takes from 0.1 s to 3 s. So each
solve-find entry also carries a pool of labellings, the 6 of 48
random ones (from ``random.Random("labellings:<name>")``) whose spine
orders scanned are nearest the median; the benchmark draws from the pool,
which keeps its inputs seed-dependent but its cost steady.

Random graphs follow one rule: ``Rs-t`` is draw ``t`` (counted from 0,
disconnected draws included) of ``random.Random(s)``, where each draw is
G(9, 0.45) taken over the pairs u < v in lexicographic order.

Usage, from the repository root (takes a few minutes on two cores):
  PYTHONPATH=src python3 perfbench/make_corpus.py > perfbench/corpus.json
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from multiprocessing import get_context

from matchbook.graphs import Graph, is_connected
from matchbook.solver import SolveOptions, exact_mbt

LABELLINGS = 48
POOL = 6
RANDOM_RULE = (
    "draw {t} (from 0, disconnected draws counted) of random.Random({s}); "
    "each draw is G(9, 0.45) over pairs u<v in lexicographic order"
)


def draw(s: int, t: int) -> list[tuple[int, int]]:
    rng = random.Random(s)
    for _ in range(t + 1):
        edges = [(u, v) for u, v in combinations(range(9), 2) if rng.random() < 0.45]
    return edges


def minus(n: int, removed) -> list[tuple[int, int]]:
    return [e for e in combinations(range(n), 2) if e not in set(removed)]


def entry(name, n, edges, provenance, why) -> dict:
    g = Graph(n, edges)
    assert is_connected(g), name
    res = exact_mbt(g, SolveOptions(jobs=2, timeout_s=None))
    assert res.exhaustive and res.value is not None, name
    return {
        "name": name,
        "n": n,
        "edges": [list(e) for e in g.edges],
        "mbt": res.value,
        "lower_bound": res.bound.value,
        "bound_reason": res.bound.reason,
        "refuted_orders": sum(c for k, c in res.stats.per_level.items() if k < res.value),
        "provenance": provenance,
        "why": why,
    }


def _orders(job) -> int:
    n, edges, perm = job
    g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    return exact_mbt(g, SolveOptions(timeout_s=None)).stats.orders_tested


def with_pool(entries: list[dict], pool) -> list[dict]:
    """Attach to each entry the POOL labellings of median scan length."""
    for e in entries:
        rng = random.Random(f"labellings:{e['name']}")
        perms = []
        for _ in range(LABELLINGS):
            perm = list(range(e["n"]))
            rng.shuffle(perm)
            perms.append(perm)
        orders = pool.map(_orders, [(e["n"], e["edges"], p) for p in perms])
        mid = sorted(orders)[LABELLINGS // 2]
        ranked = sorted(range(LABELLINGS), key=lambda i: (abs(orders[i] - mid), i))[:POOL]
        e["labellings"] = [perms[i] for i in sorted(ranked)]
        e["labelling_orders"] = [orders[i] for i in sorted(ranked)]
    return entries


def randomized(s, t, why) -> dict:
    return entry(f"R{s}-{t}", 9, draw(s, t), RANDOM_RULE.format(s=s, t=t), why)


def main() -> None:
    refute = [
        randomized(7, 267, "sparse (m=16): refutes 4 pages over all 20,160 orders"),
        randomized(1, 268, "dense (m=23): the costliest kernel calls per refuted order"),
        randomized(1, 288, "middle density (m=20): refutes 5 pages"),
        randomized(2, 168, "a second sparse draw (m=16) from another stream"),
        entry("K8-e", 8, minus(8, [(0, 1)]), "K8 minus edge (0,1)",
              "n=8 level of 2,520 orders on a near-complete graph"),
        entry("K6-e", 6, minus(6, [(0, 1)]), "K6 minus edge (0,1)",
              "tiny level (60 orders): per-call overhead of the solver"),
    ]
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    kpcq33 = [(3 * c + u, 3 * c + v) for c in range(3) for u, v in combinations(range(3), 2)]
    kpcq33 += [(3 * c + x, 3 * ((c + 1) % 3) + x) for c in range(3) for x in range(3)]
    find = [
        entry("K4,4", 8, [(i, 4 + j) for i in range(4) for j in range(4)],
              "complete bipartite, parts 0..3 and 4..7", "dispersable; feasible orders are rare"),
        entry("K3,4", 7, [(i, 3 + j) for i in range(3) for j in range(4)],
              "complete bipartite, parts 0..2 and 3..6", "unbalanced bipartite, quick find"),
        entry("Q3", 8, [(v, v | 1 << b) for v in range(8) for b in range(3) if not v >> b & 1],
              "3-cube on bit strings", "sparse regular bipartite graph"),
        entry("Petersen", 10, petersen, "outer 5-cycle, inner pentagram, spokes i-(i+5)",
              "n=10: the only corpus graph whose full level would be 181,440 orders"),
        entry("K8-3e", 8, minus(8, [(0, 1), (2, 3), (4, 5)]), "K8 minus edges (0,1), (2,3), (4,5)",
              "dense graph found at the bound"),
        randomized(7, 2, "dense draw (m=21): long scan to the first feasible order"),
        randomized(7, 90, "draw with m=17: first feasible order anywhere in the level"),
        randomized(7, 159, "dense draw (m=23): the longest partial scan in the corpus"),
        randomized(7, 287, "draw with m=20: long partial scan"),
        randomized(7, 189, "sparse draw (m=15): cheap kernel calls"),
        entry("K3xC3", 9, kpcq33, "K3 stacked over C3, vertex (row x, column c) is 3c+x",
              "regular non-bipartite bound decides it at once"),
        entry("C5", 5, [(i, (i + 1) % 5) for i in range(5)], "5-cycle",
              "greedy upper bound meets the bound: no scan at all"),
        entry("K7-e", 7, minus(7, [(0, 1)]), "K7 minus edge (0,1)",
              "chromatic-index certificate lifts the bound above max degree"),
    ]
    with get_context("spawn").Pool(2) as pool:
        find = with_pool(find, pool)
    doc = {"solve-refute": refute, "solve-find": find}
    # one entry per line keeps the file readable and its diffs small
    print("{\n" + ",\n".join(
        f' "{key}": [\n  ' + ",\n  ".join(json.dumps(e) for e in entries) + "\n ]"
        for key, entries in doc.items()) + "\n}")


if __name__ == "__main__":
    main()
