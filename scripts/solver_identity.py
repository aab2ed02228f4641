#!/usr/bin/env python3
"""Solve one fixed set of graphs under two source trees and compare every
result and counter, or time the two trees against each other.

Each tree's `matchbook` package is copied into a temporary directory and
imported under its own package name (`matchbook_base`, `matchbook_head`),
so both run in this one process on the same inputs.

Identity mode (the default) solves:
  - the 19 graphs of perfbench/corpus.json on their committed labels;
  - every labelling in the corpus's labelling pools, from which the
    solve-find workload draws its inputs, each distinct labelled graph once;
  - K3 x C51;
  - the graphs of SCAN_CORPUS in tests/test_solver.py, built by the base
    tree's generators;
  - RANDOM_GRAPHS seeded random connected graphs with n = 3-9.
A labelling or scan-corpus graph whose edge set is already in the set is
skipped. Each graph runs 8 option sets: max_pages None, b-1, b and b+1
for its counted bound b, each with timeouts 0 and None. Every
SolveResult field, every BoundCertificate field by name and every
SolveStats field except elapsed_s is compared by its repr, so a value
differs from one of another type (True from 1, 3 from 3.0), and the
script prints, per key, how many solves differ, with the first differing
solves. It also compares, by repr, the kernel's status, colouring and
node count on the identity spines of K10 x C11 at k = 12 and K12 x C13
at k = 14. It exits 1 when anything differs.

--ab runs REPS alternating reps of three workloads under each tree,
timed by time.process_time: the solve-refute corpus on its committed
labels, every solve-find labelling in the pools, and the kernel on
K12 x C13's identity spine at k = 14. Per workload it prints each
tree's median and quartiles, the median of the per-rep head/base ratios,
and in how many reps the head took less time.

The script reads perfbench/corpus.json and changes nothing under perfbench/.

Usage:
  python3 scripts/solver_identity.py --base OLD/src --head src [--ab]
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.json"
RANDOM_GRAPHS, RANDOM_SEED = 300, 3409
SHOWN = 10  # differing solves listed by name
REPS = 11  # alternating reps per workload with --ab
KERNEL_SPINES = ((10, 11, 12), (12, 13, 14))  # (p, q, k): K_p x C_q's identity spine at k pages
MISSING = object()  # a key one record lacks


class Tree:
    """One source tree's ``graphs`` and ``solver`` modules, imported under
    the package name ``name`` from a copy of ``src/matchbook`` in ``tmp``."""

    def __init__(self, src: str, name: str, tmp: str):
        pkg = Path(tmp) / name
        shutil.copytree(Path(src) / "matchbook", pkg, ignore=shutil.ignore_patterns("__pycache__"))
        spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        self.graphs = importlib.import_module(f"{name}.graphs")
        self.solver = importlib.import_module(f"{name}.solver")

    def solve(self, n: int, edges, max_pages, timeout_s):
        opts = self.solver.SolveOptions(max_pages=max_pages, timeout_s=timeout_s)
        return self.solver.exact_mbt(self.graphs.Graph(n, edges), opts)

    def kernel_masks(self, p: int, q: int) -> list[int]:
        g = self.graphs.kpcq(p, q)
        return self.solver.conflict_masks(g, tuple(range(g.n)))


def corpus() -> dict:
    return json.loads(CORPUS.read_text())


def relabelled(e: dict, perm) -> tuple:
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in e["edges"]))


def labellings() -> list[tuple[str, int, tuple]]:
    """(name, n, edges) of every labelling in the corpus's labelling pools:
    every input the bench draws for a workload with a pool."""
    return [(f"{e['name']}#{j}", e["n"], relabelled(e, perm))
            for es in corpus().values() for e in es for j, perm in enumerate(e.get("labellings", ()))]


def random_graphs(count: int) -> list[tuple[str, int, tuple]]:
    """Connected graphs with n = 3-9: a random tree, plus each other pair
    with probability p."""
    rng = random.Random(RANDOM_SEED)
    out = []
    for t in range(count):
        n, p = 3 + t % 7, rng.choice((0.2, 0.4, 0.6, 0.8))
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {e for e in combinations(range(n), 2) if e not in edges and rng.random() < p}
        out.append((f"random-{t}", n, tuple(sorted(edges))))
    return out


def scan_corpus(graphs) -> list[tuple[str, int, tuple]]:
    """(name, n, edges) of SCAN_CORPUS in tests/test_solver.py, built by the
    generators of ``graphs``: small graphs, many of them rich in twins."""
    gs = [graphs.cycle(5), graphs.complete_bipartite(3, 4), graphs.hypercube(3), graphs.complete(5),
          graphs.delete_edge(graphs.complete(6), (0, 1)), graphs.kpcq(3, 3),
          graphs.delete_edge(graphs.complete(7), (0, 1)), graphs.complete_bipartite(2, 4),
          graphs.Graph(6, tuple(e for e in combinations(range(6), 2) if e not in ((0, 1), (2, 3), (4, 5))),
                       name="K2,2,2"),
          graphs.complete_bipartite(1, 5),
          graphs.Graph(7, ((0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (2, 5), (2, 6), (3, 4), (3, 5), (5, 6)),
                       name="R13-14")]
    return [(g.name, g.n, g.edges) for g in gs]


def identity_graphs(base: Tree) -> list[tuple[str, int, tuple]]:
    out = [(e["name"], e["n"], relabelled(e, range(e["n"]))) for es in corpus().values() for e in es]
    seen = {edges for _, _, edges in out}
    for name, n, edges in labellings() + scan_corpus(base.graphs):
        if edges not in seen:
            seen.add(edges)
            out.append((name, n, edges))
    k3c51 = base.graphs.kpcq(3, 51)
    return out + [("K3xC51", k3c51.n, k3c51.edges)] + random_graphs(RANDOM_GRAPHS)


def record(res) -> dict:
    """Every SolveResult field, with the bound split into its fields by
    name (so a reordering of them is no difference) and the stats into
    their counters, elapsed_s left out. A witness's graph becomes its vertex
    count and edges, as graphs of two trees never compare equal."""
    out = {}
    for field, value in zip(res._fields, res):
        if field == "bound":
            out.update({f"bound.{f}": v for f, v in value._asdict().items()})
        elif field == "stats":
            out.update({f"stats.{s}": getattr(value, s) for s in value.__slots__ if s != "elapsed_s"})
        elif field == "witness" and value is not None:
            out[field] = (value.graph.n, value.graph.edges, *value[1:])
        else:
            out[field] = value
    return out


def differing_keys(a: dict, b: dict) -> list[str]:
    """The keys at which two records differ in value or in type; a key one
    lacks differs."""
    return [k for k in sorted(a.keys() | b.keys()) if repr(a.get(k, MISSING)) != repr(b.get(k, MISSING))]


def solves(graphs, base: Tree):
    """(label, n, edges, max_pages, timeout_s) of every solve of ``graphs``,
    with b the bound that ``base`` counts."""
    for name, n, edges in graphs:
        b = base.solver.lower_bound(base.graphs.Graph(n, edges)).value
        for cap in (None, b - 1, b, b + 1):
            for timeout_s in (0, None):
                yield f"{name} max_pages={cap} timeout={timeout_s}", n, edges, cap, timeout_s


def identity(base: Tree, head: Tree, graphs) -> tuple[list[str], int]:
    """The report of comparing every solve of ``graphs`` under both trees,
    and the number of solves that differ. The report has one line per key
    compared, the first differing solves, and a summary line."""
    keys: Counter = Counter()  # per key compared, the solves that differ at it
    differ, total = [], 0
    for label, n, edges, *case in solves(graphs, base):
        total += 1
        a, b = record(base.solve(n, edges, *case)), record(head.solve(n, edges, *case))
        bad = differing_keys(a, b)
        keys.update({key: key in bad for key in a.keys() | b.keys()})
        if bad:
            differ.append(f"  {label}: {', '.join(bad)}")
    lines = [f"{key}: {count} of {total} solves differ" for key, count in sorted(keys.items())]
    lines += differ[:SHOWN] + ([f"  ... {len(differ) - SHOWN} more"] if len(differ) > SHOWN else [])
    return lines + [f"{total} solves of {len(graphs)} graphs, {len(differ)} differ"], len(differ)


def kernel_identity(base: Tree, head: Tree) -> tuple[list[str], int]:
    """One line per kernel call of KERNEL_SPINES, and how many differ in
    status, colouring or node count."""
    lines, differ = [], 0
    for p, q, k in KERNEL_SPINES:
        a, b = (tuple(t.solver.color_graph(t.kernel_masks(p, q), k)) for t in (base, head))
        equal = repr(a) == repr(b)
        differ += not equal
        same = "identical" if equal else f"differs (base {a[0]}, {a[2]:,} nodes)"
        lines.append(f"kernel on K{p}xC{q}'s identity spine at k = {k}: {same}; head {b[0]}, {b[2]:,} nodes")
    return lines, differ


def spread(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"median {median:.4f} s (quartiles {q1:.4f}-{q3:.4f})"


def ab(base: Tree, head: Tree) -> list[str]:
    """One line per workload: each tree's CPU time over REPS reps,
    alternating which tree runs first, the median head/base ratio of a
    rep, and the reps in which the head took less time."""
    entries = corpus()["solve-refute"]
    refute = [(e["n"], relabelled(e, range(e["n"]))) for e in entries]
    find = [(n, edges) for _, n, edges in labellings()]
    p, q, k = KERNEL_SPINES[-1]
    trees = {"base": base, "head": head}
    masks = {side: tree.kernel_masks(p, q) for side, tree in trees.items()}

    def solve_all(side, graphs):
        for n, edges in graphs:
            trees[side].solve(n, edges, None, None)

    workloads = {
        "solve-refute": lambda side: solve_all(side, refute),
        "solve-find": lambda side: solve_all(side, find),
        f"kernel K{p}xC{q} k={k}": lambda side: trees[side].solver.color_graph(masks[side], k),
    }
    lines = []
    for name, work in workloads.items():
        times: dict[str, list[float]] = {"base": [], "head": []}
        for rep in range(REPS):
            for side in ("base", "head") if rep % 2 == 0 else ("head", "base"):
                t = time.process_time()
                work(side)
                times[side].append(time.process_time() - t)
        ratios = [h / b for h, b in zip(times["head"], times["base"])]
        wins = sum(h < b for h, b in zip(times["head"], times["base"]))
        lines.append(f"{name}: base {spread(times['base'])}, head {spread(times['head'])};"
                     f" median ratio {statistics.median(ratios):.3f}, head lower in {wins} of {REPS}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="source tree of one side (the directory holding matchbook/)")
    ap.add_argument("--head", required=True, help="source tree of the other side")
    ap.add_argument("--ab", action="store_true", help="time the two trees instead of comparing their results")
    args = ap.parse_args()
    for src in (args.base, args.head):
        if not (Path(src) / "matchbook").is_dir():
            ap.error(f"{src} holds no matchbook package")

    with tempfile.TemporaryDirectory() as tmp:
        base, head = Tree(args.base, "matchbook_base", tmp), Tree(args.head, "matchbook_head", tmp)
        if args.ab:
            for line in ab(base, head):
                print(line, flush=True)
            return 0
        kernel_lines, kernel_differ = kernel_identity(base, head)
        lines, differ = identity(base, head, identity_graphs(base))
    for line in kernel_lines + lines:
        print(line)
    return 1 if kernel_differ or differ else 0


if __name__ == "__main__":
    sys.exit(main())
