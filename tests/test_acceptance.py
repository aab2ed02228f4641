"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time

from matchbook.constructions import (
    SCHEME_KPCQ_EVEN,
    auto_embedding,
    complete_embedding,
    even_cycle_embedding,
    kpcq_embedding,
    path_witness,
    product_embedding,
)
from matchbook.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    delete_edge,
    hypercube,
    is_regular,
    kpcq,
    max_degree,
    path,
)
from matchbook.layout import BookEmbedding, validate
from matchbook.solver import exact_mbt, lower_bound
from oracles import brute_valid, check_odd_cycle


def _line(cid: int, detail: str) -> None:
    print(f"[acceptance] criterion {cid}: PASS ({detail})")


def test_criterion_1_construction_grid():
    t0 = time.perf_counter()
    for p in range(4, 9):
        for q in range(3, 9):
            out = auto_embedding(kpcq(p, q))
            rep = validate(out.embedding)
            assert rep.valid, (p, q, rep.violations[:3])
            assert out.embedding.page_count == p + 2, (p, q, out.embedding.page_count)
            assert out.embedding.page_count == max_degree(out.embedding.graph) + 1
            if q % 2 == 0:
                assert out.scheme == SCHEME_KPCQ_EVEN
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"grid took {elapsed:.2f}s"
    _line(1, f"30 instances, {elapsed:.2f}s")


def test_criterion_2_figures_reproduced():
    out = kpcq_embedding(5, 3)
    assert out.embedding.page_count == 7 and validate(out.embedding).valid

    out = kpcq_embedding(6, 3)
    assert out.embedding.page_count == 8 and validate(out.embedding).valid

    full = complete_embedding(5)
    k5e = delete_edge(complete(5), (0, 1))
    pages = tuple(p for e, p in zip(full.graph.edges, full.pages) if e != (0, 1))
    g_emb = BookEmbedding(k5e, full.spine, pages, 5)
    prod = product_embedding(g_emb, path_witness(3))
    assert prod.page_count == 7 and validate(prod).valid
    _line(2, "K5xC3=7, K6xC3=8, (K5-e)xP3=7 pages, all validator-clean")


def test_criterion_3_product_sweep():
    t0 = time.perf_counter()
    full5 = complete_embedding(5)
    k5e_pages = tuple(p for e, p in zip(full5.graph.edges, full5.pages) if e != (0, 1))
    g_embs = {
        "K3": complete_embedding(3),
        "K4": complete_embedding(4),
        "K5": complete_embedding(5),
        "K5-e": BookEmbedding(delete_edge(complete(5), (0, 1)), full5.spine, k5e_pages, 5),
        "C5": exact_mbt(cycle(5)).witness,
    }
    witnesses = {"P3": path_witness(3), "C4": even_cycle_embedding(2), "C6": even_cycle_embedding(3)}
    count = 0
    for gname, g_emb in g_embs.items():
        for bname, wit in witnesses.items():
            prod = product_embedding(g_emb, wit)
            want = g_emb.page_count + max_degree(wit.embedding.graph)
            assert prod.page_count == want, (gname, bname)
            assert validate(prod).valid, (gname, bname)
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _line(3, f"{count} products at pages(G)+max_degree(B), {elapsed:.2f}s")


def test_criterion_4_dispersable_oracles():
    t0 = time.perf_counter()
    cases = [
        (cycle(4), 2),
        (cycle(6), 2),
        (complete_bipartite(3, 3), 3),
        (hypercube(3), 3),
        (path(5), 2),
    ]
    for g, want in cases:
        res = exact_mbt(g)
        assert res.value == want, (g.name, res.value)
        assert res.exhaustive, g.name
        assert validate(res.witness).valid and res.witness.page_count == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(4, f"C4=2 C6=2 K33=3 Q3=3 P5=2 exhaustive, {elapsed:.2f}s")


def test_criterion_5_nonbipartite_oracles():
    t0 = time.perf_counter()
    cases = [(cycle(3), 3), (cycle(5), 3), (complete(4), 4), (complete(5), 5)]
    for g, want in cases:
        res = exact_mbt(g)
        assert res.value == want and res.exhaustive, (g.name, res.value)
        assert validate(res.witness).valid and res.witness.page_count == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(5, f"C3=3 C5=3 K4=4 K5=5 exhaustive, {elapsed:.2f}s")


def test_criterion_6_smallest_grid_instance_proved():
    t0 = time.perf_counter()
    g = kpcq(3, 3)
    cert = lower_bound(g)
    assert cert.reason == "regular-nonbipartite"
    assert cert.regular_degree == 4 and cert.value == 5
    assert check_odd_cycle(g, cert.odd_cycle)

    res = exact_mbt(g)
    assert res.exhaustive, "search must terminate exhaustively"
    assert validate(res.witness).valid and res.witness.page_count == res.value
    assert res.value == 5, (
        f"CLOSED-FORM CONFLICT: exact search proves mbt = {res.value} for the 3x3 "
        f"instance, while the construction's max_degree + 1 formula gives 5 — "
        f"report this, do not suppress it"
    )
    elapsed = time.perf_counter() - t0
    _line(6, f"mbt=5 exhaustive, bound 4-regular+odd-cycle=5, {elapsed:.2f}s")


def test_criterion_7_validator_oracle_equivalence():
    rng = random.Random(20260809)
    agree = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randint(0, len(pairs))
        edges = tuple(sorted(rng.sample(pairs, m)))
        g = Graph(n, edges)
        spine = list(range(n))
        rng.shuffle(spine)
        if g.m:
            width = rng.randint(1, min(g.m, 7))
            pages = [rng.randrange(width) for _ in range(g.m)]
            count = max(pages) + 1
        else:
            pages, count = [], 0
        emb = BookEmbedding(g, tuple(spine), tuple(pages), count)
        assert validate(emb).valid == brute_valid(emb.spine, g.edges, emb.pages)
        agree += 1
    _line(7, f"{agree}/1000 random instances agree with the pair/bucket oracle")


def test_criterion_8_symmetry_soundness():
    from matchbook.solver import SolveOptions

    families = (
        [complete(p) for p in range(1, 7)]
        + [cycle(q) for q in range(3, 7)]
        + [path(n) for n in range(1, 7)]
        + [complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 6) if a + b <= 6]
        + [hypercube(d) for d in range(0, 3)]
    )
    for g in families:
        assert g.n <= 6
        sym = exact_mbt(g, SolveOptions(symmetry=True))
        raw = exact_mbt(g, SolveOptions(symmetry=False))
        assert sym.value == raw.value, (g.name, sym.value, raw.value)
        assert sym.exhaustive and raw.exhaustive
    _line(8, f"{len(families)} graphs: reduced and unreduced optima agree")


def test_criterion_9_lower_bound_behavior():
    from matchbook.solver import INFEASIBLE, color_graph, endpoint_conflict_masks

    regular_nonbipartite = (
        [kpcq(p, q) for p in (3, 4, 5) for q in (3, 4)]
        + [complete(3), complete(5), complete(7)]
        + [cycle(3), cycle(5), cycle(7)]
    )
    others = [
        cycle(4),
        cycle(6),
        path(2),
        path(5),
        complete_bipartite(3, 3),
        complete_bipartite(2, 3),
        hypercube(3),
        delete_edge(complete(5), (0, 1)),
    ]
    for g in regular_nonbipartite:
        cert = lower_bound(g)
        assert cert.reason == "regular-nonbipartite", g.name
        assert cert.value == max_degree(g) + 1, g.name
        assert is_regular(g) == cert.regular_degree
        assert check_odd_cycle(g, cert.odd_cycle), g.name
    for g in others:
        cert = lower_bound(g)
        assert cert.reason in ("max-degree", "chromatic-index"), g.name
        if cert.reason == "max-degree":
            assert cert.value == max_degree(g)
        else:
            assert cert.value == cert.chromatic_index > max_degree(g)
            coloring = cert.edge_coloring
            for i in range(g.m):
                for j in range(i + 1, g.m):
                    if set(g.edges[i]) & set(g.edges[j]):
                        assert coloring[i] != coloring[j]
            out = color_graph(endpoint_conflict_masks(g), cert.value - 1)
            assert out.status == INFEASIBLE
    _line(
        9,
        f"{len(regular_nonbipartite)} regular non-bipartite at max_degree+1, "
        f"{len(others)} others at max_degree/chromatic-index, certificates re-validated",
    )
