import json
import random
import sys
import time
import tracemalloc
from itertools import combinations, islice, permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchbook import solver
from matchbook.graphs import (
    Graph,
    bipartition,
    complete,
    complete_bipartite,
    cycle,
    delete_edge,
    hypercube,
    is_connected,
    is_regular,
    kpcq,
    max_degree,
    path,
)
from matchbook.constructions import kpcq_embedding
from matchbook.layout import validate
from matchbook.solver import (
    DEFAULT_ORDER_NODES,
    FOUND,
    INFEASIBLE,
    UNKNOWN,
    BoundCertificate,
    SolveOptions,
    SolveStats,
    _PrefixSearch,
    _Timeout,
    color_graph,
    conflict_masks,
    edge_chromatic_exact,
    endpoint_conflict_masks,
    exact_mbt,
    first_fit_pages,
    lower_bound,
)
from oracles import (
    brute_chromatic_index,
    brute_clique,
    brute_conflict_masks,
    brute_feasible,
    check_odd_cycle,
    overfull_count,
    spine_orders,
)
from strategies import graphs

# K9-e with a pendant path 0-9-10: max degree 8, and neither G nor G - v is
# overfull, but peeling the path leaves K9-e, whose 35 edges exceed 8 * 4
K9E_PATH = Graph(11, (*delete_edge(complete(9), (0, 1)).edges, (0, 9), (9, 10)), name="K9-e+path")
# Petersen's outer 5-cycle, pentagram and spokes, less vertex 0: class 2 with
# no overfull subgraph, so counting proves only its max degree
_PETERSEN = [(i, (i + 1) % 5) for i in range(5)]
_PETERSEN += [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
PETERSEN_V = Graph(9, tuple((a - 1, b - 1) for a, b in _PETERSEN if 0 not in (a, b)), name="Petersen-v")


def check_certificate(g, cert: BoundCertificate) -> None:
    assert cert.max_degree == max_degree(g)
    if cert.reason == "regular-nonbipartite":
        assert is_regular(g) == cert.regular_degree
        assert check_odd_cycle(g, cert.odd_cycle)
        assert cert.value == cert.max_degree + 1
    elif cert.reason == "chromatic-index":
        assert cert.value == cert.chromatic_index > cert.max_degree
        # the overfull subgraph's edges, recounted from g, need value pages
        assert overfull_count(g, cert.overfull) == cert.value
        # and one fewer colour is refuted by an exhaustive search
        out = color_graph(endpoint_conflict_masks(g), cert.value - 1)
        assert out.status == INFEASIBLE
    else:
        assert cert.reason == "max-degree"
        assert cert.value == cert.max_degree


def test_lower_bound_examples():
    cert = lower_bound(kpcq(3, 3))
    assert cert.value == 5 and cert.reason == "regular-nonbipartite"
    check_certificate(kpcq(3, 3), cert)

    cert = lower_bound(cycle(4))
    assert cert.value == 2 and cert.reason == "max-degree"
    check_certificate(cycle(4), cert)

    # odd cycles are 2-regular with an odd cycle, so the structural bound
    # already gives 3 = chromatic index
    cert = lower_bound(cycle(5))
    assert cert.value == 3
    check_certificate(cycle(5), cert)

    cert = lower_bound(delete_edge(complete(5), (0, 1)))
    assert cert.value == 5 and cert.reason == "chromatic-index"
    assert cert.overfull == (0, 1, 2, 3, 4)
    check_certificate(delete_edge(complete(5), (0, 1)), cert)


def test_lower_bound_requires_connected():
    with pytest.raises(ValueError):
        lower_bound(Graph(4, ((0, 1),)))


def test_edge_chromatic_examples():
    assert edge_chromatic_exact(cycle(3)).value == 3
    assert edge_chromatic_exact(complete(4)).value == brute_chromatic_index(complete(4).edges) == 3
    k33 = complete_bipartite(3, 3)
    assert edge_chromatic_exact(k33).value == brute_chromatic_index(k33.edges) == 3
    assert edge_chromatic_exact(cycle(5)).value == brute_chromatic_index(cycle(5).edges) == 3


def test_edge_chromatic_budget_unknown():
    assert edge_chromatic_exact(complete(6), node_budget=1) is None


def feasible(g, spine, k, node_budget=DEFAULT_ORDER_NODES):
    """k pages under a fixed spine: the kernel on the spine's conflict masks."""
    return color_graph(conflict_masks(g, tuple(spine)), k, node_budget)


def test_feasible_pages_examples():
    c4 = cycle(4)
    out = feasible(c4, (0, 1, 2, 3), 2)
    assert out.status == FOUND
    emb = validate_pages(c4, (0, 1, 2, 3), out.colors)
    assert emb

    for spine in spine_orders(3):
        assert feasible(cycle(3), spine, 2).status == INFEASIBLE

    snake = snake_spine(5, 3)
    out = feasible(kpcq(5, 3), snake, 7)
    assert out.status == FOUND
    assert validate_pages(kpcq(5, 3), snake, out.colors)


def validate_pages(g, spine, pages) -> bool:
    from matchbook.layout import BookEmbedding

    count = max(pages) + 1 if pages else 0
    return validate(BookEmbedding(g, tuple(spine), tuple(pages), count)).valid


def snake_spine(p, q):
    from matchbook.constructions import _snake_spine

    return _snake_spine(p, q)


def test_feasible_pages_unknown_distinct_from_infeasible():
    # k is generous so an assignment exists, but five nodes cannot reach it
    out = feasible(kpcq(4, 4), range(16), 12, 5)
    assert out.status == UNKNOWN and out.colors is None


@given(graphs(min_n=2, max_n=6), st.integers(1, 3))
@settings(max_examples=60)
def test_feasible_pages_agrees_with_brute_force(g, k):
    if g.m > 10:
        return
    spine = tuple(range(g.n))
    out = feasible(g, spine, k)
    assert out.status in (FOUND, INFEASIBLE)
    assert (out.status == FOUND) == brute_feasible(g.edges, spine, k)
    if out.status == FOUND:
        assert validate_pages(g, spine, out.colors)
        assert max(out.colors, default=-1) < k


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=40)
def test_feasible_pages_monotone(g):
    spine = tuple(range(g.n))
    for k in range(1, 5):
        if feasible(g, spine, k).status == FOUND:
            assert feasible(g, spine, k + 1).status == FOUND
            break


def test_first_fit_is_valid():
    for g in [complete(6), kpcq(4, 4), hypercube(3)]:
        pages = first_fit_pages(g, tuple(range(g.n)))
        assert validate_pages(g, range(g.n), pages)


@pytest.mark.parametrize(
    "p, q, limit", [(20, 21, 0.75), (30, 31, 1.0)], ids=["K20xC21", "K30xC31"]
)
def test_first_fit_on_the_k20c21_snake_spine_is_near_linear(p, q, limit):
    # m = 4,410 and 14,415; a loop per conflicting or crossing pair of edges
    # in the shell does not fit these limits
    emb = kpcq_embedding(p, q).embedding
    start = time.perf_counter()
    pages = first_fit_pages(emb.graph, emb.spine)
    valid = validate_pages(emb.graph, emb.spine, pages)
    assert time.perf_counter() - start < limit
    assert valid


def test_spine_order_counts():
    assert list(spine_orders(1)) == [(0,)]
    assert list(spine_orders(2)) == [(0, 1)]
    assert len(list(spine_orders(4))) == 3  # (n-1)!/2
    assert len(list(spine_orders(5, symmetry=False))) == 120
    for order in spine_orders(5):
        assert order[0] == 0 and order[1] < order[-1]


def test_exact_mbt_basics():
    res = exact_mbt(complete(4))
    assert res.value == 4 and res.exhaustive
    assert validate(res.witness).valid and res.witness.page_count == 4

    assert exact_mbt(cycle(4)).value == 2
    assert exact_mbt(path(3)).value == 2
    assert exact_mbt(path(2)).value == 1
    assert exact_mbt(path(1)).value == 0
    assert exact_mbt(cycle(3)).value == 3


def test_exact_mbt_rejects_disconnected():
    with pytest.raises(ValueError):
        exact_mbt(Graph(3, ((0, 1),)))


def test_sandwich_lower_bound_vs_value():
    for g in [complete(4), cycle(5), complete_bipartite(2, 3), path(4), hypercube(2)]:
        res = exact_mbt(g)
        assert lower_bound(g).value <= res.value


@pytest.mark.parametrize(
    "g",
    [complete(4), complete(5), cycle(3), cycle(4), cycle(5), path(4), complete_bipartite(2, 2)],
)
def test_symmetry_quotient_loses_nothing(g):
    # the scan tests one order per rotation/reflection class; over all n!
    # orders no level below its value is feasible, and the first feasible
    # order at its value is its witness spine
    res = exact_mbt(g)
    assert res.exhaustive
    for k in range(res.bound.value, res.value):
        assert flat_scan(g, k, False) == (None, factorial(g.n))
    found, _ = flat_scan(g, res.value, False)
    assert found[0] == res.witness.spine


def test_max_pages_cap():
    res = exact_mbt(complete(4), SolveOptions(max_pages=3))
    assert res.value is None and res.witness is None and not res.exhaustive


def test_timeout_returns_upper_bound():
    res = exact_mbt(complete_bipartite(3, 3), SolveOptions(timeout_s=0.0))
    assert res.stats.timed_out and not res.exhaustive
    assert res.value is not None and res.value == res.witness.page_count
    assert validate(res.witness).valid


@pytest.mark.parametrize("cap", [4.5, -3, "5", True])
def test_max_pages_must_be_none_or_a_non_negative_int(cap):
    with pytest.raises(ValueError, match="max pages"):
        exact_mbt(complete(4), SolveOptions(max_pages=cap))


@st.composite
def connected_graphs(draw):
    # a random graph joined up by the path 0-1-...-(n-1)
    g = draw(graphs(min_n=1, max_n=7))
    return Graph(g.n, tuple(sorted({*g.edges, *((i, i + 1) for i in range(g.n - 1))})), name="H")


@given(connected_graphs(), st.integers(-1, 2), st.sampled_from([None, 0]))
@settings(max_examples=150, deadline=None)
def test_no_answer_exceeds_max_pages(g, offset, timeout):
    # with or without a timeout, an answer above the cap is no answer
    cap = max(0, max_degree(g) + offset)
    res = exact_mbt(g, SolveOptions(max_pages=cap, timeout_s=timeout))
    if res.value is None:
        assert res.witness is None and not res.exhaustive
    else:
        assert res.value <= cap and res.witness.page_count == res.value
        assert validate(res.witness).valid


def test_witness_page_count_matches_value():
    for g in [complete(5), cycle(5), complete_bipartite(3, 3)]:
        res = exact_mbt(g)
        assert res.witness.page_count == res.value


def test_starved_order_budget_never_claims_exactness(monkeypatch):
    # with a 3-node budget every order scan is unknown, so the result can
    # only be the greedy upper bound, flagged non-exhaustive
    monkeypatch.setattr(solver, "DEFAULT_ORDER_NODES", 3)
    res = exact_mbt(complete_bipartite(3, 3))
    assert not res.exhaustive
    assert res.value is not None and validate(res.witness).valid
    assert res.value >= 3


@pytest.mark.parametrize("p,q", [(4, 3), (3, 4)])
def test_solver_confirms_grid_closed_form(p, q):
    # independent exhaustive proof that the construction's page count is
    # optimal on instances one step past the smallest one
    g = kpcq(p, q)
    res = exact_mbt(g)
    assert res.exhaustive
    assert res.value == p + 2 == max_degree(g) + 1
    assert validate(res.witness).valid


def recursive_color_graph(masks, k, node_budget=DEFAULT_ORDER_NODES):
    """The kernel as it was written before it kept its own stack: the
    reference for its branching order, node counts and colourings."""
    m = len(masks)
    if m == 0:
        return FOUND, (), 0
    if k <= 0:
        return INFEASIBLE, None, 0
    full = (1 << k) - 1
    degs = [mask.bit_count() for mask in masks]
    colors = [-1] * m
    forb = [0] * m
    counts = [[0] * k for _ in range(m)]
    usage = [0] * k
    state = {"nodes": 0, "used": 0}
    found = [None]

    def pick():
        best, key = -1, None
        for v in range(m):
            if colors[v] < 0:
                cand = (forb[v].bit_count(), degs[v], -v)
                if key is None or cand > key:
                    best, key = v, cand
        return best

    def recolor(v, c, step):
        for u in range(m):
            if masks[v] >> u & 1 and colors[u] < 0:
                counts[u][c] += step
                if counts[u][c]:
                    forb[u] |= 1 << c
                else:
                    forb[u] &= ~(1 << c)

    def search():
        v = pick()
        if v < 0:
            found[0] = tuple(colors)
            return FOUND
        avail = ~forb[v] & full
        if not avail:
            return INFEASIBLE
        used = state["used"]
        for c in range(used + 1 if used < k else k):
            if not avail >> c & 1:
                continue
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                return UNKNOWN
            colors[v] = c
            recolor(v, c, 1)
            usage[c] += 1
            state["used"] += usage[c] == 1
            r = search()
            usage[c] -= 1
            state["used"] -= usage[c] == 0
            colors[v] = -1
            recolor(v, c, -1)
            if r == FOUND:
                return FOUND
            if r == UNKNOWN:
                return UNKNOWN
        return INFEASIBLE

    status = search()
    return status, found[0], state["nodes"]


@given(
    graphs(min_n=2, max_n=9),
    st.integers(0, 9),
    st.integers(1, 60),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150)
def test_color_graph_matches_recursive_reference(g, k, budget, rnd):
    # k up to 9 keeps saturations in four bit planes, with carries through
    # all of them; a prefix's masks are the kernel's other kind of input
    spine = list(range(g.n))
    rnd.shuffle(spine)
    prefix = spine[: rnd.randint(0, g.n)]
    # the reference pays O(m) per node, so complete searches stay at n <= 7
    large = DEFAULT_ORDER_NODES if g.n <= 7 else 5_000
    for masks in (conflict_masks(g, tuple(spine)), endpoint_conflict_masks(g), replay(g, prefix)):
        for b in (budget, large):
            out = color_graph(masks, k, b)
            assert (out.status, out.colors, out.nodes) == recursive_color_graph(masks, k, b)


def test_color_graph_depth_beyond_recursion_limit():
    # m = 1,155 edges on the snake spine; a recursive search overflowed here
    emb = kpcq_embedding(10, 21).embedding
    out = feasible(emb.graph, emb.spine, 12)
    assert out.status == FOUND
    assert max(out.colors) + 1 == 12 and validate_pages(emb.graph, emb.spine, out.colors)


def test_color_graph_snake_spine_m2520():
    emb = kpcq_embedding(15, 21).embedding
    out = feasible(emb.graph, emb.spine, 17)
    assert out.status == FOUND
    assert max(out.colors) + 1 == 17 and validate_pages(emb.graph, emb.spine, out.colors)


def test_color_graph_stops_at_deadline():
    # K9-e is not 8-edge-colourable, and refuting that takes millions of
    # nodes; a passed deadline stops the search at the first check
    masks = endpoint_conflict_masks(delete_edge(complete(9), (0, 1)))
    out = color_graph(masks, 8, DEFAULT_ORDER_NODES, time.monotonic() - 1)
    assert (out.status, out.colors, out.nodes) == (UNKNOWN, None, 1024)
    assert color_graph(masks, 9, DEFAULT_ORDER_NODES, time.monotonic() - 1).status == FOUND


@pytest.mark.parametrize(
    "masks,k,budget,expected",
    [
        # K9-e is not 8-edge-colourable: a call out of nodes stops at once,
        # counting no node for the colours its ancestors had left to try
        (endpoint_conflict_masks(delete_edge(complete(9), (0, 1))), 8, 10, (UNKNOWN, None, 11)),
        (endpoint_conflict_masks(delete_edge(complete(9), (0, 1))), 8, 1_000, (UNKNOWN, None, 1001)),
        # no vertices, or no colours, end the loop before its first node
        ([], 0, DEFAULT_ORDER_NODES, (FOUND, (), 0)),
        ([], 3, DEFAULT_ORDER_NODES, (FOUND, (), 0)),
        ([0], 0, DEFAULT_ORDER_NODES, (INFEASIBLE, None, 0)),
        ([0], -1, DEFAULT_ORDER_NODES, (INFEASIBLE, None, 0)),
    ],
    ids=["k9e-budget-10", "k9e-budget-1000", "empty-k0", "empty-k3", "one-k0", "one-k-1"],
)
def test_color_graph_stops_at_its_budget(masks, k, budget, expected):
    assert tuple(color_graph(masks, k, budget)) == expected


def test_the_counted_bound_leaves_the_timeout_to_the_scan():
    # lower_bound runs no search, so the bound of K9-e+path costs no part
    # of the timeout, and the scan answers at it
    start = time.monotonic()
    cert = lower_bound(K9E_PATH)
    assert time.monotonic() - start < 0.1
    assert (cert.value, cert.reason, cert.overfull) == (9, "chromatic-index", tuple(range(9)))
    res = exact_mbt(K9E_PATH, SolveOptions(timeout_s=1))
    assert res.value == 9 and res.exhaustive and not res.stats.timed_out
    assert res.bound == cert and validate(res.witness).valid


def test_k9_with_a_pendant_edge_is_solved_at_its_max_degree():
    # no subgraph is overfull beyond the max degree 9 (K9 itself counts
    # 36 / 4 = 9), and the scan finds 9 pages at once
    g = Graph(10, (*complete(9).edges, (0, 9)))
    start = time.monotonic()
    res = exact_mbt(g)
    assert time.monotonic() - start < 1
    assert (res.bound.value, res.bound.reason, res.value, res.exhaustive) == (9, "max-degree", 9, True)
    assert validate(res.witness).valid


def test_lower_bound_runs_no_colouring_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lower_bound searched for a colouring")

    monkeypatch.setattr(solver, "color_graph", refuse)
    for g in (K9E_PATH, PETERSEN_V, complete(9), delete_edge(complete(7), (0, 1)), kpcq(3, 3)):
        lower_bound(g)


def test_lower_bound_runs_bipartition_only_on_a_regular_graph(monkeypatch):
    # only the regular-nonbipartite certificate reads the odd cycle
    calls = []
    monkeypatch.setattr(solver, "bipartition", lambda g: calls.append(g) or bipartition(g))
    assert lower_bound(path(5)).reason == "max-degree"
    assert calls == []
    assert lower_bound(cycle(5)).reason == "regular-nonbipartite"
    assert len(calls) == 1


def test_petersen_less_a_vertex_is_the_one_bound_that_counting_lowers():
    # a chromatic-index search proved 4 here; the count proves 3, so the scan
    # now refutes level 3 itself, and the answer and witness stay the same
    res = exact_mbt(PETERSEN_V)
    assert (res.bound.value, res.bound.reason, res.bound.overfull) == (3, "max-degree", None)
    assert (res.value, res.exhaustive, res.stats.per_level) == (4, True, {3: 20160, 4: 6})
    assert res.witness.spine == (0, 1, 2, 3, 4, 5, 8, 7, 6)
    assert res.witness.pages == (2, 0, 0, 1, 2, 1, 1, 2, 3, 2, 3, 0)


def test_overfull_k9e_is_solved_by_counting():
    # m = 35 > 8 * 4: eight matchings on nine vertices cover at most 32
    # edges, which proves the bound without refuting 8 colours by search
    g = delete_edge(complete(9), (0, 1))
    assert g.m > 8 * (g.n // 2)
    start = time.monotonic()
    cert = lower_bound(g)
    res = exact_mbt(g)
    assert time.monotonic() - start < 1
    assert (cert.value, cert.reason, cert.chromatic_index) == (9, "chromatic-index", 9)
    assert cert.overfull == tuple(range(9)) and overfull_count(g, cert.overfull) == 9
    assert res.value == 9 and res.exhaustive and res.stats.per_level == {9: 1}
    assert validate(res.witness).valid


# chromatic indices of the examples too large for brute_chromatic_index
KNOWN_CHI = {"K9-e+path": 9, "Petersen-v": 4}


@given(graphs(min_n=1, max_n=7))
@example(Graph(4, ((0, 1), (0, 2), (1, 2))))  # only G - v is overfull
@example(Graph(6, cycle(5).edges))
@example(K9E_PATH)  # peeling finds K9-e, two vertices below G
@example(PETERSEN_V)  # the count 3 is below the chromatic index 4
@settings(max_examples=60)
def test_overfull_start_never_passes_the_chromatic_index(g):
    count, hood = solver.overfull_bound(g)
    assert count == (overfull_count(g, hood) if hood else 0)
    assert (count > 0) == (g.m > 0)
    if g.m > 8 and g.name not in KNOWN_CHI:
        return
    chi = brute_chromatic_index(g.edges) if g.m <= 8 else KNOWN_CHI[g.name]
    assert count <= chi
    assert edge_chromatic_exact(g).value == chi


@pytest.mark.parametrize(
    "p, q, timeout, limit", [(3, 1201, 0.25, 3), (30, 31, 0.5, 1.25)], ids=["K3xC1201", "K30xC31"]
)
def test_timeout_bounds_a_search_without_kernel_calls(p, q, timeout, limit):
    # K3xC1201 (n = 3,603) reaches its first full spine, and so its only
    # kernel call, after about 0.9 s of placements on a 2-core x86-64 host,
    # so a 0.25 s deadline must stop the descent itself: no kernel call,
    # but clique searches ran. On K30xC31 (m = 14,415) the greedy upper
    # bound, built before the first deadline check, must itself stay well
    # inside the budget (about 0.2 s on that host)
    g = kpcq(p, q)
    start = time.monotonic()
    res = exact_mbt(g, SolveOptions(timeout_s=timeout))
    assert time.monotonic() - start < limit
    assert res.stats.timed_out and not res.exhaustive
    assert res.stats.kernel_calls == 0 and res.stats.clique_steps > 0
    assert res.value == res.witness.page_count and validate(res.witness).valid


CORPUS_FILE = Path(__file__).parent.parent / "perfbench" / "corpus.json"
CORPUS = [e for entries in json.loads(CORPUS_FILE.read_text()).values() for e in entries]


def _corpus_graph(name):
    entry = next(e for e in CORPUS if e["name"] == name)
    return Graph(entry["n"], tuple(map(tuple, entry["edges"])), name=name)


# value, witness spine and every counter `solve` prints, in its order
# (orders tested, nodes, per-level orders, timed out, kernel calls, clique-
# refuted prefixes, clique steps, parity-refuted prefixes, placements), of
# exact_mbt on committed corpus graphs; any change to the branching of the
# kernel or of the prefix search moves the node or order counts, and a prune
# weakened or switched off moves the refutations and placements: with the
# twin rule off K8-3e reads 131 clique and 160 parity refutations and 277
# placements, R7-90 704, 300 and 1,104, and K4,4 0, 63 and 23. Parity is
# tried first, so a prefix that both rules refute counts as parity's, and any
# change to what either rule sees moves the split. A clique search that keeps
# a depth with one candidate too few takes more steps (R7-267 2,908, R2-168
# 4,639) and moves no refutation, placement or answer
GOLDEN = {
    "R7-267": (5, (0, 1, 2, 3, 4, 5, 8, 7, 6), 20166, 59, {4: 20160, 5: 6}, False, 6, 330, 2351, 562, 683),
    "K6-e": (6, (0, 1, 2, 3, 4, 5), 61, 14, {5: 60, 6: 1}, False, 1, 0, 104, 3, 11),
    "Q3": (3, (0, 1, 3, 2, 5, 4, 6, 7), 127, 12, {3: 127}, False, 1, 0, 10, 2, 8),
    "Petersen": (4, (0, 1, 2, 3, 4, 5, 7, 9, 6, 8), 11, 15, {4: 11}, False, 1, 6, 45, 0, 18),
    "K3xC3": (5, (0, 1, 2, 3, 4, 5, 6, 8, 7), 2, 35, {5: 2}, False, 2, 0, 58, 0, 11),
    # twin-rich graphs: the twin rule lowers their nodes, refutations and
    # placements, never their orders
    "K8-e": (8, (0, 1, 2, 3, 4, 5, 6, 7), 2521, 27, {7: 2520, 8: 1}, False, 1, 0, 232, 3, 13),
    "K8-3e": (7, (0, 2, 4, 6, 5, 3, 1, 7), 1009, 25, {7: 1009}, False, 1, 32, 4544, 38, 90),
    "K4,4": (4, (0, 4, 1, 5, 2, 6, 3, 7), 1839, 16, {4: 1839}, False, 1, 0, 40, 5, 11),
    "R7-90": (5, (0, 3, 1, 4, 6, 5, 7, 2, 8), 9531, 17, {5: 9531}, False, 1, 404, 5119, 178, 699),
    "R2-168": (5, (0, 1, 2, 3, 4, 6, 7, 5, 8), 20169, 16, {4: 20160, 5: 9}, False, 1, 712, 3911, 690, 1213),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_exact_mbt_golden_counters(name):
    res = exact_mbt(_corpus_graph(name))
    printed = (getattr(res.stats, slot) for slot in res.stats.__slots__ if slot != "elapsed_s")
    assert (res.value, res.witness.spine, *printed) == GOLDEN[name]
    assert res.exhaustive and validate(res.witness).valid


def test_a_timeout_inside_a_level_keeps_its_count(monkeypatch):
    # R7-267 refutes all 20,160 orders of level 4 when it runs to the end; a
    # clock that ticks once per reading passes the deadline partway through
    # that level, and the orders settled before it still count
    class Clock:
        ticks = 0

        @classmethod
        def monotonic(cls):
            cls.ticks += 1
            return float(cls.ticks)

    monkeypatch.setattr(solver, "time", Clock)
    res = exact_mbt(_corpus_graph("R7-267"), SolveOptions(timeout_s=300))
    s = res.stats
    assert s.timed_out and not res.exhaustive
    assert list(s.per_level) == [4] and 0 < s.per_level[4] < 20_160
    assert s.orders_tested == sum(s.per_level.values()) == 13_904


@pytest.mark.parametrize(
    "entry", json.loads(CORPUS_FILE.read_text())["solve-refute"], ids=lambda e: e["name"]
)
def test_a_timeout_keeps_the_page_cap(entry):
    # these graphs' greedy embeddings need 7 to 10 pages; a solve that times
    # out under a cap at the answer has no embedding within it to return
    res = exact_mbt(_corpus_graph(entry["name"]), SolveOptions(max_pages=entry["mbt"], timeout_s=0))
    assert (res.value, res.witness, res.exhaustive) == (None, None, False)
    assert res.stats.timed_out


@pytest.mark.parametrize(
    "g", [*(_corpus_graph(e["name"]) for e in CORPUS), kpcq(3, 51)], ids=lambda g: g.name
)
def test_witness_pages_come_from_the_kernel(g):
    # the witness pages are the kernel's colouring of the witness spine
    res = exact_mbt(g)
    assert res.witness.pages == color_graph(conflict_masks(g, res.witness.spine), res.value).colors


@pytest.mark.parametrize("g", [_corpus_graph("R7-267"), kpcq(3, 51)], ids=lambda g: g.name)
def test_orders_are_counted_only_for_settled_children(g, monkeypatch):
    # a child needs its count of canonical orders only when it is settled
    # without a descent; these graphs have no twins, so only refuted ones
    counted = []
    monkeypatch.setattr(solver, "factorial", lambda x: counted.append(x) or factorial(x))
    res = exact_mbt(g)
    s = res.stats
    assert res.exhaustive and len(counted) == s.clique_refuted + s.parity_refuted
    # every vertex of K3xC51 has 4 edges at its 5 pages, so parity never refutes there
    assert (s.parity_refuted > 0) == (g.name == "R7-267")


def replay_state(search, spine):
    # places spine on the search from the empty prefix; its state at
    # prefix length d is then search.<field>[d]
    for d, v in enumerate(spine):
        search.place(d, v)
    return search


def replay(g, spine):
    return replay_state(_PrefixSearch(g, 1, None, SolveStats()), spine).masks[len(spine)]


@given(graphs(min_n=1, max_n=8), st.randoms(use_true_random=False), st.integers(0, 8))
@settings(max_examples=120)
def test_prefix_masks_are_decided_conflicts(g, rnd, cut):
    spine = list(range(g.n))
    rnd.shuffle(spine)
    full = brute_conflict_masks(spine, g.edges)
    assert replay(g, spine) == full == conflict_masks(g, tuple(spine))
    # a prefix's conflicts are exactly those of the full spine that hold
    # under every order of the vertices still to be placed
    prefix = spine[: min(cut, g.n)]
    rest = spine[len(prefix):]
    decided = replay(g, prefix)
    common = [-1] * g.m
    for tail in islice(permutations(rest), 120):
        for i, mask in enumerate(brute_conflict_masks((*prefix, *tail), g.edges)):
            common[i] &= mask
    if len(rest) <= 5:
        assert decided == common
    else:
        assert all(d & ~c == 0 for d, c in zip(decided, common))


@given(graphs(min_n=2, max_n=8), st.randoms(use_true_random=False), st.integers(-1, 1))
@settings(max_examples=100)
def test_clique_refutations_hold_in_every_completion(g, rnd, offset):
    # each placement along a random spine that leaves at most four vertices
    # free, with the conflicts that hold in every completion of its prefix
    k = max(1, max_degree(g) + offset)
    spine = list(range(g.n))
    rnd.shuffle(spine)
    head = max(0, g.n - 4)
    completions = [(*spine[:head], *tail) for tail in permutations(spine[head:])]
    full = [brute_conflict_masks(order, g.edges) for order in completions]
    search = replay_state(_PrefixSearch(g, k, None, SolveStats()), spine[:head])
    for at in range(head, g.n):
        grown = search.place(at, spine[at])
        common = [-1] * g.m
        for order, masks in zip(completions, full):
            if order[: at + 1] == tuple(spine[: at + 1]):
                common = [c & mask for c, mask in zip(common, masks)]
        clique = search.clique(search.masks[at + 1], grown)
        members = [i for i in range(g.m) if clique >> i & 1]
        assert len(members) in (0, k + 1)
        assert all(common[a] >> b & 1 for a, b in combinations(members, 2))


def check_clique_is_exact(g, k, spine):
    # at each placement, ``clique`` finds k+1 pairwise-conflicting edges
    # through a new conflict exactly when the brute-force oracle does; the
    # new conflicts are those ``place`` reports, at the edges at v
    search = _PrefixSearch(g, k, None, SolveStats())
    for d, v in enumerate(spine):
        grown = search.place(d, v)
        before, masks = search.masks[d], search.masks[d + 1]
        new = [(f, masks[f] & ~before[f]) for f in range(g.m) if v in g.edges[f]]
        assert grown == [(f, mask) for f, mask in new if mask]
        pairs = [(f, e) for f, mask in new for e in range(g.m) if mask >> e & 1]
        clique = search.clique(masks, grown)
        assert bool(clique) == (brute_clique(masks, k + 1, pairs) is not None)
        members = [i for i in range(g.m) if clique >> i & 1]
        assert len(members) in (0, k + 1)
        assert all(masks[a] >> b & 1 for a, b in combinations(members, 2))
        assert not clique or any(clique >> f & clique >> e & 1 for f, e in pairs)


@given(graphs(min_n=2, max_n=7), st.randoms(use_true_random=False), st.integers(-1, 1))
@settings(max_examples=150)
def test_clique_finds_every_clique_through_a_new_conflict(g, rnd, offset):
    spine = list(range(g.n))
    rnd.shuffle(spine)
    check_clique_is_exact(g, max(1, max_degree(g) + offset), spine)


def test_clique_finds_what_a_greedy_search_missed():
    # the greedy search that took the most-connected candidate first found
    # no 6-clique at the last placement of this prefix; one exists
    edges = ((0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 6), (2, 3), (2, 4), (2, 6), (3, 5), (4, 5), (4, 6))
    g = Graph(7, edges)
    prefix = (5, 6, 4, 2, 3, 1)
    check_clique_is_exact(g, 5, prefix)
    search = replay_state(_PrefixSearch(g, 5, None, SolveStats()), prefix[:-1])
    grown = search.place(5, prefix[-1])
    assert search.clique(search.masks[6], grown).bit_count() == 6


@given(
    graphs(min_n=3, max_n=7).filter(lambda g: max_degree(g) ** g.m <= 20_000),
    st.randoms(use_true_random=False),
    st.integers(0, 1),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_parity_refutations_hold_in_every_completion(g, rnd, offset, pinned):
    # each placement along a random spine (vertex 0 first when pinned, as
    # the search places it): when page parity refutes it, on either side of
    # the edge it closes, no completion of the prefix has k pages; at
    # k = Δ + 1 every vertex is short, so parity must refute nothing there
    k = max(1, max_degree(g) + offset)
    spine = list(range(g.n))
    rnd.shuffle(spine)
    if pinned:
        spine.remove(0)
        spine.insert(0, 0)
    search = _PrefixSearch(g, k, None, SolveStats())
    for at, v in enumerate(spine):
        if search.parity(at, v):
            head = spine[: at + 1]
            assert not any(brute_feasible(g.edges, (*head, *tail), k) for tail in permutations(spine[at + 1:]))
            break
        search.place(at, v)


def test_parity_refutes_a_prefix_that_holds_no_clique():
    # placing 3 closes (3, 7) over 0, 1 and 2, each of degree k = 3, so the
    # page of (3, 7) leaves one of them uncovered; no 4 edges all conflict
    edges = ((0, 1), (0, 4), (0, 7), (1, 2), (1, 6), (2, 5), (2, 6), (3, 7), (5, 6))
    g = Graph(8, edges)
    prefix = (7, 0, 1, 2, 3)
    search = replay_state(_PrefixSearch(g, 3, None, SolveStats()), prefix[:-1])
    assert search.near[3] & search.ends[4][0] and search.parity(4, 3)
    grown = search.place(4, 3)
    assert grown and search.clique(search.masks[5], grown) == 0
    rest = [v for v in range(8) if v not in prefix]
    assert not any(brute_feasible(edges, (*prefix, *tail), 3) for tail in permutations(rest))


def test_parity_refutes_by_the_vertices_outside_the_closed_edge():
    # the path 5-1-0-2-3-4 at k = 2: placing 1 closes (5, 1) over the run
    # {4}, which holds the short vertex 4, so only the outside can refute;
    # outside lie 2 (placed before 5) and the unplaced 0 and 3, three
    # vertices of degree k, and the page of (5, 1) leaves one uncovered
    edges = ((0, 1), (0, 2), (1, 5), (2, 3), (3, 4))
    g = Graph(6, edges)
    prefix = (2, 5, 4, 1)
    search = replay_state(_PrefixSearch(g, 2, None, SolveStats()), prefix[:-1])
    assert not search.near[1] & search.ends[3][0]
    assert search.parity(3, 1)
    grown = search.place(3, 1)
    assert grown and search.clique(search.masks[4], grown) == 0
    assert not any(brute_feasible(edges, (*prefix, *tail), 2) for tail in permutations((0, 3)))


@pytest.mark.parametrize("symmetry", [False, True])
def test_parity_refutes_c5_at_its_first_closed_edge(symmetry):
    # the prefix form of the regular-nonbipartite bound: in a regular graph
    # of odd order at k = its degree, the sets inside and outside a closed
    # edge hold n − 2 full vertices between them, so one is odd; every prefix of
    # C5, canonical or (without symmetry) any of the 5! orders, is refuted
    # at 2 pages where it first closes an edge
    g = cycle(5)
    stats = SolveStats()
    assert _PrefixSearch(g, 2, None, stats).run() is None
    assert (stats.clique_refuted, stats.kernel_calls) == (0, 0) and stats.parity_refuted > 0
    for spine in spine_orders(5, symmetry):
        search = _PrefixSearch(g, 2, None, SolveStats())
        at = next(d for d in range(1, 5) if search.near[spine[d]] & sum(1 << u for u in spine[:d]))
        assert replay_state(search, spine[:at]).parity(at, spine[at])


@given(graphs(min_n=3, max_n=8), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=100)
def test_a_sibling_overwrites_a_sibling(g, rnd, pinned):
    # the search keeps one root-to-leaf path: after a full spine, placing
    # another free vertex u at depth d must leave the entries at d+1 as a
    # fresh search of spine[:d] + [u] has them; when pinned, vertex 0 stays
    # first, as the search never replaces it
    k = rnd.randint(1, max(1, max_degree(g)))
    spine = list(range(g.n))
    rnd.shuffle(spine)
    if pinned:
        spine.remove(0)
        spine.insert(0, 0)
    d = rnd.randint(int(pinned), g.n - 2)
    u = rnd.choice(spine[d + 1:])
    search = replay_state(_PrefixSearch(g, k, None, SolveStats()), spine)
    search.place(d, u)
    prefix = [*spine[:d], u]
    fresh = replay_state(_PrefixSearch(g, k, None, SolveStats()), prefix)
    assert search.spine[: d + 1] == prefix == fresh.spine[: d + 1]
    assert [search.pos[v] for v in prefix] == list(range(d + 1))
    for field in ("odd", "free", "ends", "before", "masks"):
        assert getattr(search, field)[d + 1] == getattr(fresh, field)[d + 1]
    common = [-1] * g.m
    for tail in permutations([v for v in spine[d:] if v != u]):
        for i, mask in enumerate(brute_conflict_masks((*prefix, *tail), g.edges)):
            common[i] &= mask
    assert search.masks[d + 1] == common


def test_deep_search_memory_is_linear_in_the_path():
    # one descent 603 vertices deep; the search keeps one spine and one
    # pos array, so its peak is the per-depth masks: about 6.6 MB on
    # CPython 3.11, where a copy of pos, spine and odd per frame takes 12.2
    g = kpcq(3, 201)
    tracemalloc.start()
    try:
        res = exact_mbt(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == 5 and res.exhaustive
    assert peak < 9 * 2**20


@pytest.mark.parametrize("g", [complete(16), delete_edge(complete(16), (0, 1))], ids=lambda g: g.name)
def test_clique_search_stays_small_on_dense_graphs(g):
    # the colouring bound keeps the exact search polynomial here; without
    # it the search takes millions of steps on K16
    res = exact_mbt(g, SolveOptions(timeout_s=None))
    assert res.value == 16 and res.exhaustive
    assert 0 < res.stats.clique_steps < 20_000


def test_clique_search_depth_is_not_bounded_by_the_recursion_limit():
    need = sys.getrecursionlimit() + 50
    size = need + 50
    everything = (1 << size) - 1
    masks = [everything ^ 1 << i for i in range(size)]
    search = _PrefixSearch(path(2), need + 1, None, SolveStats())
    assert search.extend(masks, 0, everything, need) == (1 << need) - 1
    assert search.extend(masks, 0, everything, size + 1) == 0
    # a passed deadline stops the search at its 1,024th step
    late = _PrefixSearch(path(2), need + 1, time.monotonic() - 1, SolveStats())
    with pytest.raises(_Timeout):
        late.extend(masks, 0, everything, need)
    assert late.stats.clique_steps == 1024


def flat_scan(g, k, symmetry):
    """One kernel call per spine order, in enumeration sequence."""
    tested = 0
    for spine in spine_orders(g.n, symmetry):
        out = color_graph(conflict_masks(g, spine), k)
        tested += 1
        assert out.status != UNKNOWN
        if out.status == FOUND:
            return (spine, out.colors), tested
    return None, tested


SCAN_CORPUS = [
    cycle(5),
    complete_bipartite(3, 4),
    hypercube(3),
    complete(5),
    delete_edge(complete(6), (0, 1)),
    kpcq(3, 3),
    # twin-rich graphs, where the twin rule skips subtrees
    delete_edge(complete(7), (0, 1)),
    complete_bipartite(2, 4),
    Graph(6, delete_edge(delete_edge(delete_edge(complete(6), (0, 1)), (2, 3)), (4, 5)).edges, name="K2,2,2"),
    complete_bipartite(1, 5),
    # draw 14 of random.Random(13), G(7, 0.5) over pairs u<v in
    # lexicographic order: connected, with one twin pair (2, 6)
    Graph(
        7,
        ((0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (2, 5), (2, 6), (3, 4), (3, 5), (5, 6)),
        name="R13-14",
    ),
]


def random_connected(count, seed):
    """The first ``count`` connected draws of G(n, p) from
    random.Random(seed), with 3 <= n <= 7 and 0.3 <= p <= 0.9."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 7)
        p = rng.uniform(0.3, 0.9)
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
        g = Graph(n, edges, name=f"S{seed}-{len(out)}")
        if is_connected(g):
            out.append(g)
    return out


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("g", SCAN_CORPUS + random_connected(100, 17), ids=lambda g: g.name)
def test_prefix_scan_matches_flat_scan(g, symmetry):
    # the oracle scans one order per rotation/reflection class, or with
    # symmetry off all n! orders; either way its first feasible order is
    # the search's, and the canonical scan also counts the orders it tested
    res = exact_mbt(g)
    assert res.exhaustive
    assert res.stats.orders_tested == sum(res.stats.per_level.values())
    everything = factorial(g.n - 1) // 2 if symmetry else factorial(g.n)
    for k in range(res.bound.value, res.value + 1):
        stats = SolveStats()
        search = _PrefixSearch(g, k, None, stats)
        found = search.run()
        expected, tested = flat_scan(g, k, symmetry)
        assert found == expected and not search.unknown
        if symmetry:
            assert stats.per_level == {k: tested}
        if k < res.value:
            assert found is None and tested == everything
        else:
            assert found is not None and found[0] == res.witness.spine
            # exact_mbt does not scan the greedy upper bound's level: a
            # witness there keeps the greedy pages of the identity spine
            greedy = first_fit_pages(g, tuple(range(g.n)))
            if res.value == max(greedy, default=-1) + 1:
                assert res.witness.pages == greedy
            else:
                assert found[1] == res.witness.pages


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize(
    "g", [cycle(5), complete(5), delete_edge(complete(6), (0, 1))], ids=lambda g: g.name
)
def test_prefix_scan_below_the_bound(g, symmetry):
    # below the bound every order is infeasible, canonical or (with symmetry
    # off) any of the n!; the scan refutes each canonical one at a prefix or
    # by the kernel at its full spine, and must count every one without
    # claiming an unknown
    k = lower_bound(g).value - 1
    stats = SolveStats()
    search = _PrefixSearch(g, k, None, stats)
    assert (search.run(), search.unknown) == (None, False)
    canonical = factorial(g.n - 1) // 2
    assert stats.per_level == {k: canonical}
    assert flat_scan(g, k, symmetry) == (None, canonical if symmetry else factorial(g.n))


def reversed_labels(g):
    """g with each vertex v relabelled n − 1 − v: another vertex is pinned
    first, and twins are met in the other order."""
    return Graph(g.n, ((g.n - 1 - a, g.n - 1 - b) for a, b in g.edges), name=g.name)


@pytest.mark.parametrize("as_labelled", [True, False])
@pytest.mark.parametrize("g", SCAN_CORPUS, ids=lambda g: g.name)
def test_scan_stats_do_not_depend_on_jobs(g, as_labelled):
    g = g if as_labelled else reversed_labels(g)
    serial = exact_mbt(g, SolveOptions(jobs=1))
    parallel = exact_mbt(g, SolveOptions(jobs=2))
    assert (serial.value, serial.exhaustive) == (parallel.value, parallel.exhaustive)
    assert serial.witness == parallel.witness
    a, b = serial.stats, parallel.stats
    assert (a.orders_tested, a.nodes, a.per_level) == (b.orders_tested, b.nodes, b.per_level)
    assert not a.timed_out and not b.timed_out
    assert sum(a.per_level.values()) == a.orders_tested


@pytest.mark.parametrize(
    "g, as_labelled",
    [
        *(pytest.param(g, s, id=f"{g.name}-{s}") for g in SCAN_CORPUS for s in (True, False)),
        *(pytest.param(_corpus_graph(e["name"]), True, id=f"corpus-{e['name']}") for e in CORPUS),
    ],
)
def test_kernel_colours_each_full_spine_once(g, as_labelled, monkeypatch):
    # prefixes are refuted by cliques alone: the scan calls the kernel only
    # right after placing a full spine, on that spine's conflict masks, and
    # never twice on one spine
    g = g if as_labelled else reversed_labels(g)
    res = exact_mbt(g)
    placed, coloured = [()], []
    place, kernel = _PrefixSearch.place, solver.color_graph

    def placing(self, d, v):
        grown = place(self, d, v)
        placed[0] = tuple(self.spine[: d + 1])
        return grown

    def colouring(masks, k, *args):
        spine = placed[0]
        assert len(spine) == g.n and masks == conflict_masks(g, spine)
        coloured.append(spine)
        return kernel(masks, k, *args)

    monkeypatch.setattr(_PrefixSearch, "place", placing)
    monkeypatch.setattr(solver, "color_graph", colouring)
    calls = 0
    for k in range(res.bound.value, res.value + 1):
        stats = SolveStats()
        search = _PrefixSearch(g, k, None, stats)
        found = search.run()
        calls += stats.kernel_calls
        assert (found is not None) == (k == res.value) and not search.unknown
    assert len(coloured) == len(set(coloured)) == calls


def test_prefix_search_depth_is_not_bounded_by_the_recursion_limit():
    # the first feasible order of K3xC51 is reached at prefix depth 153; the
    # search must get there with little more stack than the caller's
    g = kpcq(3, 51)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        res = exact_mbt(g, SolveOptions(timeout_s=60))
    finally:
        sys.setrecursionlimit(limit)
    assert res.value == 5 and res.exhaustive and not res.stats.timed_out
    assert validate(res.witness).valid
