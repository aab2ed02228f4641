import json
import sys
import time
from itertools import islice, permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchbook import solver
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
    _scan_level,
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
    brute_conflict_masks,
    brute_feasible,
    check_odd_cycle,
    spine_orders,
)
from strategies import graphs


def check_certificate(g, cert: BoundCertificate) -> None:
    assert cert.max_degree == max_degree(g)
    if cert.reason == "regular-nonbipartite":
        assert is_regular(g) == cert.regular_degree
        assert check_odd_cycle(g, cert.odd_cycle)
        assert cert.value == cert.max_degree + 1
    elif cert.reason == "chromatic-index":
        assert cert.value == cert.chromatic_index > cert.max_degree
        coloring = cert.edge_coloring
        assert len(coloring) == g.m
        assert len(set(coloring)) == cert.chromatic_index
        for i in range(g.m):
            for j in range(i + 1, g.m):
                if set(g.edges[i]) & set(g.edges[j]):
                    assert coloring[i] != coloring[j]
        # one fewer colour was exhaustively refuted
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


def test_feasible_pages_rejects_bad_spine():
    with pytest.raises(ValueError):
        first_fit_pages(cycle(3), (0, 1))


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
    with_sym = exact_mbt(g, SolveOptions(symmetry=True))
    without = exact_mbt(g, SolveOptions(symmetry=False))
    assert with_sym.value == without.value
    assert with_sym.exhaustive and without.exhaustive


def test_parallel_scan_is_deterministic():
    g = complete_bipartite(3, 3)
    serial = exact_mbt(g, SolveOptions(jobs=1))
    parallel = exact_mbt(g, SolveOptions(jobs=2))
    assert serial.value == parallel.value == 3
    assert serial.exhaustive == parallel.exhaustive
    assert serial.witness.spine == parallel.witness.spine
    assert serial.witness.pages == parallel.witness.pages


def test_max_pages_cap():
    res = exact_mbt(complete(4), SolveOptions(max_pages=3))
    assert res.value is None and res.witness is None and not res.exhaustive


def test_timeout_returns_upper_bound():
    for jobs in (1, 2):
        res = exact_mbt(complete_bipartite(3, 3), SolveOptions(timeout_s=0.0, jobs=jobs))
        assert res.stats.timed_out and not res.exhaustive
        assert res.value is not None and res.value == res.witness.page_count
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


def test_parallel_matches_serial_on_q3():
    g = hypercube(3)
    serial = exact_mbt(g, SolveOptions(jobs=1))
    parallel = exact_mbt(g, SolveOptions(jobs=3))
    assert serial.value == parallel.value == 3
    assert serial.exhaustive and parallel.exhaustive
    assert serial.witness.spine == parallel.witness.spine


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
        out = INFEASIBLE
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
                out = UNKNOWN
        return out

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


def test_timeout_bounds_the_lower_bound():
    # K9-e with a pendant path 0-9-10: n = 11, m = 37, max degree 8 and
    # chromatic index 9, but neither G nor G - v is overfull, so the
    # chromatic-index search has to refute 8 colours and runs out of time
    k9e = delete_edge(complete(9), (0, 1))
    g = Graph(11, (*k9e.edges, (0, 9), (9, 10)))
    assert solver.overfull_bound(g) == max_degree(g) == 8
    start = time.monotonic()
    res = exact_mbt(g, SolveOptions(timeout_s=1))
    assert time.monotonic() - start < 5
    assert res.stats.timed_out and not res.exhaustive
    # out of time, the chromatic-index search leaves the max-degree bound
    assert res.bound.reason == "max-degree" and res.bound.value == 8
    assert res.value == res.witness.page_count and validate(res.witness).valid


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
    coloring = cert.edge_coloring
    assert len(set(coloring)) == 9
    assert all(
        coloring[i] != coloring[j]
        for i in range(g.m)
        for j in range(i + 1, g.m)
        if set(g.edges[i]) & set(g.edges[j])
    )
    assert res.value == 9 and res.exhaustive and res.stats.per_level == {9: 1}
    assert validate(res.witness).valid


@given(graphs(min_n=1, max_n=7))
@example(Graph(4, ((0, 1), (0, 2), (1, 2))))  # only G - v is overfull
@example(Graph(6, cycle(5).edges))
@settings(max_examples=60)
def test_overfull_start_never_passes_the_chromatic_index(g):
    if g.m > 8:
        return
    chi = brute_chromatic_index(g.edges)
    assert max_degree(g) <= solver.overfull_bound(g) <= chi
    assert edge_chromatic_exact(g).value == chi


@pytest.mark.parametrize(
    "p, q, timeout, limit", [(3, 151, 1, 3), (30, 31, 0.5, 1.25)], ids=["K3xC151", "K30xC31"]
)
def test_timeout_bounds_a_search_without_kernel_calls(p, q, timeout, limit):
    # most placements on K3xC151 decide no new conflict, so the search
    # descends on its parent's verdict without calling the kernel; on
    # K30xC31 (m = 14,415) the greedy upper bound, built before the first
    # deadline check, must itself stay well inside the budget
    g = kpcq(p, q)
    start = time.monotonic()
    res = exact_mbt(g, SolveOptions(timeout_s=timeout))
    assert time.monotonic() - start < limit
    assert res.stats.timed_out and not res.exhaustive
    assert res.value == res.witness.page_count and validate(res.witness).valid


def _corpus_graph(name):
    corpus = json.loads((Path(__file__).parent.parent / "perfbench" / "corpus.json").read_text())
    entry = next(e for entries in corpus.values() for e in entries if e["name"] == name)
    return Graph(entry["n"], tuple(map(tuple, entry["edges"])))


# value, nodes, orders, per-level orders and witness spine of exact_mbt on
# committed corpus graphs; any change to the branching of the kernel or of
# the prefix search moves the node or order counts
GOLDEN = {
    "R7-267": (5, 7834, 20166, {4: 20160, 5: 6}, (0, 1, 2, 3, 4, 5, 8, 7, 6)),
    "K6-e": (6, 102, 61, {5: 60, 6: 1}, (0, 1, 2, 3, 4, 5)),
    "Q3": (3, 66, 127, {3: 127}, (0, 1, 3, 2, 5, 4, 6, 7)),
    "Petersen": (4, 129, 11, {4: 11}, (0, 1, 2, 3, 4, 5, 7, 9, 6, 8)),
    "K3xC3": (5, 143, 2, {5: 2}, (0, 1, 2, 3, 4, 5, 6, 8, 7)),
    # twin-rich graphs: the twin rule lowers their nodes, never their orders
    "K8-e": (8, 9005, 2521, {7: 2520, 8: 1}, (0, 1, 2, 3, 4, 5, 6, 7)),
    "K8-3e": (7, 2652, 1009, {7: 1009}, (0, 2, 4, 6, 5, 3, 1, 7)),
    "K4,4": (4, 100, 1839, {4: 1839}, (0, 4, 1, 5, 2, 6, 3, 7)),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", list(GOLDEN))
def test_exact_mbt_golden_counters(name, jobs):
    res = exact_mbt(_corpus_graph(name), SolveOptions(jobs=jobs))
    s = res.stats
    assert (res.value, s.nodes, s.orders_tested, s.per_level, res.witness.spine) == GOLDEN[name]
    assert res.exhaustive and validate(res.witness).valid


def replay(g, spine, symmetry=False):
    search = _PrefixSearch(g, 1, symmetry, None)
    state = search.root()
    for v in spine[len(state[0]):]:
        state = search.place(state, v)[0]
    return state[2]


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


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("g", SCAN_CORPUS, ids=lambda g: g.name)
def test_prefix_scan_matches_flat_scan(g, symmetry):
    res = exact_mbt(g, SolveOptions(symmetry=symmetry))
    assert res.exhaustive
    everything = factorial(g.n - 1) // 2 if symmetry else factorial(g.n)
    for k in range(res.bound.value, res.value + 1):
        stats = SolveStats()
        found, unknown = _scan_level(g, k, SolveOptions(symmetry=symmetry), None, stats)
        expected, tested = flat_scan(g, k, symmetry)
        assert found == expected and not unknown
        assert stats.per_level == {k: tested} and stats.orders_tested == tested
        if k < res.value:
            assert found is None and tested == everything
        else:
            assert found is not None
            assert (found[0], found[1]) == (res.witness.spine, res.witness.pages)


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize(
    "g", [cycle(5), complete(5), delete_edge(complete(6), (0, 1))], ids=lambda g: g.name
)
def test_prefix_scan_below_the_bound(g, symmetry):
    # below the chromatic index the empty prefix already refutes the level
    k = lower_bound(g).value - 1
    stats = SolveStats()
    found, unknown = _scan_level(g, k, SolveOptions(symmetry=symmetry), None, stats)
    assert (found, unknown) == (None, False)
    assert stats.per_level == {k: flat_scan(g, k, symmetry)[1]}


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("g", SCAN_CORPUS, ids=lambda g: g.name)
def test_scan_stats_do_not_depend_on_jobs(g, symmetry):
    serial = exact_mbt(g, SolveOptions(jobs=1, symmetry=symmetry))
    parallel = exact_mbt(g, SolveOptions(jobs=2, symmetry=symmetry))
    assert (serial.value, serial.exhaustive) == (parallel.value, parallel.exhaustive)
    assert serial.witness == parallel.witness
    a, b = serial.stats, parallel.stats
    assert (a.orders_tested, a.nodes, a.per_level) == (b.orders_tested, b.nodes, b.per_level)
    assert not a.timed_out and not b.timed_out
    assert sum(a.per_level.values()) == a.orders_tested



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
