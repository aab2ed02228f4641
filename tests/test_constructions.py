from collections import Counter

import pytest

from matchbook import constructions as cons
from matchbook.constructions import (
    ConstructionError,
    DispersableWitness,
    auto_embedding,
    complete_embedding,
    construct,
    even_cycle_embedding,
    kpcq_embedding,
    make_witness,
    path_witness,
    product_embedding,
    witness_for,
)
from matchbook.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    delete_edge,
    kpcq,
    max_degree,
    path,
)
from matchbook.layout import BookEmbedding, validate
from matchbook.solver import exact_mbt


def k5_minus_edge_embedding() -> BookEmbedding:
    """Restrict the congruence embedding of K5 to K5 minus (0, 1)."""
    full = complete_embedding(5)
    g = delete_edge(complete(5), (0, 1))
    pages = tuple(p for e, p in zip(full.graph.edges, full.pages) if e != (0, 1))
    return BookEmbedding(g, full.spine, pages, 5)


def test_complete_embedding_k5():
    emb = complete_embedding(5)
    assert emb.page_count == 5 and validate(emb).valid
    assert sorted(Counter(emb.pages).values()) == [2, 2, 2, 2, 2]


def test_complete_embedding_small():
    assert complete_embedding(1).page_count == 0
    e2 = complete_embedding(2)
    assert e2.page_count == 1 and e2.pages == (0,) and validate(e2).valid
    e4 = complete_embedding(4)
    assert e4.page_count == 4 and validate(e4).valid
    with pytest.raises(ValueError):
        complete_embedding(0)


@pytest.mark.parametrize("p", range(2, 11))
def test_complete_embedding_pages_are_congruence_matchings(p):
    emb = complete_embedding(p)
    assert validate(emb).valid
    assert emb.page_count == (p if p >= 3 else 1)
    for page in range(emb.page_count):
        sums = {
            (e[0] + e[1]) % p for e, pg in zip(emb.graph.edges, emb.pages) if pg == page
        }
        assert len(sums) == 1  # one congruence class per page


def test_even_cycle_witness():
    w = even_cycle_embedding(2)
    assert w.embedding.page_count == 2 and validate(w.embedding).valid
    assert w.coloring == (0, 1, 0, 1)

    w6 = even_cycle_embedding(3)
    assert validate(w6.embedding).valid
    page1 = {e for e, p in zip(w6.embedding.graph.edges, w6.embedding.pages) if p == 1}
    assert page1 == {(1, 2), (3, 4), (0, 5)}
    with pytest.raises(ValueError):
        even_cycle_embedding(1)


def test_path_witness():
    assert path_witness(3).embedding.page_count == 2
    assert path_witness(2).embedding.page_count == 1
    w5 = path_witness(5)
    assert validate(w5.embedding).valid
    assert w5.embedding.pages == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        path_witness(1)


def test_make_witness_rejects_bad_inputs():
    good = even_cycle_embedding(2)
    with pytest.raises(ValueError, match="proper 2-coloring"):
        make_witness(good.embedding, (0, 0, 1, 1))
    with pytest.raises(ValueError, match="pages"):
        bad = BookEmbedding(cycle(4), (0, 1, 2, 3), (0, 1, 1, 2), 3)
        make_witness(bad, (0, 1, 0, 1))


def test_product_k4_c4():
    emb = product_embedding(complete_embedding(4), even_cycle_embedding(2))
    assert emb.page_count == 6
    assert validate(emb).valid


def test_product_k5e_p3():
    emb = product_embedding(k5_minus_edge_embedding(), path_witness(3))
    assert emb.page_count == 7
    assert validate(emb).valid


def test_product_identity_factor():
    w = even_cycle_embedding(2)
    emb = product_embedding(complete_embedding(1), w)
    assert emb.graph == cycle(4)
    assert emb.spine == w.embedding.spine and emb.pages == w.embedding.pages


def test_product_page_partition():
    g_emb = complete_embedding(4)
    emb = product_embedding(g_emb, even_cycle_embedding(2))
    base = g_emb.page_count
    ng = 4
    for (u, v), page in zip(emb.graph.edges, emb.pages):
        same_block = u // ng == v // ng
        assert same_block == (page < base)
    # each cross page restricted to one block pair is a perfect matching
    for page in range(base, emb.page_count):
        pair_rows: dict[tuple[int, int], set[int]] = {}
        for (u, v), pg in zip(emb.graph.edges, emb.pages):
            if pg != page:
                continue
            pair_rows.setdefault((u // ng, v // ng), set()).add(u % ng)
        for rows in pair_rows.values():
            assert rows == set(range(ng))


def test_product_rejects_invalid_inputs():
    broken = BookEmbedding(complete(3), (0, 1, 2), (0, 0, 0), 1)
    with pytest.raises(ValueError, match="left embedding"):
        product_embedding(broken, path_witness(3))
    with pytest.raises(ValueError):
        product_embedding(complete_embedding(3), DispersableWitness(broken, (0, 1, 0)))


def test_kpcq_direct_cases():
    out = kpcq_embedding(5, 3)
    assert out.embedding.page_count == 7 and validate(out.embedding).valid
    assert out.scheme == cons.SCHEME_KPCQ_ODD

    out = kpcq_embedding(6, 3)
    assert out.embedding.page_count == 8 and validate(out.embedding).valid

    out = kpcq_embedding(5, 5)
    assert out.embedding.page_count == 7 and validate(out.embedding).valid

    with pytest.raises(ValueError):
        kpcq_embedding(5, 1)


def test_kpcq_dispatcher():
    out = kpcq_embedding(4, 4)
    assert out.embedding.page_count == 6 and out.scheme == cons.SCHEME_KPCQ_EVEN
    out = kpcq_embedding(5, 4)
    assert out.embedding.page_count == 7
    out = kpcq_embedding(3, 3)
    assert out.embedding.page_count == 5 and validate(out.embedding).valid
    with pytest.raises(ValueError):
        kpcq_embedding(2, 3)


@pytest.mark.parametrize("p", range(4, 9))
@pytest.mark.parametrize("q", range(3, 9))
def test_kpcq_grid(p, q):
    out = kpcq_embedding(p, q)
    rep = validate(out.embedding)
    assert rep.valid
    assert out.embedding.page_count == p + 2 == max_degree(out.embedding.graph) + 1
    if q % 2 == 0:
        assert out.scheme == cons.SCHEME_KPCQ_EVEN
    else:
        assert out.scheme == cons.SCHEME_KPCQ_ODD


def test_kpcq_direct_scheme_wide_grid():
    # the snake scheme alone meets the max degree + 1 bound, p = 3 included
    for p in range(3, 16):
        for q in range(3, 22, 2):
            out = kpcq_embedding(p, q)
            assert out.scheme == cons.SCHEME_KPCQ_ODD
            assert out.embedding.page_count == p + 2
            assert validate(out.embedding).valid, (p, q)


def test_misfiring_scheme_is_caught_at_the_validation_point(monkeypatch):
    # every edge on page 0 of p + 2 declared pages: malformed, not merely invalid
    monkeypatch.setattr(cons, "_direct_page", lambda p, q, u, v: 0)
    with pytest.raises(ConstructionError, match="kpcq-odd-direct produced a malformed"):
        auto_embedding(kpcq(5, 3))
    # well formed but crossing: the error carries the validator's report
    monkeypatch.setattr(cons, "_direct_page", lambda p, q, u, v: (u + v) % (p + 2))
    with pytest.raises(ConstructionError, match="kpcq-odd-direct produced .* violations") as info:
        auto_embedding(kpcq(5, 3))
    assert info.value.report is not None and not info.value.report.valid


@pytest.mark.parametrize(
    "g",
    [
        # K3 tagged as K4 x C3 would get a valid 12-vertex embedding of K4 x C3
        Graph(3, ((0, 1), (0, 2), (1, 2)), family=("kpcq", 4, 3)),
        Graph(4, path(4).edges, family=("complete", 4)),
    ],
)
def test_false_family_tag_is_a_construction_error(g):
    with pytest.raises(ConstructionError, match="different graph"):
        auto_embedding(g)


def test_construct_rejects_unknown_or_inapplicable_scheme():
    with pytest.raises(ValueError, match="known: auto, complete-congruence, even-cycle"):
        construct(cycle(5), "nosuch")
    with pytest.raises(ValueError, match="even-cycle does not apply"):
        construct(cycle(5), "even-cycle")
    assert construct(cycle(6), "even-cycle").embedding.page_count == 2


def test_witness_for():
    assert witness_for(cycle(6)).embedding.page_count == 2
    assert witness_for(path(3)).embedding.page_count == 2
    w = witness_for(complete_bipartite(3, 3))
    assert w is not None and w.embedding.page_count == 3
    assert witness_for(cycle(5)) is None  # odd cycle is not bipartite


def test_witness_for_a_bipartite_product_takes_the_product_scheme(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("the exact solver ran")

    monkeypatch.setattr(cons.solver, "exact_mbt", no_solver)
    b = cartesian_product(cycle(4), path(3))
    w = witness_for(b)
    assert w is not None and w.embedding.page_count == max_degree(b) == 4
    assert w.embedding.graph == b and validate(w.embedding).valid
    assert all(w.coloring[u] != w.coloring[v] for u, v in b.edges)


def test_auto_embedding_routes():
    assert auto_embedding(complete(4)).scheme == cons.SCHEME_COMPLETE
    assert auto_embedding(cycle(4)).scheme == cons.SCHEME_EVEN_CYCLE
    assert auto_embedding(path(4)).scheme == cons.SCHEME_PATH
    assert auto_embedding(kpcq(5, 3)).scheme == cons.SCHEME_KPCQ_ODD
    out = auto_embedding(cycle(5))
    assert out.scheme == cons.SCHEME_SOLVER and out.embedding.page_count == 3


def test_auto_embedding_product_route():
    from matchbook.graphs import cartesian_product

    g = cartesian_product(delete_edge(complete(5), (0, 1)), path(3))
    out = auto_embedding(g)
    assert out.scheme == cons.SCHEME_PRODUCT
    assert out.embedding.page_count == 7
    assert validate(out.embedding).valid
    assert out.embedding.graph == g


def test_every_outcome_page_count_is_tight():
    # claimed bounds: p pages for complete graphs, 2 for even cycles,
    # pages(G) + max_degree(B) for products, max degree + 1 for the grid
    assert complete_embedding(7).page_count == 7
    assert even_cycle_embedding(4).embedding.page_count == 2
    prod = product_embedding(complete_embedding(5), even_cycle_embedding(3))
    assert prod.page_count == 5 + 2
    assert kpcq_embedding(7, 7).embedding.page_count == 9


def test_solver_produced_g_embedding_in_product():
    res = exact_mbt(cycle(5))
    emb = product_embedding(res.witness, even_cycle_embedding(2))
    assert emb.page_count == res.value + 2
    assert validate(emb).valid
