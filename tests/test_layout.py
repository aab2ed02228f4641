import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchbook.constructions import complete_embedding
from matchbook.graphs import Graph, complete, cycle
from matchbook.layout import (
    BookEmbedding,
    Crossing,
    MalformedEmbeddingError,
    MatchingViolation,
    check_structure,
    incidence,
    straddling,
    validate,
)
from oracles import brute_violations, reflect_spine, rotate_spine
from strategies import embeddings


SPINE4 = (0, 1, 2, 3)


def _crosses(spine, e1, e2) -> bool:
    """Whether e1 and e2 interleave on spine, by the rule ``straddling``.

    The edges are passed in the given order and orientation, so the rule
    itself is exercised, not the canonical storage of Graph.
    """
    edges = (e1, e2)
    inc = incidence(len(spine), edges)
    pos = [0] * len(spine)
    odd = [0]
    for here, v in enumerate(spine):
        pos[v] = here
        odd.append(odd[-1] ^ inc[v])
    seen = []
    for u, v in edges:
        a, b = sorted((pos[u], pos[v]))
        seen.append(straddling(odd, a, b) & ~(inc[u] | inc[v]))
    assert seen in ([0, 0], [0b10, 0b01])  # the rule is symmetric
    return seen == [0b10, 0b01]


def _validate_crosses(spine, e1, e2) -> bool:
    emb = BookEmbedding(Graph(len(spine), (e1, e2)), spine, (0, 0), 1)
    return any(isinstance(v, Crossing) for v in validate(emb).violations)


def test_edges_cross_examples():
    for e1, e2, expected in (
        ((0, 2), (1, 3), True),
        ((0, 3), (1, 2), False),  # nested
        ((0, 1), (2, 3), False),  # disjoint
    ):
        assert _crosses(SPINE4, e1, e2) is expected
        assert _validate_crosses(SPINE4, e1, e2) is expected


def test_edges_cross_shared_endpoint_never_crosses():
    assert _crosses(SPINE4, (0, 2), (2, 3)) is False
    assert _validate_crosses(SPINE4, (0, 2), (2, 3)) is False


def test_edges_cross_unknown_endpoint():
    g = Graph(6, ((0, 5), (1, 2)))
    with pytest.raises(MalformedEmbeddingError, match="permutation"):
        validate(BookEmbedding(g, (0, 1, 2), (0, 0), 1))


@given(st.permutations(range(6)))
def test_edges_cross_symmetry(spine):
    spine = tuple(spine)
    e1, e2 = (0, 3), (1 , 4)
    assert _crosses(spine, e1, e2) == _crosses(spine, e2, e1)
    assert _crosses(spine, e1, e2) == _crosses(spine, e1[::-1], e2[::-1])
    assert _crosses(spine, e1, e2) == _validate_crosses(spine, e1, e2)


def test_validate_k5_congruence():
    assert validate(complete_embedding(5)).valid


def test_validate_triangle_single_page():
    emb = BookEmbedding(cycle(3), (0, 1, 2), (0, 0, 0), 1)
    rep = validate(emb)
    assert not rep.valid
    matching = [v for v in rep.violations if isinstance(v, MatchingViolation)]
    assert len(matching) == 3  # every vertex carries two edges on the page
    assert not any(isinstance(v, Crossing) for v in rep.violations)


def test_validate_single_crossing():
    g = Graph(4, ((0, 2), (1, 3)))
    emb = BookEmbedding(g, SPINE4, (0, 0), 1)
    rep = validate(emb)
    assert not rep.valid
    assert rep.violations == (Crossing(0, ((0, 2), (1, 3))),)


def test_validate_edgeless():
    emb = BookEmbedding(Graph(4, ()), SPINE4, (), 0)
    rep = validate(emb)
    assert rep.valid and rep.page_count == 0


def test_malformed_embeddings():
    g = cycle(3)
    with pytest.raises(MalformedEmbeddingError, match="permutation"):
        validate(BookEmbedding(g, (0, 1, 1), (0, 0, 0), 1))
    with pytest.raises(MalformedEmbeddingError, match="out of range"):
        validate(BookEmbedding(g, (0, 1, 2), (0, 0, 5), 5))
    with pytest.raises(MalformedEmbeddingError, match="entries for"):
        validate(BookEmbedding(g, (0, 1, 2), (0, 0), 1))
    with pytest.raises(MalformedEmbeddingError, match="not contiguous"):
        validate(BookEmbedding(g, (0, 1, 2), (0, 1, 2), 4))


@pytest.mark.parametrize(
    "spine, pages, page_count",
    [
        ((0, 1, 2), (0, 1, "a"), 3),
        ((0, 1, 2), (0, 1, None), 3),
        ((0, 1, "a"), (0, 1, 2), 3),
        ((0, 1, 2.0), (0, 1, 2), 3),
        ((0, 1, 2), (0, 1, 2), 3.0),
    ],
)
def test_non_integer_entries_are_malformed(spine, pages, page_count):
    # checked before any comparison or index could raise a TypeError
    with pytest.raises(MalformedEmbeddingError, match="integers"):
        validate(BookEmbedding(cycle(3), spine, pages, page_count))


def test_rotate_identity_and_reflect_involution():
    emb = complete_embedding(4)
    assert rotate_spine(emb, 0) == emb
    assert reflect_spine(reflect_spine(emb)) == emb
    assert rotate_spine(emb, 4) == emb


def test_rotations_preserve_validity_of_construction():
    emb = complete_embedding(6)
    for k in range(6):
        assert validate(rotate_spine(emb, k)).valid
        assert validate(reflect_spine(rotate_spine(emb, k))).valid


from hypothesis import settings


@given(embeddings(max_n=8), st.integers(0, 7))
@settings(max_examples=1000)
def test_verdict_invariant_under_rotation_and_reflection(emb, k):
    base = validate(emb).valid
    assert validate(rotate_spine(emb, k)).valid == base
    assert validate(reflect_spine(emb)).valid == base


def _as_tuple(v):
    if isinstance(v, Crossing):
        return ("crossing", v.page, *v.edges)
    return ("matching", v.page, v.vertex, v.edges)


@given(embeddings(max_n=12))
@settings(max_examples=300)
def test_violations_equal_brute_force(emb):
    # the exact list, in order: it is what `verify` prints and `render
    # --force` draws; valid means that no page has a crossing and every
    # page is a matching
    rep = validate(emb)
    expected = brute_violations(emb.spine, emb.graph.edges, emb.pages)
    assert [_as_tuple(v) for v in rep.violations] == expected
    assert rep.valid == (expected == [])


def test_violations_sorted_canonically():
    g = Graph(6, ((0, 2), (1, 3), (1, 4), (2, 5)))
    emb = BookEmbedding(g, (0, 1, 2, 3, 4, 5), (0, 0, 0, 0), 1)
    rep = validate(emb)
    keys = [
        (v.page, 0 if isinstance(v, Crossing) else 1)
        for v in rep.violations
    ]
    assert keys == sorted(keys)
