"""The package's public surface: names that resolve on first use, and the
record types' equality, immutability and defaults."""

import copy
import pickle
import sys

import pytest

import matchbook
from matchbook.graphs import Graph, complete
from matchbook.layout import BookEmbedding, validate
from matchbook.solver import BoundCertificate, SolveOptions, SolveStats, lower_bound


@pytest.mark.parametrize("name", matchbook.__all__)
def test_every_public_name_resolves_to_its_definition(name):
    namespace = {}
    exec(f"from matchbook import {name}", namespace)
    value = namespace[name]
    assert value is getattr(matchbook, name)
    assert value is getattr(sys.modules[value.__module__], name)
    assert value.__module__.startswith("matchbook.")


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from matchbook import *", namespace)
    assert set(matchbook.__all__) <= set(namespace)
    assert set(matchbook.__all__) <= set(dir(matchbook))
    assert "__version__" in dir(matchbook)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        matchbook.no_such_name
    with pytest.raises(ImportError):
        exec("from matchbook import no_such_name", {})


def test_graph_equality_and_hash_ignore_name_and_family():
    a = Graph(3, ((1, 0), (2, 1)), name="a", family=("path", 3))
    b = Graph(3, [(0, 1), (1, 2)])
    assert a.edges == b.edges == ((0, 1), (1, 2))
    assert a == b and hash(a) == hash(b)
    assert (a.name, a.family, b.name, b.family) == ("a", ("path", 3), "G", None)
    assert a != Graph(3, ((0, 1),)) and a != Graph(4, a.edges)
    assert a != (3, a.edges)


def test_graph_survives_copy_and_pickle_with_name_and_family():
    g = complete(4)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and (twin.name, twin.family) == ("K4", ("complete", 4))


def _report():
    return validate(BookEmbedding(complete(3), (0, 1, 2), (0, 1, 2), 3))


@pytest.mark.parametrize(
    "record, field",
    [
        (complete(3), "n"),
        (complete(3), "edges"),
        (complete(3), "name"),
        (complete(3), "family"),
        (BookEmbedding(complete(2), (0, 1), (0,), 1), "spine"),
        (_report(), "valid"),
        (lower_bound(complete(3)), "value"),
    ],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_record_fields_cannot_be_assigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) == before


def test_book_embedding_turns_spine_and_pages_into_tuples():
    g = complete(3)
    emb = BookEmbedding(g, [2, 0, 1], [0, 1, 2], 3)
    assert emb.spine == (2, 0, 1) and emb.pages == (0, 1, 2)
    assert emb == BookEmbedding(g, (2, 0, 1), (0, 1, 2), 3)
    assert hash(emb) == hash(BookEmbedding(g, (2, 0, 1), (0, 1, 2), 3))
    moved = emb._replace(spine=(0, 1, 2))
    assert type(moved) is BookEmbedding and moved.spine == (0, 1, 2) and moved.graph is g


def test_bound_certificate_defaults():
    cert = BoundCertificate(3, "max-degree", 3)
    assert (cert.regular_degree, cert.odd_cycle, cert.chromatic_index, cert.overfull) == (None,) * 4


def test_solve_options_defaults_and_keywords():
    opts = SolveOptions()
    assert SolveOptions._fields == ("max_pages", "timeout_s", "jobs")
    assert (opts.max_pages, opts.timeout_s, opts.jobs) == (None, 600.0, 1)
    opts = SolveOptions(max_pages=3, timeout_s=None, jobs=2)
    assert (opts.max_pages, opts.timeout_s, opts.jobs) == (3, None, 2)
    assert SolveOptions(max_pages=3) == SolveOptions(3)
    assert matchbook.SolveOptions is SolveOptions


def test_solve_stats_are_mutable_and_do_not_share_per_level():
    a, b = SolveStats(), SolveStats()
    a.per_level[4] = 10
    a.nodes += 5
    assert b.per_level == {} and b.nodes == 0
    assert (a.orders_tested, a.nodes, a.elapsed_s, a.per_level, a.timed_out) == (0, 5, 0.0, {4: 10}, False)
    assert (a.kernel_calls, a.clique_refuted, a.clique_steps, a.parity_refuted, a.placements) == (0, 0, 0, 0, 0)
