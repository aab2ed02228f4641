"""Matching book embeddings: graphs, validation, constructions, exact search.

A matching book embedding places the vertices of a graph on a line (the
spine) and assigns every edge to a page so that same-page edges neither
cross nor share a vertex. The matching book thickness is the least number
of pages any such embedding needs; it is bounded below by the chromatic
index and, for regular graphs with an odd cycle, by max degree + 1.

The names below are the ones callers use. Helpers that only check them,
such as the spine-order enumeration and spine rotation, are test oracles
outside the package.

Names resolve on first use: ``import matchbook`` loads no submodule, and
``matchbook.exact_mbt`` loads ``solver`` (and what it imports) the first
time it is looked up.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(
        (
            "ConstructionError",
            "ConstructionOutcome",
            "ConstructionUnresolved",
            "auto_embedding",
            "complete_embedding",
            "construct",
            "even_cycle_embedding",
            "kpcq_embedding",
            "path_witness",
            "product_embedding",
            "witness_for",
        ),
        "constructions",
    ),
    **dict.fromkeys(
        (
            "BipartitionResult",
            "Graph",
            "ProductLabel",
            "adjacency",
            "bipartition",
            "cartesian_product",
            "complete",
            "complete_bipartite",
            "cycle",
            "degrees",
            "delete_edge",
            "hypercube",
            "is_connected",
            "is_regular",
            "kpcq",
            "max_degree",
            "path",
            "product_labels",
            "vertex_labels",
        ),
        "graphs",
    ),
    **dict.fromkeys(
        (
            "BookEmbedding",
            "Crossing",
            "MalformedEmbeddingError",
            "MatchingViolation",
            "ValidationReport",
            "validate",
        ),
        "layout",
    ),
    "SolveOptions": "options",
    **dict.fromkeys(
        ("BoundCertificate", "SolveResult", "edge_chromatic_exact", "exact_mbt", "lower_bound"),
        "solver",
    ),
}

__all__ = [*_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOMES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
