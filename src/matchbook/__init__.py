"""Matching book embeddings: graphs, validation, constructions, exact search.

A matching book embedding places the vertices of a graph on a line (the
spine) and assigns every edge to a page so that same-page edges neither
cross nor share a vertex. The matching book thickness is the least number
of pages any such embedding needs; it is bounded below by the chromatic
index and, for regular graphs with an odd cycle, by max degree + 1.

The names below are the ones callers use. Helpers that only check them,
such as the spine-order enumeration and spine rotation, are test oracles
outside the package.
"""

from .constructions import (
    ConstructionError,
    ConstructionOutcome,
    ConstructionUnresolved,
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
from .graphs import (
    BipartitionResult,
    Graph,
    ProductLabel,
    adjacency,
    bipartition,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    degrees,
    delete_edge,
    hypercube,
    is_connected,
    is_regular,
    kpcq,
    max_degree,
    path,
    product_labels,
    vertex_labels,
)
from .layout import (
    BookEmbedding,
    Crossing,
    MalformedEmbeddingError,
    MatchingViolation,
    ValidationReport,
    validate,
)
from .solver import (
    BoundCertificate,
    SolveOptions,
    SolveResult,
    edge_chromatic_exact,
    exact_mbt,
    lower_bound,
)

__version__ = "0.1.0"
