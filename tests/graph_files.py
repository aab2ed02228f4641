"""Graph files for tests. The library only reads graph files; ``gen -o``
writes them from the command line."""

from pathlib import Path

from matchbook.formats import dumps, graph_to_dict


def save_graph(g, path) -> None:
    Path(path).write_text(dumps(graph_to_dict(g)))
