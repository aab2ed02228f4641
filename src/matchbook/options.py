"""Options of the exact solver.

They live apart from ``solver`` so that ``embed`` can pass them to a
construction without loading the solver; ``solver.SolveOptions`` is the
same class.
"""

from __future__ import annotations

from typing import NamedTuple


class SolveOptions(NamedTuple):
    """``timeout_s`` bounds the whole solve (None: no limit). ``jobs`` is
    accepted and ignored: each level is one prefix search in this process;
    it stays because the benchmark harness still passes it. A solve's node
    budget, per full spine, is the module constant ``DEFAULT_ORDER_NODES``
    of ``solver``; its lower bound is a count and needs none."""

    max_pages: int | None = None
    timeout_s: float | None = 600.0
    jobs: int = 1
    symmetry: bool = True
