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
    it stays because the benchmark harness still passes it. Node budgets
    are the module constants ``DEFAULT_ORDER_NODES`` and ``DEFAULT_CHI_NODES``
    of ``solver``."""

    max_pages: int | None = None
    timeout_s: float | None = 600.0
    jobs: int = 1
    symmetry: bool = True
