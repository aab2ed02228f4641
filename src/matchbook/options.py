"""Options of the exact solver, and the name of the solver's scheme.

They live apart from ``solver`` so that ``embed`` can pass them to a
construction without loading the solver, and ``solve -o`` can name its
witness's scheme without loading the constructions; ``solver.SolveOptions``
and ``constructions.SCHEME_SOLVER`` are the same objects.
"""

from __future__ import annotations

from typing import NamedTuple

SCHEME_SOLVER = "solver"


class SolveOptions(NamedTuple):
    """``max_pages`` caps the answer, on a timeout too (None: no cap), and
    ``timeout_s`` bounds the whole solve (None: no limit); under
    ``constructions.construct`` it bounds all the solves of one embedding,
    each getting what the earlier ones left. ``jobs`` is
    ignored, and the CLI has no flag for it: each level is one prefix
    search in this process; the field stays only because the benchmark
    harness still passes it. A solve's node budget, per full spine, is the
    module constant ``DEFAULT_ORDER_NODES`` of ``solver``; its lower bound
    is a count and needs none. Every solve tests one spine order per
    rotation and reflection class (``solver._PrefixSearch``)."""

    max_pages: int | None = None
    timeout_s: float | None = 600.0
    jobs: int = 1

    def checked(self) -> SolveOptions:
        """These options, once ``timeout_s`` and ``max_pages`` are known to
        be None or non-negative (``max_pages`` an int); else a ValueError."""
        if self.timeout_s is not None and not self.timeout_s >= 0:
            raise ValueError(f"timeout must be a non-negative number of seconds, not {self.timeout_s}")
        cap = self.max_pages
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 0):
            raise ValueError(f"max pages must be a non-negative integer, not {cap!r}")
        return self
