#!/usr/bin/env python3
"""Sweep the K_p x C_q construction grid and certify mbt = p + 2 per row.

Every instance must come out validator-clean with exactly as many pages as
the counted lower bound, and that bound must be p + 2. The embedding is
then a matching book embedding in the fewest pages, so each row certifies
the paper's theorem for its instance. The table records the bound's reason
and which scheme ran.

Usage:
  python3 scripts/grid_sweep.py --pmin 3 --pmax 8 --qmin 3 --qmax 8
"""

from __future__ import annotations

import argparse
import sys
import time

from matchbook.constructions import kpcq_embedding
from matchbook.graphs import kpcq
from matchbook.layout import validate
from matchbook.solver import lower_bound


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pmin", type=int, default=3)
    ap.add_argument("--pmax", type=int, default=8)
    ap.add_argument("--qmin", type=int, default=3)
    ap.add_argument("--qmax", type=int, default=8)
    args = ap.parse_args()

    print(f"{'p':>3} {'q':>3} {'pages':>6} {'bound':>6} {'valid':>6}  {'reason':<21} scheme")
    failures = 0
    t0 = time.perf_counter()
    for p in range(args.pmin, args.pmax + 1):
        for q in range(args.qmin, args.qmax + 1):
            out = kpcq_embedding(p, q)
            rep = validate(out.embedding)
            bound = lower_bound(kpcq(p, q))
            ok = rep.valid and out.embedding.page_count == bound.value == p + 2
            failures += 0 if ok else 1
            print(
                f"{p:>3} {q:>3} {out.embedding.page_count:>6} {bound.value:>6}"
                f" {str(rep.valid):>6}  {bound.reason:<21} {out.scheme}"
            )
    print(f"done in {time.perf_counter() - t0:.2f}s, failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
