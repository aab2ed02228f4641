#!/usr/bin/env python3
"""Sweep the K_p x C_q construction grid and report page counts.

Every instance must come out validator-clean with exactly max degree + 1
pages; the table records which scheme ran.

Usage:
  python3 scripts/grid_sweep.py --pmin 3 --pmax 8 --qmin 3 --qmax 8
"""

from __future__ import annotations

import argparse
import sys
import time

from matchbook.constructions import kpcq_embedding
from matchbook.graphs import kpcq, max_degree
from matchbook.layout import validate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pmin", type=int, default=3)
    ap.add_argument("--pmax", type=int, default=8)
    ap.add_argument("--qmin", type=int, default=3)
    ap.add_argument("--qmax", type=int, default=8)
    args = ap.parse_args()

    print(f"{'p':>3} {'q':>3} {'pages':>6} {'delta+1':>8} {'valid':>6}  scheme")
    failures = 0
    t0 = time.perf_counter()
    for p in range(args.pmin, args.pmax + 1):
        for q in range(args.qmin, args.qmax + 1):
            out = kpcq_embedding(p, q)
            rep = validate(out.embedding)
            target = max_degree(kpcq(p, q)) + 1
            ok = rep.valid and out.embedding.page_count == target
            failures += 0 if ok else 1
            print(
                f"{p:>3} {q:>3} {out.embedding.page_count:>6} {target:>8}"
                f" {str(rep.valid):>6}  {out.scheme}"
            )
    print(f"done in {time.perf_counter() - t0:.2f}s, failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
