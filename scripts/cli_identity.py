#!/usr/bin/env python3
"""Run every CLI command under two source trees and compare what they produce.

Each side gets its own work directory holding the same input files, and
runs the same `python -m matchbook` commands there with its tree first on
PYTHONPATH. The two sides must agree on every command's exit code, and
on its stderr and stdout as text, and on every file in the work directory
at the end byte for byte. Only when two outputs differ are they parsed as
JSON, where both parse, to explain the difference: one walk names the
dotted keys whose values differ in value or in type (so `false` differs
from `0` and `1` from `1.0`), such as `stats.clique_refuted`, and the
objects whose keys come in another order, such as `lower_bound (key
order)`. A difference that is not JSON is reported as it is. Standard
library only; nothing here imports matchbook.

The cases cover gen, embed, verify, solve and render, with and without
-o, on small K_p x C_q graphs, two products of files (K5 x K3,3, whose
untagged right factor goes to the solver, and K5 x P3, whose right
factor carries its family tag), C5 and K3,3 solved exactly, a graph
solved after the prefix search refutes prefixes by cliques and by page
parity, an unresolved embed, an invalid embedding, a format error, and a
K1 product nested 64 product tags deep. --large adds K30 x C31
(m = 14,415), solved with --timeout 0.

Usage:
  python3 scripts/cli_identity.py --base OLD/src --head src [--large]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

MAX_PRODUCT_DEPTH = 64
MISSING = object()  # a key one side of a comparison lacks
SHOWN = 10  # differing keys named per difference


def graph_doc(name: str, n: int, edges, family=None) -> dict:
    doc = {"type": "graph", "name": name, "n": n, "edges": [list(e) for e in sorted(edges)]}
    if family is not None:
        doc["family"] = family
    return doc


def deep_product(depth: int) -> str:
    """A K1 product nested ``depth`` product tags deep, as compact text."""
    head = '{"n":1,"edges":[],"family":{"kind":"product","left":'
    tail = ',"right":{"n":1,"edges":[]}}}'
    return head * depth + '{"n":1,"edges":[]}' + tail * depth


def inputs() -> dict[str, str]:
    k5 = graph_doc("K5", 5, combinations(range(5), 2), {"kind": "complete", "args": [5]})
    k33 = graph_doc("K3,3", 6, [(i, 3 + j) for i in range(3) for j in range(3)])
    c5 = graph_doc("C5", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    crossing = graph_doc("G", 4, [(0, 2), (1, 3)])
    refuted = graph_doc("R", 8, [(0, 1), (0, 4), (0, 7), (1, 2), (1, 6), (2, 5), (2, 6), (3, 7), (5, 6)])
    docs = {"k5.json": k5, "k33.json": k33, "c5.json": c5, "k1.json": graph_doc("K1", 1, []),
            "crossing.json": crossing, "refuted.json": refuted,
            "crossing.emb.json": {"type": "embedding", "graph": crossing, "spine": [0, 1, 2, 3],
                                  "pages": [0, 0], "page_count": 1}}
    files = {name: json.dumps(doc) for name, doc in docs.items()}
    files["f63.json"] = deep_product(MAX_PRODUCT_DEPTH - 1)
    files["bad.json"] = '{"n": 3, "edges": [[0, 1], [0, 1]]}'
    return files


def pipeline(stem: str, gen_args: list[str]) -> list[list[str]]:
    """gen, embed, verify and render of one graph, to files and to stdout."""
    g, e = f"{stem}.json", f"{stem}.emb.json"
    return [
        ["gen", *gen_args, "-o", g],
        ["gen", *gen_args],
        ["embed", g, "-o", e],
        ["embed", g],
        ["verify", g, e],
        ["render", e, "-o", f"{stem}.svg"],
        ["render", e, "--split-pages"],
    ]


def cases(large: bool) -> list[list[str]]:
    out = []
    for p, q in ((4, 3), (5, 5), (6, 4)):
        out += pipeline(f"k{p}c{q}", ["--family", "kpcq", "--p", str(p), "--q", str(q)])
    out += [["solve", "k4c3.json"]]
    out += pipeline("prod", ["--family", "product-of-files", "--left", "k5.json", "--right", "k33.json"])
    out += [["gen", "--family", "path", "--n", "3", "-o", "p3.json"]]
    out += pipeline("prodp3", ["--family", "product-of-files", "--left", "k5.json", "--right", "p3.json"])
    out += pipeline("deep", ["--family", "product-of-files", "--left", "f63.json", "--right", "k1.json"])
    out += [
        ["solve", "deep.json"],
        ["solve", "c5.json"],
        ["solve", "c5.json", "-o", "c5.emb.json"],
        ["solve", "k33.json"],
        ["solve", "refuted.json"],
        ["solve", "c5.json", "--max-pages", "2"],
        ["embed", "c5.json"],
        ["embed", "c5.json", "--method", "solver", "--max-pages", "2"],
        ["embed", "prod.json", "--method", "construction:product-lemma2.5"],
        ["verify", "c5.json", "c5.emb.json"],
        ["verify", "crossing.json", "crossing.emb.json"],
        ["render", "crossing.emb.json"],
        ["render", "crossing.emb.json", "--force", "-o", "crossing.svg"],
        ["solve", "bad.json"],
        ["embed", "missing.json"],
        ["gen", "--family", "cycle", "--n", "2"],
    ]
    if large:
        out += pipeline("k30c31", ["--family", "kpcq", "--p", "30", "--q", "31"])
        out += [["solve", "k30c31.json", "--timeout", "0"]]
    return out


def dotted(at: str, key) -> str:
    return f"{at}.{key}" if at else str(key)


def differing_keys(x, y, at: str = "") -> list[str]:
    """The dotted keys at which two parsed JSON values differ in value or in
    type, a key that one side lacks included, and the objects whose keys
    come in another order, marked "(key order)"; a list item's key is its
    index."""
    if isinstance(x, dict) and isinstance(y, dict):
        here = [f"{at or 'the whole document'} (key order)"] if x.keys() == y.keys() and list(x) != list(y) else []
        return here + [p for k in sorted(x.keys() | y.keys())
                       for p in differing_keys(x.get(k, MISSING), y.get(k, MISSING), dotted(at, k))]
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        return [p for i, (a, b) in enumerate(zip(x, y)) for p in differing_keys(a, b, dotted(at, i))]
    return [] if type(x) is type(y) and x == y else [at or "the whole document"]


def run_side(src: str, work: Path, argvs: list[list[str]]) -> tuple[list, dict]:
    for name, text in inputs().items():
        (work / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "PYTHONIOENCODING": "utf-8"}
    results = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "matchbook", *argv], cwd=work, env=env,
                              capture_output=True, text=True, encoding="utf-8", timeout=600)
        results.append((proc.returncode, proc.stderr, proc.stdout))
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return results, files


def difference(what: str, x, y) -> str:
    """How two sides' unequal outputs differ: at the keys that
    ``differing_keys`` names when both parse as JSON."""
    try:
        keys = differing_keys(json.loads(x), json.loads(y))
    except (TypeError, ValueError):  # an exit code, a missing file or text that is not JSON
        return f"{what} differs"
    shown = keys[:SHOWN] + ([f"{len(keys) - SHOWN} more"] if len(keys) > SHOWN else [])
    return f"{what} differs at {', '.join(shown)}" if keys else f"{what} differs as text, not as JSON"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="source tree of one side (the directory holding matchbook/)")
    ap.add_argument("--head", required=True, help="source tree of the other side")
    ap.add_argument("--large", action="store_true", help="add K30 x C31")
    args = ap.parse_args()

    argvs = cases(args.large)
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for side, src in (("base", args.base), ("head", args.head)):
            (Path(tmp) / side).mkdir()
            sides.append(run_side(src, Path(tmp) / side, argvs))
    (base, base_files), (head, head_files) = sides

    diffs = []
    for argv, a, b in zip(argvs, base, head):
        for what, x, y in zip(("exit code", "stderr", "stdout"), a, b):
            if x != y:
                diffs.append(f"{' '.join(argv)}: {difference(what, x, y)}")
    for name in sorted(base_files.keys() | head_files.keys()):
        x, y = base_files.get(name), head_files.get(name)
        if x != y:
            diffs.append(f"{name}: {difference('file', x, y)}")
    for line in diffs:
        print(line)
    stdout = [sum(len(r[2].encode()) for r in side) for side in (base, head)]
    files = [sum(len(v) for v in side.values()) for side in (base_files, head_files)]
    print(f"{len(argvs)} commands, {len(base_files)} files, {len(diffs)} differences;"
          f" stdout bytes {stdout[0]:,} -> {stdout[1]:,}, file bytes {files[0]:,} -> {files[1]:,}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
