#!/usr/bin/env python3
"""Apply each mutant of a fixed list to a copy of this working tree and
run tier-1 there, to show which test kills it.

A mutant is one (file, old text, new text, why) edit. Each is applied to
a fresh temporary copy of the tree, without .git and .perfbench, and
tier-1 runs in that copy with -x, so the first failing test is the one
named. Every line reads `<file>: <why>: killed by <test>` or `...:
survived`. A mutant marked equivalent carries the reason it cannot change
behaviour, and its survival proves nothing about the tests. A mutant whose
first failure is a test module that does not import (an `ERROR <file>`
line with no `::`) reads `killed at collection of <file>`: no test ran on
it, so it counts as a survivor does.

Before any test runs, every old text must occur exactly once in its
file, so a list that the code has outgrown fails at once. The script
exits 1 when an old text does not occur exactly once, or when a mutant
that is not marked equivalent survives or is killed at collection.

Usage:
  python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORES = (".git", ".perfbench", "__pycache__", ".pytest_cache", ".hypothesis")
# the smoke test of this script runs it, so a mutant run would run it again
# inside the copy; it is left out of every mutant run
SELF_TEST = "tests/test_scripts.py::test_mutants_names_the_test_that_kills_a_mutant"

SOLVER, LAYOUT, CONSTRUCTIONS = "src/matchbook/solver.py", "src/matchbook/layout.py", "src/matchbook/constructions.py"


class Mutant(NamedTuple):
    file: str  # relative to the tree's root
    old: str
    new: str
    why: str
    equivalent: bool = False  # then ``why`` says why behaviour cannot change


MUTANTS = [
    # page parity
    Mutant(SOLVER, "if near[v].bit_count() < k)", "if near[v].bit_count() < 0)",
           "no vertex counted short by page parity"),
    Mutant(SOLVER, "across |= self.before[d][(d + self.n) % 2]", "across |= self.before[d][(d + self.n + 1) % 2]",
           "the outside parity side flipped"),
    Mutant(SOLVER, "across |= self.before[d][(d + self.n) % 2]", "across |= 0",
           "page parity inside the closed edge only"),
    # the twin rule
    Mutant(SOLVER, "if t < 0 or not free[d] >> t & 1:", "if t < 0 or free[d] >> t & 1:",
           "the twin skip inverted"),
    Mutant(SOLVER, "for v in range(self.n):", "for v in range(0):",
           "the twin rule switched off (every twin left -1)"),
    Mutant(SOLVER, "for hood in (near[v], near[v] | 1 << v):", "for hood in (near[v] | 1 << v,):",
           "twins by closed neighbourhood only"),
    # the clique search
    Mutant(SOLVER, "need = self.k - 1", "need = self.k - 2",
           "cliques of k edges accepted as refutations"),
    Mutant(SOLVER, "if classes < need:", "if classes <= need:",
           "the colour guard refuting at need classes"),
    Mutant(SOLVER, "if cand.bit_count() > need + 2:", "if cand.bit_count() > need + 1:",
           "the colour guard run with one candidate fewer to spare, so it takes fewer steps"),
    Mutant(SOLVER, "if cand.bit_count() >= want - 1:", "if cand.bit_count() >= want:",
           "the clique search descending only with a candidate to spare, so it misses a clique with none"),
    Mutant(SOLVER, "if cand.bit_count() < want:", "if cand.bit_count() < want - 1:",
           "the clique search keeping a depth with one candidate too few, so it takes more steps"),
    # the counted bound
    Mutant(SOLVER, "if -(-m // (size // 2)) > best:", "if -(-m // (size // 2)) >= best:",
           "overfull_bound keeping the last set of the largest count, not the first"),
    Mutant(SOLVER, "d = max(d - 1, 0)", "d = 0",
           "the peel rescans the degree buckets from 0, and no bucket below d - 1 holds a vertex", True),
    Mutant(SOLVER, "return int(v > second), 0", "return int(v >= second), 0",
           "at a full spine v is free and second = spine[1] is placed (d > 1, as a level is scanned "
           "only when n >= 3), so v never equals second", True),
    # the crossing rule and the validator
    Mutant(LAYOUT, "return odd[b] ^ odd[a + 1]", "return odd[b - 1] ^ odd[a + 1]",
           "the crossing rule drops the vertex just before b"),
    Mutant(LAYOUT, "if len(hit) >= 2:", "if len(hit) >= 3:",
           "validate misses two edges of one page at one vertex"),
    # the constructions
    Mutant(CONSTRUCTIONS, "            if s <= p:\n", "            if s < p:\n",
           "the snake scheme's low band one row sum short"),
    Mutant(CONSTRUCTIONS, "    return opts._replace(timeout_s=max(", "    return opts\n    return opts._replace(timeout_s=max(",
           "every solve of one embedding gets the whole timeout"),
]


def stale() -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    lines = []
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            lines.append(f"{m.file}: {m.why}: the old text occurs {count} times, not once")
    return lines


def outcome(mutant: Mutant, tests=()) -> str:
    """The line printed for ``mutant``, ending in ``killed by <test>`` or
    ``survived``, from pytest with -x on ``tests`` (all of tier-1 when
    empty) in a mutated copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*COPY_IGNORES))
        path = tree / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--deselect", SELF_TEST, *tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    # summary lines read "FAILED <test id> - <message>"
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in out.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if out.returncode == 0:
        result = "survived (equivalent)" if mutant.equivalent else "survived"
    elif failed and "::" not in failed[0]:
        result = f"killed at collection of {failed[0]}"
    else:
        result = f"killed by {failed[0]}" if failed else f"killed (pytest exit {out.returncode})"
    return f"{mutant.file}: {mutant.why}: {result}"


def main() -> int:
    if bad := stale():
        print("\n".join(bad))
        return 1
    survivors = collected = 0
    for m in MUTANTS:
        line = outcome(m)
        survivors += line.endswith(": survived")
        collected += ": killed at collection of " in line
        print(line, flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} not equivalent and survived, {collected} killed at collection")
    return 1 if survivors or collected else 0


if __name__ == "__main__":
    sys.exit(main())
