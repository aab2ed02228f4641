"""Run matchbook CLI commands in-process in this fresh interpreter.

Usage: python3 perfbench/child.py TASKS.json RESULT.json [--trace]

TASKS.json holds a list of argument lists for ``matchbook.cli.main``, run
in order. RESULT.json receives the import time of ``matchbook.cli``, each
command's exit code, captured stdout and latency, the wall time from the
first command's start to the last one's end, the peak resident memory and,
with --trace, the spans recorded around every layer. ``matchbook`` is
found through PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import matchbook.cli as cli

    import_s = perf_counter() - t0
    tasks = json.loads(open(argv[0]).read())
    tracer = None
    if "--trace" in argv[2:]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    results = []
    start = perf_counter()
    for i, task in enumerate(tasks):
        out = io.StringIO()
        t = perf_counter()
        with contextlib.redirect_stdout(out):
            if tracer is None:
                rc = cli.main(task)
            else:
                tracer.task = i
                with tracer.span(f"cli.{task[0]}"):
                    rc = cli.main(task)
        results.append({"rc": rc, "s": perf_counter() - t, "stdout": out.getvalue()})
    wall_s = perf_counter() - start
    doc = {
        "import_s": import_s,
        "wall_s": wall_s,
        "tasks": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else None,
    }
    with open(argv[1], "w") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
