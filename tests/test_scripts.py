"""The scripts under scripts/ run to completion on small inputs, the
bench tracer still finds every function it wraps, and the bench corpus's
pinned answers still hold."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import matchbook
from matchbook.graphs import Graph, cycle

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(matchbook.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_grid_sweep_runs():
    # each row compares the pages with the counted bound and names its reason
    out = run_script("grid_sweep.py", "--pmax", "4", "--qmax", "4")
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:-1]]
    assert [row[5] for row in rows] == ["regular-nonbipartite"] * 4
    assert "failures: 0" in out.stdout


def test_make_figures_runs(tmp_path):
    out = run_script("make_figures.py", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k4_c4.svg", "k5_c3.svg", "k5e_p3.svg", "k6_c3.svg"]


def test_bench_tracer_wraps_every_traced_name_and_restores():
    # install() looks each traced function up by name, so a renamed or
    # deleted one breaks perfbench/run.py --trace 1
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    mods = [importlib.import_module(f"matchbook.{name}") for name in tracer.LAYERS]
    before = [dict(vars(mod)) for mod in mods]
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        for _, home, fname, _ in tracer.WRAPS:
            assert hasattr(getattr(importlib.import_module(f"matchbook.{home}"), fname), "__wrapped__")
        matchbook.solver.exact_mbt(cycle(5))
    finally:
        restore()
    assert [dict(vars(mod)) for mod in mods] == before
    assert {"solver.solve", "solver.lower_bound", "solver.upper_bound"} <= {s[0] for s in t.spans}
    assert tracer.layer_metrics(t.spans)["solver.calls"] >= 3


def test_bench_corpus_pins_hold_on_the_committed_labelling():
    # perfbench/run.py checks every solve against the value, exhaustiveness,
    # bound, bound reason and refuted orders pinned in perfbench/corpus.json;
    # a change that moves a pin fails here before the benchmark runs
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
    corpus = json.loads((ROOT / "perfbench" / "corpus.json").read_text())
    entries = [e for workload in corpus.values() for e in workload]
    assert len(entries) == 19
    for e in entries:
        edges = sorted(tuple(sorted(edge)) for edge in e["edges"])
        out = matchbook.solver.exact_mbt(Graph(e["n"], tuple(edges)))
        assert run.Solve.check(e, edges, out) == [], e["name"]


def test_cli_identity_names_the_keys_that_differ():
    spec = importlib.util.spec_from_file_location("cli_identity", ROOT / "scripts" / "cli_identity.py")
    ident = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ident)
    base = {"value": 3, "stats": {"nodes": 16, "parity_refuted": 0, "per_level": {"3": 10}}}
    head = {"value": 3, "stats": {"nodes": 9, "parity_refuted": 2, "per_level": {"3": 10}}}
    assert ident.differing_keys(base, head) == ["stats.nodes", "stats.parity_refuted"]
    assert ident.differing_keys(base, {**base, "extra": None}) == ["extra"]
    assert ident.differing_keys([1], [2]) == ["the whole document"]
    assert ident.at_keys(base, head) == " at stats.nodes, stats.parity_refuted"
