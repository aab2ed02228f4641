"""The scripts under scripts/ run to completion on small inputs, the
bench tracer still finds every function it wraps, the bench corpus's
pinned answers still hold, and the cli-small workload checks out traced
and untraced."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from itertools import combinations
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


def load_bench_run():
    """perfbench/run.py as a module, leaving sys.path as it was."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
    return run


def test_bench_corpus_pins_hold_on_the_committed_labelling():
    # perfbench/run.py checks every solve against the value, exhaustiveness,
    # bound, bound reason and refuted orders pinned in perfbench/corpus.json;
    # a change that moves a pin fails here before the benchmark runs
    run = load_bench_run()
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


def test_solver_identity_names_the_keys_that_differ(tmp_path, monkeypatch, request):
    # both sides load this tree under their own package names; a head with
    # page parity off refutes K6-e's prefixes by cliques instead, and only
    # the counters of the solves that scan level 5 to its end differ
    spec = importlib.util.spec_from_file_location("solver_identity", ROOT / "scripts" / "solver_identity.py")
    ident = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ident)
    src = str(Path(matchbook.__file__).parent.parent)
    names = ("matchbook_identity_base", "matchbook_identity_head")

    def forget():  # the two copies leave sys.modules when this test ends
        for name in [m for m in sys.modules if m.partition(".")[0] in names]:
            del sys.modules[name]

    request.addfinalizer(forget)
    base, head = (ident.Tree(src, name, str(tmp_path)) for name in names)
    graphs = [("C5", 5, cycle(5).edges), ("K6-e", 6, tuple(e for e in combinations(range(6), 2) if e != (0, 1)))]
    lines, differ = ident.identity(base, head, graphs)
    assert differ == 0 and lines[-1] == "32 solves of 2 graphs, 0 differ"
    monkeypatch.setattr(head.solver._PrefixSearch, "parity", lambda self, d, v: False)
    lines, differ = ident.identity(base, head, graphs)
    counts = {"stats.clique_refuted": 6, "stats.clique_steps": 6, "stats.parity_refuted": 6}
    keys = ["bound", "exhaustive", "stats.clique_refuted", "stats.clique_steps", "stats.kernel_calls", "stats.nodes",
            "stats.orders_tested", "stats.parity_refuted", "stats.per_level", "stats.timed_out", "value", "witness"]
    assert lines[:12] == [f"{key}: {counts.get(key, 0)} of 32 solves differ" for key in keys]
    assert lines[12] == "  K6-e symmetry=True max_pages=None timeout=None: " + ", ".join(counts)
    assert (lines[-1], differ) == ("32 solves of 2 graphs, 6 differ", 6)


def test_bench_cli_small_checks_out_traced_and_untraced(tmp_path, monkeypatch):
    # an untraced cli-small pass runs `python -m matchbook` per command; a
    # traced one runs every command in one perfbench/child.py process, with
    # stdout redirected and the tracer's wraps installed. Both must pass
    # their checks, give the same counters, and trace the same layer counts
    monkeypatch.chdir(ROOT)  # run.py takes its checkout from the working directory
    run = load_bench_run()
    wl = run.WORKLOADS["cli-small"]()
    wl.setup(7, tmp_path)
    passes = [wl.run_pass(0), *(wl.run_pass(0, tracer=run.Tracer(), jobs=1) for _ in range(2))]
    assert [p["failures"] for p in passes] == [{}, {}, {}]
    assert passes[0]["counters"] == passes[1]["counters"] == passes[2]["counters"]
    traced = [{k: run.layer_metrics(p["spans"])[k] for k in run.TRACE_COUNTERS} for p in passes[1:]]
    assert traced[0] == traced[1]
