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
    # outputs are compared as text or bytes; only unequal ones are parsed,
    # and the walk names keys whose values differ in value or in type, and
    # objects whose keys come in another order
    spec = importlib.util.spec_from_file_location("cli_identity", ROOT / "scripts" / "cli_identity.py")
    ident = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ident)
    base = {"value": 3, "stats": {"nodes": 16, "parity_refuted": 0, "per_level": {"3": 10}}}
    head = {"value": 3, "stats": {"nodes": 9, "parity_refuted": 2, "per_level": {"3": 10}}}
    assert ident.differing_keys(base, head) == ["stats.nodes", "stats.parity_refuted"]
    assert ident.differing_keys(base, {**base, "extra": None}) == ["extra"]
    assert ident.differing_keys([1], [2]) == ["0"]
    assert ident.differing_keys([1], [1, 2]) == ["the whole document"]
    assert ident.difference("stdout", json.dumps(base), json.dumps(head)) == \
        "stdout differs at stats.nodes, stats.parity_refuted"
    # equal under ==, unequal in type: a bool for an int, a float for an int
    assert ident.difference("stdout", '{"timed_out": false, "v": 1}', '{"timed_out": 0, "v": 1.0}') == \
        "stdout differs at timed_out, v"
    assert ident.differing_keys({"spine": [0, 1]}, {"spine": [False, 1]}) == ["spine.0"]
    # equal values whose keys come in another order, as a reordered record prints them
    reordered = {"value": 3, "stats": {"parity_refuted": 0, "nodes": 16, "per_level": {"3": 10}}}
    assert ident.difference("stdout", json.dumps(base), json.dumps(reordered)) == \
        "stdout differs at stats (key order)"
    assert ident.difference("stdout", '{"a": 1, "b": {"x": 1, "y": 2}}', '{"a": 1, "b": {"y": 2, "x": 1}}') == \
        "stdout differs at b (key order)"
    report = {"valid": False, "violations": [{"kind": "crossing", "page": 0, "edges": [[0, 2], [1, 3]]}]}
    swapped = {"violations": [{"page": 0, "kind": "crossing", "edges": [[0, 2], [1, 3]]}], "valid": False}
    assert ident.differing_keys(report, swapped) == ["the whole document (key order)", "violations.0 (key order)"]
    # equal JSON in another layout, text that is not JSON, exit codes and files as bytes
    assert ident.difference("stdout", '{"v": 1}\n', '{"v":  1}\n') == "stdout differs as text, not as JSON"
    assert ident.difference("stderr", "error: a\n", "error: b\n") == "stderr differs"
    assert ident.difference("exit code", 0, 2) == "exit code differs"
    assert ident.difference("file", b'{"v": 1}', b'{"v": 2}') == "file differs at v"
    assert ident.difference("file", b"<svg/>", None) == "file differs"
    many = ident.difference("stdout", json.dumps(list(range(12))), json.dumps(list(range(1, 13))))
    assert many == "stdout differs at 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2 more"


def test_solver_identity_names_the_keys_that_differ(tmp_path, monkeypatch, request):
    # both sides load this tree under their own package names; a head with
    # page parity off refutes K6-e's prefixes by cliques instead, and only
    # the counters of the solves that scan level 5 to its end differ; a head
    # whose exhaustive flag is an int differs on every solve
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
    assert differ == 0 and lines[-1] == "16 solves of 2 graphs, 0 differ"
    monkeypatch.setattr(head.solver._PrefixSearch, "parity", lambda self, d, v: False)
    lines, differ = ident.identity(base, head, graphs)
    counts = {"stats.clique_refuted": 3, "stats.clique_steps": 3, "stats.parity_refuted": 3, "stats.placements": 3}
    keys = ["bound.chromatic_index", "bound.max_degree", "bound.odd_cycle", "bound.overfull", "bound.reason",
            "bound.regular_degree", "bound.value", "exhaustive", "stats.clique_refuted", "stats.clique_steps",
            "stats.kernel_calls", "stats.nodes", "stats.orders_tested", "stats.parity_refuted", "stats.per_level",
            "stats.placements", "stats.timed_out", "value", "witness"]
    assert lines[:19] == [f"{key}: {counts.get(key, 0)} of 16 solves differ" for key in keys]
    assert lines[19] == "  K6-e max_pages=None timeout=None: " + ", ".join(counts)
    assert (lines[-1], differ) == ("16 solves of 2 graphs, 3 differ", 3)
    # values are compared with their types: an int exhaustive flag is no bool
    monkeypatch.undo()
    solve = head.solver.exact_mbt
    monkeypatch.setattr(head.solver, "exact_mbt", lambda *a: (r := solve(*a))._replace(exhaustive=int(r.exhaustive)))
    lines, differ = ident.identity(base, head, graphs)
    assert lines[7] == "exhaustive: 16 of 16 solves differ" and differ == 16
    assert lines[19] == "  C5 max_pages=None timeout=0: exhaustive"


def test_mutants_names_the_test_that_kills_a_mutant(request, monkeypatch, capsys):
    # one mutant against one pinned solve, in a copy of this tree: the twin
    # rule off moves K8-3e's refutations and placements. The script leaves
    # this test, by its id, out of the tier-1 runs it makes
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.SELF_TEST == request.node.nodeid
    assert mutants.stale() == []
    twin_off = next(m for m in mutants.MUTANTS if m.why.startswith("the twin rule switched off"))
    case = "tests/test_solver.py::test_exact_mbt_golden_counters[K8-3e]"
    assert mutants.outcome(twin_off, [case]) == \
        f"src/matchbook/solver.py: the twin rule switched off (every twin left -1): killed by {case}"
    # an old text that the code has outgrown stops the script before any test runs
    monkeypatch.setattr(mutants, "MUTANTS", [twin_off._replace(old="self.twin = None")])
    assert mutants.main() == 1
    assert capsys.readouterr().out == \
        "src/matchbook/solver.py: the twin rule switched off (every twin left -1): the old text occurs 0 times, not once\n"
    # a test module that no longer imports kills a mutant before any test
    # runs on it, which names no test and counts as a survivor does
    renamed = mutants.Mutant(mutants.LAYOUT, "def straddling(", "def straddles(", "straddling renamed")
    line = "src/matchbook/layout.py: straddling renamed: killed at collection of tests/test_layout.py"
    assert mutants.outcome(renamed, ["tests/test_layout.py::test_edges_cross_symmetry"]) == line
    monkeypatch.setattr(mutants, "MUTANTS", [renamed])
    monkeypatch.setattr(mutants, "outcome", lambda m: line)
    assert mutants.main() == 1
    assert capsys.readouterr().out == f"{line}\n1 mutants, 0 not equivalent and survived, 1 killed at collection\n"


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
