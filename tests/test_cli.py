import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import matchbook
from matchbook import constructions
from matchbook.cli import main
from matchbook.constructions import complete_embedding, kpcq_embedding
from matchbook.formats import (
    MAX_PRODUCT_DEPTH,
    dumps,
    embedding_to_dict,
    load_embedding,
    load_graph,
    save_embedding,
    save_graph,
)
from matchbook.graphs import FAMILIES, Graph, complete, complete_bipartite, cycle, delete_edge, kpcq, path
from matchbook.layout import BookEmbedding, validate


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_complete_single_vertex(capsys, tmp_path):
    p = tmp_path / "k1.json"
    code, out, _ = run(capsys, "gen", "--family", "complete", "--n", "1", "-o", str(p))
    assert code == 0
    g = load_graph(p)
    assert g.n == 1 and g.m == 0


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--family", "cycle", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and len(doc["edges"]) == 4


def test_gen_kpcq(capsys, tmp_path):
    p = tmp_path / "k.json"
    code, out, _ = run(capsys, "gen", "--family", "kpcq", "--p", "5", "--q", "3", "-o", str(p))
    assert code == 0
    g = load_graph(p)
    assert g.n == 15 and g.m == 45
    assert json.loads(p.read_text())["product_labels"][1] == [1, 0]


def test_gen_bad_params(capsys):
    code, _, err = run(capsys, "gen", "--family", "cycle", "--n", "2")
    assert code == 2
    code, _, _ = run(capsys, "gen", "--family", "cycle")
    assert code == 2
    code, _, _ = run(capsys, "gen", "--family", "nosuch", "--n", "3")
    assert code == 2


# small arguments for every kind of the family table
SMALL_FAMILY_ARGS = {
    "complete": [(1,), (2,), (5,)],
    "cycle": [(3,), (6,)],
    "path": [(1,), (2,), (5,)],
    "complete-bipartite": [(1, 1), (2, 3)],
    "hypercube": [(0,), (1,), (3,)],
    "kpcq": [(3, 3), (4, 6)],
}


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_gen_builds_every_family_of_the_table(capsys, tmp_path, kind):
    _, flags, closed_form = FAMILIES[kind]
    for args in SMALL_FAMILY_ARGS[kind]:
        gp = tmp_path / "g.json"
        argv = [x for flag, arg in zip(flags, args) for x in (f"--{flag}", str(arg))]
        code, out, _ = run(capsys, "gen", "--family", kind, *argv, "-o", str(gp))
        assert code == 0, (kind, args)
        g = load_graph(gp)
        assert g.family == (kind, *args)
        assert closed_form(*args) == (g.n, g.m) == (json.loads(out)["n"], json.loads(out)["edges"])


def test_embed_and_verify_kpcq(capsys, tmp_path):
    gp, ep = tmp_path / "g.json", tmp_path / "e.json"
    assert run(capsys, "gen", "--family", "kpcq", "--p", "5", "--q", "3", "-o", str(gp))[0] == 0
    code, out, _ = run(capsys, "embed", str(gp), "-o", str(ep))
    assert code == 0
    summary = json.loads(out)
    assert summary["page_count"] == 7 and summary["valid"] and summary["scheme"] == "kpcq-odd-direct"

    code, out, _ = run(capsys, "verify", str(gp), str(ep))
    assert code == 0
    assert json.loads(out)["valid"]


def test_embed_k6c3(capsys, tmp_path):
    gp = tmp_path / "g.json"
    save_graph(kpcq(6, 3), gp)
    code, out, _ = run(capsys, "embed", str(gp))
    assert code == 0
    assert json.loads(out)["page_count"] == 8


def test_embed_product_scheme(capsys, tmp_path):
    left, right, gp, ep = (tmp_path / n for n in ("l.json", "r.json", "g.json", "e.json"))
    save_graph(delete_edge(complete(5), (0, 1)), left)
    save_graph(path(3), right)
    code, _, _ = run(
        capsys, "gen", "--family", "product-of-files",
        "--left", str(left), "--right", str(right), "-o", str(gp),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "embed", str(gp), "--method", "construction:product-lemma2.5", "-o", str(ep)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["page_count"] == 7 and summary["valid"]
    assert run(capsys, "verify", str(gp), str(ep))[0] == 0


def test_embed_solver_method(capsys, tmp_path):
    gp = tmp_path / "c5.json"
    save_graph(cycle(5), gp)
    code, out, _ = run(capsys, "embed", str(gp), "--method", "solver")
    assert code == 0
    assert json.loads(out)["page_count"] == 3


def test_embed_scheme_family_mismatch(capsys, tmp_path):
    gp = tmp_path / "c5.json"
    save_graph(cycle(5), gp)
    code, _, _ = run(capsys, "embed", str(gp), "--method", "construction:even-cycle")
    assert code == 2


def test_embed_unknown_scheme_is_usage_error(capsys, tmp_path):
    gp = tmp_path / "c5.json"
    save_graph(cycle(5), gp)
    code, out, err = run(capsys, "embed", str(gp), "--method", "construction:nosuch")
    assert code == 2 and out == ""
    assert "known: auto, complete-congruence" in err


@pytest.mark.parametrize("scheme", ["auto", "solver"])
def test_embed_construction_takes_only_construction_schemes(capsys, tmp_path, scheme):
    # auto and solver are methods of their own, not second spellings of them
    gp = tmp_path / "c4.json"
    save_graph(cycle(4), gp)
    code, out, err = run(capsys, "embed", str(gp), "--method", f"construction:{scheme}")
    assert code == 2 and out == ""
    assert err.startswith(f"error: unknown scheme '{scheme}'") and err.count("\n") == 1
    assert run(capsys, "embed", str(gp), "--method", scheme)[0] == 0


def test_embed_method_help_lists_construction_schemes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # one help line per option
    assert main(["embed", "--help"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if "--method METHOD " in line)
    listed = line.split("construction:<scheme> for a scheme in ", 1)[1].split(", ")
    assert listed == [s for s in constructions.SCHEMES if s != constructions.SCHEME_SOLVER]


@pytest.mark.parametrize(
    "g, method",
    [
        (complete(5), "auto"),
        (cycle(6), "auto"),
        (path(4), "auto"),
        (kpcq(5, 3), "auto"),
        (kpcq(3, 5), "construction:kpcq-odd-direct"),
        (cycle(5), "auto"),
        (complete(4), "solver"),
    ],
    ids=lambda x: getattr(x, "name", x),
)
def test_embed_validates_once(capsys, tmp_path, monkeypatch, g, method):
    calls = []

    def counting(emb):
        calls.append(emb.graph.name)
        return validate(emb)

    for mod in ("layout", "constructions", "cli"):
        monkeypatch.setattr(f"matchbook.{mod}.validate", counting)
    gp = tmp_path / "g.json"
    save_graph(g, gp)
    assert run(capsys, "embed", str(gp), "--method", method)[0] == 0
    assert len(calls) == 1


def test_embedding_file_with_repaired_key_still_verifies(capsys, tmp_path):
    # files written before the fixed-spine repair was removed carry "repaired"
    gp, ep = tmp_path / "g.json", tmp_path / "e.json"
    save_graph(kpcq(5, 3), gp)
    emb = kpcq_embedding(5, 3).embedding
    ep.write_text(dumps({**embedding_to_dict(emb, "kpcq-odd-direct"), "repaired": False}))
    doc = load_embedding(ep)
    assert doc.scheme == "kpcq-odd-direct" and doc.embedding == emb
    code, out, _ = run(capsys, "verify", str(gp), str(ep))
    assert code == 0 and json.loads(out)["valid"]


def test_verify_detects_crossing(capsys, tmp_path):
    from matchbook.graphs import Graph

    g = Graph(4, ((0, 2), (1, 3)))
    gp, ep = tmp_path / "g.json", tmp_path / "e.json"
    save_graph(g, gp)
    save_embedding(BookEmbedding(g, (0, 1, 2, 3), (0, 0), 1), ep)
    code, out, _ = run(capsys, "verify", str(gp), str(ep))
    assert code == 1
    report = json.loads(out)
    assert not report["valid"]
    assert report["violations"] == [
        {"kind": "crossing", "page": 0, "edges": [[0, 2], [1, 3]]}
    ]


def test_verify_rejects_malformed_spine(capsys, tmp_path):
    gp, ep = tmp_path / "g.json", tmp_path / "e.json"
    save_graph(cycle(3), gp)
    doc = embedding_to_dict(BookEmbedding(cycle(3), (0, 1, 2), (0, 1, 2), 3))
    doc["spine"] = [0, 1, 1]
    ep.write_text(dumps(doc))
    assert run(capsys, "verify", str(gp), str(ep))[0] == 2


def test_verify_graph_mismatch(capsys, tmp_path):
    gp, ep = tmp_path / "g.json", tmp_path / "e.json"
    save_graph(cycle(4), gp)
    save_embedding(complete_embedding(3), ep)
    assert run(capsys, "verify", str(gp), str(ep))[0] == 2


def test_solve_c3(capsys, tmp_path):
    gp = tmp_path / "c3.json"
    save_graph(cycle(3), gp)
    code, out, _ = run(capsys, "solve", str(gp))
    assert code == 0
    res = json.loads(out)
    assert res["value"] == 3 and res["exhaustive"]
    assert res["lower_bound"]["reason"] == "regular-nonbipartite"
    assert res["witness"]["page_count"] == 3


def test_solve_k33_with_witness_file(capsys, tmp_path):
    from matchbook.graphs import complete_bipartite

    gp, wp = tmp_path / "g.json", tmp_path / "w.json"
    save_graph(complete_bipartite(3, 3), gp)
    code, out, _ = run(capsys, "solve", str(gp), "-o", str(wp))
    assert code == 0
    assert json.loads(out)["value"] == 3
    assert load_embedding(wp).embedding.page_count == 3


def test_solve_no_symmetry_flag(capsys, tmp_path):
    gp = tmp_path / "c4.json"
    save_graph(cycle(4), gp)
    code, out, _ = run(capsys, "solve", str(gp), "--no-symmetry")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_solve_max_pages_unsolved(capsys, tmp_path):
    gp = tmp_path / "k4.json"
    save_graph(complete(4), gp)
    code, out, _ = run(capsys, "solve", str(gp), "--max-pages", "3")
    assert code == 1
    assert json.loads(out)["value"] is None


@pytest.mark.parametrize("timeout", ["nan", "-1"])
def test_solve_rejects_nan_or_negative_timeout(capsys, tmp_path, timeout):
    # a NaN deadline is never passed, so the solve would run unbounded
    gp = tmp_path / "k4.json"
    save_graph(complete(4), gp)
    code, out, err = run(capsys, "solve", str(gp), "--timeout", timeout)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "timeout" in err


def test_solve_jobs_flag_is_accepted_and_inert(capsys, tmp_path):
    from matchbook.graphs import complete_bipartite

    gp = tmp_path / "k33.json"
    save_graph(complete_bipartite(3, 3), gp)
    results = []
    for jobs in ("1", "4"):
        code, out, _ = run(capsys, "solve", str(gp), "--jobs", jobs)
        doc = json.loads(out)
        del doc["stats"]["elapsed_s"]
        results.append((code, doc))
    assert results[0] == results[1]
    assert results[0][0] == 0


def test_render_roundtrip(capsys, tmp_path):
    gp, ep, sp = tmp_path / "g.json", tmp_path / "e.json", tmp_path / "out.svg"
    save_graph(kpcq(5, 3), gp)
    assert run(capsys, "embed", str(gp), "-o", str(ep))[0] == 0
    code, out, _ = run(capsys, "render", str(ep), "-o", str(sp))
    assert code == 0
    svg = sp.read_text()
    assert svg.count('<circle class="vx"') == 15
    assert svg.count('class="arc"') == 45


def test_render_invalid_needs_force(capsys, tmp_path):
    from matchbook.graphs import Graph

    g = Graph(4, ((0, 2), (1, 3)))
    ep = tmp_path / "e.json"
    save_embedding(BookEmbedding(g, (0, 1, 2, 3), (0, 0), 1), ep)
    assert run(capsys, "render", str(ep))[0] == 1
    code, out, _ = run(capsys, "render", str(ep), "--force")
    assert code == 0
    assert 'class="arc bad"' in out


def test_render_unwritable_path(capsys, tmp_path):
    ep = tmp_path / "e.json"
    save_embedding(complete_embedding(3), ep)
    code, _, _ = run(capsys, "render", str(ep), "-o", str(tmp_path / "no" / "dir" / "x.svg"))
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    assert run(capsys, "solve", "/nonexistent/graph.json")[0] == 2


def test_embed_stdout_is_embedding_doc(capsys, tmp_path):
    gp = tmp_path / "g.json"
    save_graph(complete(4), gp)
    code, out, _ = run(capsys, "embed", str(gp))
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "embedding" and doc["page_count"] == 4


@pytest.mark.parametrize("p", [4, 5, 6])
@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_gen_embed_verify_round_trip_grid(capsys, tmp_path, p, q):
    gp, ep = tmp_path / "g.json", tmp_path / "e.json"
    assert run(capsys, "gen", "--family", "kpcq", "--p", str(p), "--q", str(q), "-o", str(gp))[0] == 0
    code, out, _ = run(capsys, "embed", str(gp), "-o", str(ep))
    assert code == 0
    assert json.loads(out)["page_count"] == p + 2
    assert run(capsys, "verify", str(gp), str(ep))[0] == 0


def test_solve_kpcq_3_3(capsys, tmp_path):
    gp = tmp_path / "g.json"
    save_graph(kpcq(3, 3), gp)
    code, out, _ = run(capsys, "solve", str(gp))
    assert code == 0
    res = json.loads(out)
    assert res["value"] == 5 and res["exhaustive"]


def test_embed_unresolved_and_fallback_solver(capsys, tmp_path):
    # the prism's right factor is an odd cycle, so the product scheme has
    # no dispersable witness: named, it reports unresolved; under auto it
    # falls through to the solver
    left, right, gp = (tmp_path / n for n in ("l.json", "r.json", "g.json"))
    save_graph(complete(2), left)
    save_graph(cycle(3), right)
    assert run(
        capsys, "gen", "--family", "product-of-files",
        "--left", str(left), "--right", str(right), "-o", str(gp),
    )[0] == 0
    code, out, _ = run(capsys, "embed", str(gp), "--method", "construction:product-lemma2.5")
    assert code == 1
    assert json.loads(out)["unresolved"]

    code, out, _ = run(capsys, "embed", str(gp), "--method", "auto")
    assert code == 0
    doc = json.loads(out)
    assert doc["scheme"] == "solver" and doc["page_count"] == 4


def test_product_scheme_under_a_page_cap_below_the_witness_is_unresolved(capsys, tmp_path):
    # K3,3 needs its max degree, 3 pages, to be a witness; under a cap of 2
    # the product scheme has none, which is unresolved, not an error
    left, right, gp = (tmp_path / n for n in ("l.json", "r.json", "g.json"))
    save_graph(complete(5), left)
    save_graph(Graph(6, complete_bipartite(3, 3).edges, name="K3,3"), right)
    assert run(
        capsys, "gen", "--family", "product-of-files",
        "--left", str(left), "--right", str(right), "-o", str(gp),
    )[0] == 0
    code, out, err = run(
        capsys, "embed", str(gp), "--method", "construction:product-lemma2.5", "--max-pages", "2"
    )
    assert code == 1
    assert json.loads(out) == {"unresolved": True, "reason": "right factor admits no dispersable witness"}
    assert err.startswith("unresolved by construction")


@pytest.mark.parametrize("method", ["solver", "auto"])
def test_solver_under_a_page_cap_below_the_answer_is_unresolved(capsys, tmp_path, monkeypatch, method):
    # an untagged K3,3 goes to the solver under either method; it needs 3
    # pages, so under a cap of 2 there is no embedding, which is unresolved
    # on stdout, and auto does not run the solver a second time
    calls = []
    exact_mbt = constructions.solver.exact_mbt
    monkeypatch.setattr(constructions.solver, "exact_mbt", lambda *a: calls.append(a) or exact_mbt(*a))
    gp = tmp_path / "g.json"
    save_graph(Graph(6, complete_bipartite(3, 3).edges, name="K3,3"), gp)
    code, out, err = run(capsys, "embed", str(gp), "--method", method, "--max-pages", "2")
    assert code == 1
    assert json.loads(out) == {
        "unresolved": True, "reason": "exact search found no embedding in 2 pages or fewer"
    }
    assert err.startswith("unresolved by construction")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv", [["embed", "g.json", "--fallback-solver"], ["verify", "g.json", "e.json", "-o", "r.json"]]
)
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_boolean_edge_endpoint_is_usage_error(capsys, tmp_path):
    gp = tmp_path / "g.json"
    gp.write_text('{"type": "graph", "n": 3, "edges": [[0, true], [1, 2]]}')
    code, out, err = run(capsys, "solve", str(gp))
    assert code == 2 and out == "" and "not a pair of integers" in err


def test_boolean_spine_entry_is_usage_error(capsys, tmp_path):
    gp, ep = tmp_path / "g.json", tmp_path / "e.json"
    save_graph(cycle(3), gp)
    doc = embedding_to_dict(BookEmbedding(cycle(3), (0, 1, 2), (0, 1, 2), 3))
    doc["spine"] = [0, True, 2]
    ep.write_text(dumps(doc))
    assert run(capsys, "verify", str(gp), str(ep))[0] == 2


@pytest.mark.parametrize(
    "family", [{"kind": "kpcq", "args": []}, {"kind": "cycle", "args": [3000]}]
)
def test_embed_rejects_false_family_tag(capsys, tmp_path, family):
    gp = tmp_path / "g.json"
    gp.write_text(json.dumps({"type": "graph", "n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "family": family}))
    code, out, err = run(capsys, "embed", str(gp))
    assert code == 2 and out == ""
    assert err.startswith("format error: family") and len(err.strip().splitlines()) == 1


HUGE_EDGELESS = {"n": 2**64, "edges": []}
# 10**12 vertices as the product of K1 and an edgeless right factor: the
# family tag matches the document in closed form and regenerates in O(edges)
HUGE_PRODUCT = {
    "n": 10**12,
    "edges": [],
    "family": {"kind": "product", "left": {"n": 1, "edges": []}, "right": {"n": 10**12, "edges": []}},
}


@pytest.mark.parametrize("command", ["solve", "embed"])
@pytest.mark.parametrize("doc", [HUGE_EDGELESS, HUGE_PRODUCT], ids=["edgeless", "product"])
def test_huge_claimed_graph_is_rejected_at_once(capsys, tmp_path, doc, command):
    gp = tmp_path / "g.json"
    gp.write_text(json.dumps(doc, separators=(",", ":")))
    assert gp.stat().st_size <= 150
    start = time.monotonic()
    code, out, err = run(capsys, command, str(gp))
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "connected" in err


def test_embed_rejects_disconnected_graph_before_any_scheme(capsys, tmp_path):
    # a disconnected product whose right factor has an odd cycle: the
    # product scheme would report it unresolved (exit 1)
    left, right, gp = (tmp_path / n for n in ("l.json", "r.json", "g.json"))
    save_graph(Graph(2, ()), left)
    save_graph(cycle(3), right)
    assert run(
        capsys, "gen", "--family", "product-of-files",
        "--left", str(left), "--right", str(right), "-o", str(gp),
    )[0] == 0
    code, out, err = run(capsys, "embed", str(gp), "--method", "construction:product-lemma2.5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not connected" in err


def test_cli_import_leaves_process_pool_unloaded():
    # neither importing the CLI nor solving with jobs > 1 loads
    # concurrent.futures or starts a child process
    code = (
        "import sys, multiprocessing, matchbook.cli\n"
        "print('concurrent.futures' in sys.modules)\n"
        "from matchbook.graphs import complete_bipartite\n"
        "from matchbook.solver import SolveOptions, exact_mbt\n"
        "assert exact_mbt(complete_bipartite(3, 3), SolveOptions(jobs=2)).value == 3\n"
        "print('concurrent.futures' in sys.modules, multiprocessing.active_children())\n"
    )
    src = str(Path(matchbook.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == ["False", "False []", ""]


def _deep_text(kind, depth, embedding):
    # 100,000 nested arrays, or product family tags nested inside each
    # other's left factor; built as text, since json.dumps would recurse
    if kind == "array":
        text = "[" * depth + "]" * depth
    else:
        head = '{"n":1,"edges":[],"family":{"kind":"product","left":'
        tail = ',"right":{"n":1,"edges":[]}}}'
        text = head * depth + '{"n":1,"edges":[]}' + tail * depth
    if embedding:
        text = f'{{"type":"embedding","graph":{text},"spine":[0],"pages":[],"page_count":0}}'
    return text


def test_gen_product_of_files_keeps_the_product_depth_limit(capsys, tmp_path):
    # a factor is nested one product tag deeper in the product than in its
    # own file, so gen reads it at that depth: a 63-deep factor makes a
    # 64-deep product that loads, a 64-deep one is a format error with
    # nothing written
    k1 = tmp_path / "k1.json"
    save_graph(Graph(1, ()), k1)
    for depth, code in [(63, 0), (64, 2)]:
        factor, gp = tmp_path / f"f{depth}.json", tmp_path / f"g{depth}.json"
        factor.write_text(_deep_text("product", depth, embedding=False))
        got, out, err = run(
            capsys, "gen", "--family", "product-of-files",
            "--left", str(factor), "--right", str(k1), "-o", str(gp),
        )
        assert got == code
        if code == 0:
            assert run(capsys, "solve", str(gp))[0] == 0
        else:
            assert out == "" and not gp.exists()
            assert err == f"format error: product family tags are nested more than {MAX_PRODUCT_DEPTH} deep\n"


@pytest.mark.parametrize("command", ["solve", "embed", "verify", "render"])
@pytest.mark.parametrize(
    "kind, depth",
    [("array", 100_000), ("product", 495), ("product", 400)],
    ids=["array", "product", "product400"],
)
def test_deeply_nested_document_is_a_format_error(capsys, tmp_path, kind, depth, command):
    doc = tmp_path / "deep.json"
    doc.write_text(_deep_text(kind, depth, embedding=command in ("verify", "render")))
    args = [command, str(doc)]
    if command == "verify":
        gp = tmp_path / "g.json"
        save_graph(Graph(1, ()), gp)
        args = [command, str(gp), str(doc)]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("format error: ") and len(err.strip().splitlines()) == 1
