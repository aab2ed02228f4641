import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import matchbook
from matchbook import constructions, solver
from matchbook.cli import main
from matchbook.constructions import complete_embedding, kpcq_embedding
from matchbook.formats import (
    MAX_PRODUCT_DEPTH,
    dumps,
    embedding_to_dict,
    load_embedding,
    load_graph,
    save_embedding,
)
from matchbook.graphs import FAMILIES, Graph, complete, complete_bipartite, cycle, delete_edge, kpcq, path
from matchbook.layout import BookEmbedding, validate
from graph_files import save_graph
from oracles import overfull_count
from test_solver import GOLDEN

CORPUS_FILE = Path(__file__).parent.parent / "perfbench" / "corpus.json"


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
    assert code == 2 and out == "" and err.count("\n") == 1
    known = err.rstrip("\n").split("; known: ", 1)[1].split(", ")
    assert known == [s for s in constructions.SCHEMES if s != constructions.SCHEME_SOLVER]
    # every scheme offered is taken after construction:, though not every one applies to C5
    for scheme in known:
        assert "unknown scheme" not in run(capsys, "embed", str(gp), "--method", f"construction:{scheme}")[2]
    # a method that is neither auto, solver nor construction:<scheme>
    assert run(capsys, "embed", str(gp), "--method", "foo") == (2, "", "error: unknown method 'foo'\n")


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
    assert load_embedding(ep) == emb
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


def test_verify_prints_each_violation_as_its_kind_and_fields(capsys, tmp_path):
    # one crossing and two matching violations on page 0, byte for byte:
    # the report's fields, then per violation its kind and its fields
    g = Graph(4, ((0, 1), (0, 2), (1, 3)))
    gp, ep = tmp_path / "g.json", tmp_path / "e.json"
    save_graph(g, gp)
    save_embedding(BookEmbedding(g, (0, 1, 2, 3), (0, 0, 0), 1), ep)
    code, out, _ = run(capsys, "verify", str(gp), str(ep))
    assert code == 1
    assert out == (
        '{"valid": false, "page_count": 1, "violations": ['
        '{"kind": "crossing", "page": 0, "edges": [[0, 2], [1, 3]]}, '
        '{"kind": "matching", "page": 0, "vertex": 0, "edges": [[0, 1], [0, 2]]}, '
        '{"kind": "matching", "page": 0, "vertex": 1, "edges": [[0, 1], [1, 3]]}]}\n'
    )


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


def test_solve_prints_the_overfull_vertex_set(capsys, tmp_path):
    # K5-e: 9 edges on 5 vertices need 5 matchings of at most 2 edges, one
    # above the max degree; the vertex set is added next to odd_cycle
    gp = tmp_path / "k5e.json"
    save_graph(delete_edge(complete(5), (0, 1)), gp)
    code, out, _ = run(capsys, "solve", str(gp))
    res = json.loads(out)
    assert code == 0 and res["value"] == 5 and res["exhaustive"]
    assert list(res) == ["value", "exhaustive", "lower_bound", "stats", "witness"]
    assert res["lower_bound"] == {
        "value": 5, "reason": "chromatic-index", "max_degree": 4, "regular_degree": None,
        "odd_cycle": None, "overfull": [0, 1, 2, 3, 4], "chromatic_index": 5,
    }
    assert list(res["lower_bound"]) == [
        "value", "reason", "max_degree", "regular_degree", "odd_cycle", "overfull", "chromatic_index",
    ]
    assert list(res["stats"]) == [
        "orders_tested", "nodes", "per_level", "timed_out", "kernel_calls",
        "clique_refuted", "clique_steps", "parity_refuted", "placements", "repaired",
    ]
    # the key is null under every other reason, and the exit codes stay
    save_graph(cycle(5), gp)
    code, out, _ = run(capsys, "solve", str(gp))
    assert code == 0 and json.loads(out)["lower_bound"]["overfull"] is None
    code, out, _ = run(capsys, "solve", str(gp), "--max-pages", "2")
    assert code == 1 and json.loads(out)["lower_bound"]["overfull"] is None


def test_solve_prints_the_first_overfull_set_of_a_tie(capsys, tmp_path):
    # K5-e on 0-4 and K4 on 5-8, joined by (0, 5) and (1, 6): n = 9, m = 17
    # and max degree 4. Peeling counts 5 on all nine vertices and 5 again on
    # {0, ..., 4}; the first H with the largest count is the evidence
    edges = [e for e in combinations(range(5), 2) if e != (0, 1)]
    edges += [(u + 5, v + 5) for u, v in combinations(range(4), 2)] + [(0, 5), (1, 6)]
    g = Graph(9, edges)
    assert (g.m, overfull_count(g, tuple(range(9))), overfull_count(g, tuple(range(5)))) == (17, 5, 5)
    cert = solver.lower_bound(g)
    assert (cert.value, cert.reason, cert.overfull) == (5, "chromatic-index", tuple(range(9)))
    gp = tmp_path / "tie.json"
    save_graph(g, gp)
    code, out, _ = run(capsys, "solve", str(gp))
    assert code == 0 and json.loads(out)["lower_bound"]["overfull"] == list(cert.overfull)


def test_solve_k33_with_witness_file(capsys, tmp_path):
    from matchbook.graphs import complete_bipartite

    gp, wp = tmp_path / "g.json", tmp_path / "w.json"
    save_graph(complete_bipartite(3, 3), gp)
    code, out, _ = run(capsys, "solve", str(gp), "-o", str(wp))
    assert code == 0
    assert json.loads(out)["value"] == 3
    assert load_embedding(wp).page_count == 3


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


@pytest.mark.parametrize(
    "cmd", [["solve"], ["embed"], ["embed", "--method", "construction:complete-congruence"]], ids=" ".join
)
def test_negative_max_pages_is_a_usage_error(capsys, tmp_path, cmd):
    # checked before any scheme runs, so a construction rejects it too
    gp = tmp_path / "k4.json"
    save_graph(complete(4), gp)
    code, out, err = run(capsys, *cmd, str(gp), "--max-pages", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "max pages" in err


def test_a_timed_out_solve_keeps_the_page_cap(capsys, tmp_path):
    # R7-267 needs 5 pages and its greedy embedding 8; a solve that times
    # out under a cap of 5 has no embedding within the cap to write
    entry = next(e for e in json.loads(CORPUS_FILE.read_text())["solve-refute"] if e["name"] == "R7-267")
    gp, ep = tmp_path / "g.json", tmp_path / "e.json"
    save_graph(Graph(entry["n"], tuple(map(tuple, entry["edges"])), name="R7-267"), gp)
    cap = ["--max-pages", "5", "--timeout", "0", "-o", str(ep)]
    code, out, err = run(capsys, "embed", str(gp), "--method", "solver", *cap)
    assert code == 1 and json.loads(out) == {
        "unresolved": True, "reason": "exact search timed out before finding an embedding in 5 pages or fewer"
    }
    assert err.startswith("unresolved: ") and not ep.exists()
    code, out, _ = run(capsys, "solve", str(gp), *cap)
    doc = json.loads(out)
    assert code == 1 and (doc["value"], doc["witness"], doc["exhaustive"]) == (None, None, False)
    assert doc["stats"]["timed_out"] and not ep.exists()


def test_a_construction_above_the_page_cap_is_unresolved(capsys, tmp_path):
    # the congruence scheme embeds K5 in 5 pages; under a cap of 4 the named
    # scheme is unresolved, and auto falls through to the solver, which
    # finds no embedding within the cap either
    gp, ep = tmp_path / "k5.json", tmp_path / "e.json"
    assert run(capsys, "gen", "--family", "complete", "--n", "5", "-o", str(gp))[0] == 0
    cap = ["--max-pages", "4", "-o", str(ep)]
    code, out, _ = run(capsys, "embed", str(gp), "--method", "construction:complete-congruence", *cap)
    assert code == 1 and not ep.exists()
    assert json.loads(out) == {
        "unresolved": True, "reason": "scheme complete-congruence needs 5 pages, over the cap of 4"
    }
    code, out, _ = run(capsys, "embed", str(gp), *cap)
    assert code == 1 and not ep.exists()
    assert json.loads(out)["reason"] == "exact search found no embedding in 4 pages or fewer"
    code, out, _ = run(capsys, "embed", str(gp), "--max-pages", "5", "-o", str(ep))
    assert code == 0 and json.loads(out)["scheme"] == "complete-congruence"


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
    code, out, err = run(capsys, "solve", "/nonexistent/graph.json")
    assert (code, out) == (2, "") and err.startswith("io error: ") and err.count("\n") == 1
    # --quiet drops the one diagnostic, and the exit code stays
    assert run(capsys, "solve", "/nonexistent/graph.json", "--quiet") == (2, "", "")


def test_embed_stdout_is_embedding_doc(capsys, tmp_path):
    gp = tmp_path / "g.json"
    save_graph(complete(4), gp)
    code, out, _ = run(capsys, "embed", str(gp))
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "embedding" and doc["page_count"] == 4


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["gen", "--family", "kpcq", "--p", "4", "--q", "3"], 0, id="gen"),
        pytest.param(["gen", "--family", "kpcq", "--p", "4", "--q", "3", "-o", "out.json"], 0, id="gen-o"),
        pytest.param(["embed", "k.json"], 0, id="embed"),
        pytest.param(["embed", "k.json", "-o", "out.json"], 0, id="embed-o"),
        pytest.param(["embed", "c5.json", "--max-pages", "2"], 1, id="embed-unresolved"),
        pytest.param(["verify", "k.json", "e.json"], 0, id="verify"),
        pytest.param(["solve", "c5.json"], 0, id="solve"),
        pytest.param(["solve", "c5.json", "-o", "out.json"], 0, id="solve-o"),
        pytest.param(["render", "e.json", "-o", "out.svg"], 0, id="render-o"),
    ],
)
def test_each_result_is_one_ascii_json_line(capsys, tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    save_graph(kpcq(4, 3), "k.json")
    save_embedding(kpcq_embedding(4, 3).embedding, "e.json")
    save_graph(Graph(5, cycle(5).edges), "c5.json")
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert out.isascii() and out.endswith("\n") and out.count("\n") == 1
    assert isinstance(json.loads(out), dict)
    if argv[-1] == "out.json":
        text = (tmp_path / "out.json").read_text()
        assert text.isascii() and text.endswith("\n") and text.count("\n") == 1
        assert isinstance(json.loads(text), dict)


def test_gen_and_embed_print_a_product_name_on_an_ascii_stdout(tmp_path):
    # the name K5□K3,3 is escaped in the JSON, so an ASCII stdout takes it
    save_graph(complete(5), tmp_path / "l.json")
    save_graph(complete_bipartite(3, 3), tmp_path / "r.json")
    env = {**os.environ, "PYTHONPATH": str(Path(matchbook.__file__).parent.parent), "PYTHONIOENCODING": "ascii"}

    def cli(*argv):
        out = subprocess.run(
            [sys.executable, "-m", "matchbook", *argv], cwd=tmp_path, env=env, capture_output=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    text = cli("gen", "--family", "product-of-files", "--left", "l.json", "--right", "r.json")
    (tmp_path / "g.json").write_bytes(text)
    assert json.loads(text)["name"] == json.loads(cli("embed", "g.json"))["graph"]["name"] == "K5□K3,3"


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
    assert res["exhaustive"]
    # no prefix is settled by a repaired colouring any more; the key stays
    stats = res["stats"]
    assert stats.pop("repaired") == 0
    # every other counter as pinned for the corpus's K3xC3, which is kpcq(3, 3)
    stats["per_level"] = {int(k): v for k, v in stats["per_level"].items()}
    assert (res["value"], tuple(res["witness"]["spine"]), *stats.values()) == GOLDEN["K3xC3"]


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
    assert err.startswith("unresolved: ")


@pytest.mark.parametrize("method", ["solver", "auto"])
def test_solver_under_a_page_cap_below_the_answer_is_unresolved(capsys, tmp_path, monkeypatch, method):
    # an untagged K3,3 goes to the solver under either method; it needs 3
    # pages, so under a cap of 2 there is no embedding, which is unresolved
    # on stdout, and auto does not run the solver a second time
    calls = []
    exact_mbt = solver.exact_mbt
    monkeypatch.setattr(solver, "exact_mbt", lambda *a: calls.append(a) or exact_mbt(*a))
    gp = tmp_path / "g.json"
    save_graph(Graph(6, complete_bipartite(3, 3).edges, name="K3,3"), gp)
    code, out, err = run(capsys, "embed", str(gp), "--method", method, "--max-pages", "2")
    assert code == 1
    assert json.loads(out) == {
        "unresolved": True, "reason": "exact search found no embedding in 2 pages or fewer"
    }
    assert err.startswith("unresolved: ")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "g.json", "--fallback-solver"],
        ["verify", "g.json", "e.json", "-o", "r.json"],
        ["solve", "g.json", "--jobs", "2"],
        ["embed", "g.json", "--jobs", "2"],
        ["solve", "g.json", "--no-symmetry"],
        ["embed", "g.json", "--no-symmetry"],
    ],
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


# runs `python -m matchbook ARGV` in this interpreter and prints its exit code
# and the modules the command loaded beyond the interpreter's own start-up
LOAD_PROBE = (
    "import contextlib, io, json, runpy, sys\n"
    "before = set(sys.modules)\n"
    "sys.argv[0] = 'matchbook'\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    try:\n"
    "        runpy.run_module('matchbook', run_name='__main__', alter_sys=True)\n"
    "    except SystemExit as exc:\n"
    "        code = exc.code\n"
    "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
)


def _loaded_by(argv, cwd):
    src = str(Path(matchbook.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "argv, loads",
    [
        pytest.param(["gen", "--family", "kpcq", "--p", "4", "--q", "3"], set(), id="gen"),
        pytest.param(["verify", "k.json", "e.json"], set(), id="verify"),
        pytest.param(["render", "e.json"], {"render"}, id="render"),
        pytest.param(["embed", "k.json"], {"constructions"}, id="embed-kpcq"),
        pytest.param(["embed", "c5.json"], {"constructions", "solver"}, id="embed-by-solver"),
        pytest.param(["solve", "c5.json"], {"solver"}, id="solve"),
        pytest.param(["solve", "c5.json", "-o", "c5.emb.json"], {"solver"}, id="solve-o"),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loads):
    # a fresh interpreter per command: gen and verify need no construction,
    # solver or renderer, an embedding by a construction needs no solver, a
    # solve that writes its witness needs no construction, and no command
    # builds its records through dataclasses
    save_graph(kpcq(4, 3), tmp_path / "k.json")
    save_embedding(kpcq_embedding(4, 3).embedding, tmp_path / "e.json")
    save_graph(Graph(5, cycle(5).edges), tmp_path / "c5.json")  # untagged: the solver embeds it
    code, new = _loaded_by(argv, tmp_path)
    assert code == 0
    assert {m.split(".", 1)[1] for m in new if m.startswith("matchbook.")} & {
        "constructions", "solver", "render"
    } == loads
    assert "dataclasses" not in new


def test_importing_the_package_loads_no_submodule():
    code = "import sys, matchbook\nprint(sorted(m for m in sys.modules if m.startswith('matchbook')))\n"
    src = str(Path(matchbook.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "['matchbook']\n"


def test_misfiring_construction_is_a_construction_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(constructions, "_direct_page", lambda p, q, u, v: 0)
    gp = tmp_path / "g.json"
    save_graph(kpcq(3, 3), gp)
    code, out, err = run(capsys, "embed", str(gp))
    assert code == 1 and out == ""
    assert err.startswith("construction error: scheme kpcq-odd-direct produced ")


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
            # each level nests the output deeper, so stdout stays linear in
            # the input only as one line: under 3x the compact 64-deep text
            limit = 3 * len(_deep_text("product", MAX_PRODUCT_DEPTH, embedding=False))
            for command in ("solve", "embed"):
                got, out, _ = run(capsys, command, str(gp))
                assert got == 0 and len(out) < limit, command
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
