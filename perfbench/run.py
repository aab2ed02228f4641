#!/usr/bin/env python3
"""Benchmark for matchbook: its exact solver and its polynomial shell.

Usage, from the root of a checkout (standard library only):
  python3 perfbench/run.py --workload solve-refute --seed 1 --seconds 20 --trace 0

Workloads (one at a time; the solve workloads add two pool workers):
  solve-refute  exact_mbt(g, SolveOptions(jobs=2)) in-process on six graphs
                whose answer is one above the certified lower bound, so every
                pass refutes 83,220 spine orders whatever the labels; stresses
                the scan, the colouring kernel and the worker pool.
  solve-find    exact_mbt(g, SolveOptions(jobs=2)) on thirteen graphs whose
                answer is the bound; every pass relabels them afresh from the
                seed, so the weight is on the bounds and on the time to the
                first feasible order. It runs at jobs=2 because on a shared
                2-core host serial solves drift with the host's speed (runs
                of ten seeds spread by 0.21-0.51 of their median), while
                passes that keep both cores busy hold within about 0.1.
  shell-kpcq    gen -> embed -> verify -> render through matchbook.cli.main in
                a fresh child process per pass, on K_p x C_q with odd and even
                q at m ~ 14,400 edges, and on K20 x K4,4 from files; the
                polynomial shell with almost no solver work. It is run by
                hand and is not in BENCHMARK.json: on a shared 2-core host
                its serial passes drift with the host's speed, and runs of
                ten seeds spread by 0.12-0.42 of their median, over the
                0.25 bound, also with two clients at once.
  cli-small     whole-process `python -m matchbook` commands on small inputs,
                the only workload where interpreter start and import show.

A run sets up --seed's inputs seven times, then runs a fixed number of
passes over all of the workload's tasks, as many as fill about --seconds on
the reference host (see PASSES), and checks every output with
perfbench/check.py, which imports nothing from matchbook. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  wall_s        median wall time of one pass over all tasks
  task_p50_ms   median latency of one task (an exact_mbt call, an in-process
                CLI call, or one CLI process)
  task_tail_ms  the highest percentile of task latency that has at least ten
                samples beyond it; which percentile it is is printed above
  setup_s       median over the set-ups of generating and writing the inputs
                plus a fresh interpreter importing matchbook.cli
  peak_rss_mb   peak resident memory of the processes doing the work
fail_rate (failed / attempted) is printed above and carried by the JSON's
failed and attempted counts.

--trace 1 runs pass 0 as above, then twice over, alternating, pass 0
untraced and pass 0 with spans around every layer's public functions, both
serially for the solve workloads, where pool workers would hide the spans.
It reports the per-layer metrics of the last traced pass: each layer's
calls, busy and self time and the named layer metrics of
perfbench/tracer.py, with the pool speedup, the CLI start-up costs and the
tracing overhead (median traced minus median untraced pass time; host noise
can make it negative, and in cli-small, whose traced commands start through
perfbench/child.py instead of `python -m matchbook`, so can the different
start-up). Its spans are written to
.perfbench/trace-<workload>-<seed>.jsonl at exit.

Every run also records, in .perfbench/runs/, a fixed calibration loop timed
before and after every pass, which tells a slow phase of the host apart
from a change in the program. Machine-independent counters (spine orders,
kernel nodes and outcomes, validate calls and pairs, output digests) must
repeat exactly between passes on the same inputs and between runs of the
same seed on the same code; a mismatch is reported as a determinism defect
and fails the run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import check  # noqa: E402
from tracer import LAYERS, Tracer, install, layer_metrics  # noqa: E402

ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
ENV = dict(os.environ, PYTHONPATH="src")
SETUP_REPS = 7
TRACE_PAIRS = 2
# every task's timeout is cut to what is left of this budget, so that a run
# of a hanging or very slow program still ends, as failed, within 180 s
BUDGET_S = 165
START = perf_counter()
CLI_KINDS = ("gen", "embed", "verify", "render", "solve")
# counters that must repeat exactly; everything else in a traced run is a time
TRACE_COUNTERS = (
    "solver.scan.orders", "solver.scan.refuted_orders", "solver.masks.calls",
    "solver.kernel.calls", "solver.kernel.nodes", "solver.kernel.found",
    "solver.kernel.infeasible", "solver.kernel.unknown", "solver.lower_bound.chi_nodes",
    "solver.lower_bound.chi_out_of_budget", "layout.validate.calls",
    "layout.validate.pairs", "formats.bytes", "render.bytes",
    *(f"{layer}.calls" for layer in LAYERS),
)
END_TO_END = {"wall_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    "solver.scan.orders": "count", "solver.scan.refuted_orders": "count",
    "solver.scan.orders_per_s": "1/s", "solver.scan.s": "s",
    "solver.masks.calls": "count", "solver.masks.s": "s",
    "solver.kernel.calls": "count", "solver.kernel.s": "s", "solver.kernel.nodes": "count",
    "solver.kernel.found": "count", "solver.kernel.infeasible": "count",
    "solver.kernel.unknown": "count", "solver.kernel.decided_ratio": "ratio",
    "solver.pool.speedup": "ratio",
    "solver.lower_bound.s": "s", "solver.lower_bound.chi_nodes": "count",
    "solver.lower_bound.chi_out_of_budget": "count", "solver.upper_bound.s": "s",
    "constructions.kpcq.s": "s", "constructions.product.s": "s",
    "constructions.witness.s": "s", "constructions.auto.s": "s",
    "layout.validate.calls": "count", "layout.validate.pairs": "count", "layout.validate.s": "s",
    "formats.load.s": "s", "formats.dump.s": "s", "formats.bytes": "bytes",
    "render.svg.s": "s", "render.bytes": "bytes", "graphs.build.s": "s",
    "cli.interp_ms": "ms", "cli.import_ms": "ms",
    **{f"cli.{kind}.ms": "ms" for kind in CLI_KINDS},
    "trace.overhead_s": "s",
}


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t = perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return perf_counter() - t


def time_left() -> float:
    return max(1.0, START + BUDGET_S - perf_counter())


def run_timed(cmd: list[str]):
    """(wall time, completed process); a child still running when the
    budget is spent is killed and reported with exit code -9."""
    t = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=time_left())
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(cmd, -9, "", "timed out")
    return perf_counter() - t, proc


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def new_pass(inputs: int) -> dict:
    """A pass's record; ``inputs`` names the input set it ran on."""
    return {"inputs": inputs, "wall_s": 0.0, "tasks": [], "failures": {}, "counters": {},
            "spans": None, "solve_s": 0.0}


# in-process solve workloads


class Solve:
    # both solve workloads keep the two cores busy; see the module docstring
    jobs = 2

    def __init__(self, name: str, fresh_labels: bool):
        self.name = name
        # solve-find relabels every pass, drawing from each graph's pool of
        # labellings of typical cost (see make_corpus.py), so that a run
        # averages over many labellings and its cost does not swing with them
        self.fresh_labels = fresh_labels

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.corpus = json.loads((HERE / "corpus.json").read_text())[self.name]
        self.inputs(0)

    def inputs(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        out = []
        for e in self.corpus:
            if "labellings" in e:
                perm = rng.choice(e["labellings"])
            else:
                perm = list(range(e["n"]))
                rng.shuffle(perm)
            edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in e["edges"])
            out.append((e, edges))
        return out

    def run_pass(self, i: int, tracer: Tracer | None = None, jobs: int | None = None) -> dict:
        from matchbook import solver
        from matchbook.graphs import Graph

        res = new_pass(i if self.fresh_labels else 0)
        restore = install(tracer) if tracer else None
        runs = []
        start = perf_counter()
        try:
            for k, (e, edges) in enumerate(self.inputs(res["inputs"])):
                if tracer:
                    tracer.task = k
                with tracer.span("graphs.build") if tracer else nullcontext():
                    g = Graph(e["n"], edges)
                opts = solver.SolveOptions(jobs=jobs or self.jobs, timeout_s=time_left())
                t = perf_counter()
                try:
                    out = solver.exact_mbt(g, opts)
                except Exception as exc:  # a crash fails the task, not the run
                    out = exc
                res["tasks"].append((e["name"], perf_counter() - t))
                runs.append((e, edges, out))
        finally:
            if restore:
                restore()
        res["wall_s"] = perf_counter() - start
        for k, (e, edges, out) in enumerate(runs):
            if isinstance(out, Exception):
                res["failures"][k] = f"{e['name']}: raised {out!r}"
                continue
            res["solve_s"] += out.stats.elapsed_s
            res["counters"][e["name"]] = [out.stats.orders_tested, out.stats.nodes, sorted(out.stats.per_level.items())]
            problems = self.check(e, edges, out)
            if problems:
                res["failures"][k] = f"{e['name']}: {'; '.join(problems[:3])}"
        if tracer:
            res["spans"] = tracer.spans
        return res

    @staticmethod
    def check(e: dict, edges, out) -> list[str]:
        problems = []
        if out.value != e["mbt"] or not out.exhaustive:
            problems.append(f"value {out.value} (exhaustive {out.exhaustive}), expected {e['mbt']}")
        if (out.bound.value, out.bound.reason) != (e["lower_bound"], e["bound_reason"]):
            problems.append(f"bound {out.bound.value} ({out.bound.reason})")
        refuted = sum(c for k, c in out.stats.per_level.items() if k < e["mbt"])
        if refuted != e["refuted_orders"]:
            problems.append(f"refuted {refuted} orders, expected {e['refuted_orders']}")
        w = out.witness
        if w is None or list(w.graph.edges) != edges or w.page_count != e["mbt"]:
            problems.append("witness missing, for another graph, or with the wrong page count")
        else:
            problems += check.check_embedding(e["n"], edges, list(w.spine), list(w.pages), w.page_count)
        return problems


# CLI workloads

kpcq_edges = functools.cache(check.kpcq_edges)
product_edges = functools.cache(check.product_edges)
K44 = tuple(check.complete_bipartite_edges(4, 4))
K33 = tuple(check.complete_bipartite_edges(3, 3))
C5 = tuple(check.cycle_edges(5))


def nearest_q(p: int, parity: int, m: int = 14_415) -> int:
    """The q of that parity whose K_p x C_q has the edge count nearest m, so
    every seed's instances are of the scale of K30 x C31."""
    col = p * (p + 1) // 2
    return min((q for q in range(3, 200) if q % 2 == parity), key=lambda q: (abs(q * col - m), q))


class Cli:
    def __init__(self, name: str, in_process: bool):
        self.name = name
        self.in_process = in_process

    def setup(self, seed: int, work: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.svg_digest: dict[str, str] = {}
        if self.in_process:
            p = rng.randint(26, 30)
            kp = [(p, nearest_q(p, 1)), (p, nearest_q(p, 0))]
            left, right = 20, ("K4,4", 8, K44, 4)
        else:
            kp = [(rng.randint(4, 6), rng.choice((3, 5)))]
            left, right = 5, ("K3,3", 6, K33, 3)
        # the left factor carries its family tag, so embed uses the congruence
        # scheme; the right factor has none, so witness_for runs a small solve
        rname, rn, redges, rdeg = right
        ldoc = check.graph_doc(f"K{left}", left, check.complete_edges(left))
        ldoc["family"] = {"kind": "complete", "args": [left]}
        self.write("left.json", ldoc)
        self.write("right.json", check.graph_doc(rname, rn, redges))
        self.commands: list[tuple] = []
        for p, q in kp:
            self.commands += self.pipeline(work / f"K{p}xC{q}", ["--family", "kpcq", "--p", str(p), "--q", str(q)],
                                           p * q, functools.partial(kpcq_edges, p, q), p + 2)
        self.commands += self.pipeline(
            work / f"K{left}x{rname}",
            ["--family", "product-of-files", "--left", str(work / "left.json"), "--right", str(work / "right.json")],
            left * rn,
            functools.partial(product_edges, left, tuple(check.complete_edges(left)), rn, redges),
            left + rdeg,  # congruence pages for K_p, one per degree of the witness
            # an odd task count per pass in shell-kpcq keeps its median on
            # one input (see pass_count); cli-small only needs the product
            steps=("gen", "embed", "render") if self.in_process else ("gen", "embed"),
        )
        if not self.in_process:
            self.write("c5.json", check.graph_doc("C5", 5, C5))
            self.commands.append(self.solve(work / "c5.json", 5, C5, 3))
            self.commands.append(self.solve(work / "right.json", rn, redges, rdeg))

    def write(self, name: str, doc: dict) -> None:
        (self.work / name).write_text(json.dumps(doc))

    def pipeline(self, stem: Path, gen_args, n, edges, pages,
                 steps=("gen", "embed", "verify", "render")) -> list[tuple]:
        g, e, svg = (f"{stem}.{ext}" for ext in ("graph.json", "emb.json", "svg"))
        load = lambda path: json.loads(Path(path).read_text())  # noqa: E731
        verified = {"valid": True, "page_count": pages, "violations": []}
        commands = {
            "gen": (["gen", *gen_args, "-o", g], lambda out: check.check_graph_doc(load(g), n, edges())),
            "embed": (["embed", g, "-o", e], lambda out: check.check_embedding_doc(load(e), n, edges(), pages)),
            "verify": (["verify", g, e],
                       lambda out: [] if json.loads(out) == verified else ["verify rejected the embedding"]),
            "render": (["render", e, "-o", svg], lambda out: self.check_svg(Path(svg), len(edges()))),
        }
        return [(step, *commands[step]) for step in steps]

    @staticmethod
    def solve(path: Path, n: int, edges, value: int) -> tuple:
        def check_solve(out):
            doc = json.loads(out)
            if doc.get("value") != value or doc.get("exhaustive") is not True:
                return [f"solve {path.name} gave {doc.get('value')}, expected {value}"]
            return check.check_embedding_doc(doc.get("witness"), n, edges, value)

        return ("solve", ["solve", str(path)], check_solve)

    def check_svg(self, path: Path, m: int) -> list[str]:
        """Shape of the SVG, and the same bytes in every pass."""
        problems = check.check_svg(path.read_text(), m)
        now = digest(path)
        if self.svg_digest.setdefault(path.name, now) != now:
            problems.append("SVG bytes differ from an earlier pass")
        return problems

    def run_pass(self, i: int, tracer: Tracer | None = None, jobs: int | None = None) -> dict:
        res = new_pass(0)
        trace = tracer is not None
        if self.in_process:
            wall, doc, err = self.child([argv for _kind, argv, _check in self.commands], trace)
            res["wall_s"] = doc["wall_s"] if doc else wall
            results = ([(t["rc"], t["s"], t["stdout"], "") for t in doc["tasks"]] if doc
                       else [(-1, wall, "", err)] * len(self.commands))
            spans = [doc["spans"]] if doc and trace else []
        else:
            results, spans = [], []
            start = perf_counter()
            for _kind, argv, _check in self.commands:
                if trace:
                    wall, doc, err = self.child([argv], True)
                    t = doc["tasks"][0] if doc else {"rc": -1, "s": wall, "stdout": ""}
                    results.append((t["rc"], t["s"], t["stdout"], err))
                    spans.append(doc["spans"] if doc else [])
                else:
                    dt, proc = run_timed([sys.executable, "-m", "matchbook", *argv])
                    results.append((proc.returncode, dt, proc.stdout, proc.stderr))
            res["wall_s"] = perf_counter() - start
        if trace:
            res["spans"] = merge_spans(spans)
        for k, ((kind, argv, check_fn), (rc, dt, out, err)) in enumerate(zip(self.commands, results)):
            res["tasks"].append((kind, dt))
            try:
                problems = [f"exit {rc}: {err.strip()}"] if rc != 0 else check_fn(out)
            except (OSError, ValueError) as exc:
                problems = [f"unreadable output: {exc}"]
            if problems:
                res["failures"][k] = f"{argv[0]} {argv[-1]}: {'; '.join(problems[:3])}"
                continue
            target = Path(argv[-1])
            key = f"{kind}:{target.name}"
            if kind == "solve":
                stats = json.loads(out)["stats"]
                res["counters"][key] = [stats["orders_tested"], stats["nodes"]]
            else:
                res["counters"][key] = out if kind == "verify" else digest(target)
        return res

    def child(self, argvs: list[list[str]], trace: bool) -> tuple:
        """Run the commands in one child.py process; (wall, its result
        document or None when it failed, its stderr)."""
        tasks, result = self.work / "child.tasks.json", self.work / "child.result.json"
        tasks.write_text(json.dumps(argvs))
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(tasks), str(result)] + (["--trace"] if trace else [])
        wall, proc = run_timed(cmd)
        if proc.returncode != 0:
            return wall, None, proc.stderr.strip()[-2000:]
        return wall, json.loads(result.read_text()), ""


def merge_spans(span_lists: list[list[list]]) -> list[list]:
    """One span list from several processes' lists, parents re-indexed."""
    merged: list[list] = []
    for spans in span_lists:
        base = len(merged)
        merged += [[s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4], s[5]] for s in spans]
    return merged


WORKLOADS = {
    "solve-refute": lambda: Solve("solve-refute", fresh_labels=False),
    "solve-find": lambda: Solve("solve-find", fresh_labels=True),
    "shell-kpcq": lambda: Cli("shell-kpcq", in_process=True),
    "cli-small": lambda: Cli("cli-small", in_process=False),
}
# passes per 20 s, about 20 s of work each on a 2-core x86-64 host
PASSES = {"solve-refute": 3, "solve-find": 7, "shell-kpcq": 7, "cli-small": 15}


def pass_count(workload: str, seconds: float) -> int:
    """The odd number of passes nearest to PASSES scaled to ``seconds``.

    The count is fixed before measuring, never taken from the clock. A
    workload's task latencies fall into groups, one per task of a pass, and
    a percentile's rank must land inside the same group in every run. With
    T tasks per pass and P passes, the median of an odd T*P is the middle
    sample of a group, and the tail's rank T*P - 11 sits at position
    -11 mod P of its group, which is the middle one for P = 3 and P = 7.
    """
    return max(1, 2 * round((PASSES[workload] * seconds / 20 - 1) / 2) + 1)


# measurement


def set_up(wl, seed: int, work: Path) -> tuple[float, list[float]]:
    """Median set-up time over SETUP_REPS set-ups, and the import times."""
    totals, imports = [], []
    for _ in range(SETUP_REPS):
        t = perf_counter()
        wl.setup(seed, work)
        gen_s = perf_counter() - t
        imp_s, proc = run_timed([sys.executable, "-c", "import matchbook.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import matchbook: {proc.stderr.strip()}")
        totals.append(gen_s + imp_s)
        imports.append(imp_s)
    return statistics.median(totals), imports


def timed_pass(wl, i: int, **kw) -> dict:
    before = calibrate()
    res = wl.run_pass(i, **kw)
    res["calibration_s"] = [before, calibrate()]
    return res


def tail(lat: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it; the maximum when there are fewer than 11."""
    lat = sorted(lat)
    j = len(lat) - 11 if len(lat) > 10 else len(lat) - 1
    return lat[j], 100.0 * (j + 1) / len(lat), len(lat) - 1 - j


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "matchbook").glob("*.py")) + sorted(HERE.glob("*.py")) + [HERE / "corpus.json"]:
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def determinism(workload: str, seed: int, counters: dict[str, object]) -> list[str]:
    """Compare counters with earlier runs of this seed on this code, keyed by
    input set or 'trace'; returns the mismatches."""
    path = STATE / "counters" / f"{workload}-{seed}-{code_hash()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    bad = [f"{key} counters differ from an earlier run" for key, value in counters.items()
           if key in stored and stored[key] != json.loads(json.dumps(value))]
    stored.update(counters)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored))
    return bad


def end_to_end(wl, passes: list[dict], setup_s: float) -> dict[str, float]:
    lat = [sec for p in passes for _kind, sec in p["tasks"]]
    value, pct, beyond = tail(lat)
    print(f"  task_tail_ms is p{pct:.1f} of {len(lat)} task latencies ({beyond} beyond it)")
    # the CLI workloads work in child processes; a solve works in this one
    # and, at jobs=2, in its pool's workers
    who = [resource.RUSAGE_CHILDREN] + ([] if isinstance(wl, Cli) else [resource.RUSAGE_SELF])
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "task_p50_ms": statistics.median(lat) * 1000,
        "task_tail_ms": value * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": max(resource.getrusage(w).ru_maxrss for w in who) / 1024,
    }


def per_layer(passes: list[dict], metrics: dict, import_walls: list[float], pool: bool) -> dict[str, float]:
    """Adds to the traced passes' layer metrics what is measured around
    them: passes are pass 0 as measured, then serial untraced and traced
    pass 0 in turn."""
    untraced, serial, traced = passes[0], passes[1::2], passes[2::2]
    serial_s = statistics.median(p["wall_s"] for p in serial)
    traced_s = statistics.median(p["wall_s"] for p in traced)
    interp = [run_timed([sys.executable, "-c", "pass"])[0] for _ in range(SETUP_REPS)]
    metrics["solver.pool.speedup"] = (
        statistics.median(p["solve_s"] for p in serial) / untraced["solve_s"] if pool else 0.0)
    metrics["trace.overhead_s"] = traced_s - serial_s
    metrics["cli.interp_ms"] = statistics.median(interp) * 1000
    metrics["cli.import_ms"] = (statistics.median(import_walls) - statistics.median(interp)) * 1000
    for kind in CLI_KINDS:
        ks = [sec for k, sec in untraced["tasks"] if k == kind]
        metrics[f"cli.{kind}.ms"] = statistics.median(ks) * 1000 if ks else 0.0
    print(f"  {'layer':<14}{'calls':>10}{'busy_s':>12}{'self_s':>12}")
    for layer in LAYERS:
        print(f"  {layer:<14}{metrics[layer + '.calls']:>10}"
              f"{metrics[layer + '.busy_s']:>12.4f}{metrics[layer + '.self_s']:>12.4f}")
    print(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s "
          f"(median traced pass {traced_s:.4f} s, untraced {serial_s:.4f} s)")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="matchbook benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "matchbook" / "__init__.py").is_file():
        print("perfbench: run from the root of a matchbook checkout (no src/matchbook here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload]()
    setup_s, import_walls = set_up(wl, args.seed, STATE / "work" / f"{args.workload}-{args.seed}")
    if args.trace:
        passes = [timed_pass(wl, 0)]
        for _ in range(TRACE_PAIRS):
            passes.append(timed_pass(wl, 0, jobs=1))
            passes.append(timed_pass(wl, 0, tracer=Tracer(), jobs=1))
    else:
        passes = [timed_pass(wl, i) for i in range(pass_count(args.workload, args.seconds))]

    attempted = sum(len(p["tasks"]) for p in passes)
    failures = [msg for p in passes for msg in p["failures"].values()]
    # the same inputs must give the same counters, within a run and across
    # runs of this seed on this code
    first: dict[int, dict] = {}
    defects = [f"pass {i} counters differ from an earlier pass on the same inputs"
               for i, p in enumerate(passes) if first.setdefault(p["inputs"], p["counters"]) != p["counters"]]
    counters = {f"inputs {k}": v for k, v in first.items()}
    if args.trace:
        for j, p in enumerate(passes[2::2]):
            layers = layer_metrics(p["spans"])
            traced = {k: layers[k] for k in TRACE_COUNTERS}
            if counters.setdefault("trace", traced) != traced:
                defects.append(f"traced pass {j} layer counters differ from the first traced pass")
            if p is not passes[-1]:
                p["spans"] = None
    defects += determinism(args.workload, args.seed, counters)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, {attempted} tasks")
    for msg in failures:
        print(f"  FAILED {msg}")
    for msg in defects:
        print(f"  DETERMINISM DEFECT: {msg}")
    cal = [round(c * 1000, 2) for p in passes for c in p["calibration_s"]]
    print(f"  calibration loop ms (before/after each pass): {cal}")
    print(f"  fail_rate {len(failures) / attempted:.4f} ({len(failures)}/{attempted})")
    if args.trace:
        metrics, units = per_layer(passes, layers, import_walls, isinstance(wl, Solve)), PER_LAYER
        with open(STATE / f"trace-{args.workload}-{args.seed}.jsonl", "w") as f:
            for span in passes[-1]["spans"]:
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "task", "info"), span))) + "\n")
    else:
        metrics, units = end_to_end(wl, passes, setup_s), END_TO_END
    for name in units:
        print(f"  {name:<40}{metrics[name]:>16.6g} {units[name]}")

    run_doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "setup_s": setup_s,
               "passes": [{k: p[k] for k in ("wall_s", "calibration_s", "failures", "tasks")} for p in passes],
               "metrics": metrics, "defects": defects}
    (STATE / "runs").mkdir(parents=True, exist_ok=True)
    (STATE / "runs" / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(run_doc, indent=1))
    print(json.dumps({
        "correct": not failures and not defects,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
