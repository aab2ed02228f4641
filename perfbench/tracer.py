"""Spans around calls into matchbook's layers, recorded from outside.

``install`` wraps public functions at every module attribute their callers
look them up by (``validate``, for one, is bound separately in ``layout``,
``constructions`` and ``cli``), so no source file is edited. Spans are kept
in memory as ``[name, start, end, parent, task, info]`` and written out by
the caller when the run ends. ``layer_metrics`` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graphs", "solver", "constructions", "layout", "formats", "render", "cli")


def _stats(args, result):
    s = result.stats
    return {
        "orders": s.orders_tested,
        "nodes": s.nodes,
        "refuted": sum(c for k, c in s.per_level.items() if result.value is not None and k < result.value),
    }


def _kernel(args, result):
    return {"status": result.status, "nodes": result.nodes}


def _chi(args, result):
    return {"nodes": None if result is None else result.nodes}


def _pairs(args, result):
    sizes = Counter(args[0].pages).values()
    return {"pairs": sum(s * (s - 1) // 2 for s in sizes)}


def _text_bytes(args, result):
    return {"bytes": len(result.encode())}


# (span name, defining module, function name, info taken from the call)
WRAPS = [
    *(("graphs.build", "graphs", f, None)
      for f in ("complete", "cycle", "path", "complete_bipartite", "hypercube", "cartesian_product", "kpcq")),
    ("solver.solve", "solver", "exact_mbt", _stats),
    ("solver.lower_bound", "solver", "lower_bound", None),
    ("solver.chi", "solver", "edge_chromatic_exact", _chi),
    ("solver.upper_bound", "solver", "first_fit_pages", None),
    ("solver.masks", "solver", "conflict_masks", None),
    ("solver.kernel", "solver", "color_graph", _kernel),
    ("constructions.kpcq", "constructions", "kpcq_embedding", None),
    ("constructions.product", "constructions", "product_embedding", None),
    ("constructions.witness", "constructions", "witness_for", None),
    ("constructions.auto", "constructions", "auto_embedding", None),
    ("layout.validate", "layout", "validate", _pairs),
    ("formats.load", "formats", "load_graph", None),
    ("formats.load", "formats", "load_embedding", None),
    ("formats.dump", "formats", "dumps", _text_bytes),
    ("formats.dump", "formats", "graph_to_dict", None),
    ("formats.dump", "formats", "embedding_to_dict", None),
    ("render.svg", "render", "render_svg", _text_bytes),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.task: int | None = None

    def _enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.task, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        s = self._enter(name)
        try:
            yield s
        finally:
            self._exit(s)

    def wrap(self, name: str, fn, info=None):
        def traced(*args, **kwargs):
            s = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(s)
            if info is not None:
                s[5] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer):
    """Wrap every traced function wherever matchbook binds it; returns a
    function that puts the originals back."""
    mods = {name: importlib.import_module(f"matchbook.{name}") for name in LAYERS}
    undo = []
    for span_name, home, fname, info in WRAPS:
        fn = getattr(mods[home], fname)
        wrapped = tracer.wrap(span_name, fn, info)
        for mod in mods.values():
            if getattr(mod, fname, None) is fn:
                setattr(mod, fname, wrapped)
                undo.append((mod, fname, fn))

    def restore():
        for mod, fname, fn in undo:
            setattr(mod, fname, fn)
    return restore


def _nearest(spans: list[list], i: int, match) -> int:
    """Index of the nearest ancestor of span i that satisfies match, or -1."""
    p = spans[i][3]
    while p >= 0 and not match(spans[p]):
        p = spans[p][3]
    return p


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, busy time and self time, plus the named metrics.

    A layer's busy time counts only its outermost spans and a metric's time
    only spans not nested in one of the same name, so recursion and calls
    within a layer are not counted twice. Self time is a span's duration
    minus the time its direct children cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out.update({f"{layer}.calls": 0, f"{layer}.busy_s": 0.0, f"{layer}.self_s": 0.0})
    spent = Counter()
    count = Counter()
    acc = Counter()
    for i, (name, start, end, parent, _task, info) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += dur - covered[i]
        if _nearest(spans, i, lambda s: s[0].startswith(layer + ".")) < 0:
            out[f"{layer}.busy_s"] += dur
        if _nearest(spans, i, lambda s: s[0] == name) < 0:
            spent[name] += dur
        count[name] += 1
        if name == "solver.solve":
            acc["orders"] += info["orders"]
            acc["refuted"] += info["refuted"]
        elif (name in ("solver.lower_bound", "solver.upper_bound")
              and parent >= 0 and spans[parent][0] == "solver.solve"):
            acc["bounds_s"] += dur
        elif name == "solver.kernel":
            if _nearest(spans, i, lambda s: s[0] == "solver.lower_bound") >= 0:
                acc["chi_nodes"] += info["nodes"]
            else:
                acc["kernel_calls"] += 1
                acc["kernel_s"] += dur
                acc["kernel_nodes"] += info["nodes"]
                acc[info["status"]] += 1
        elif name == "solver.chi":
            acc["chi_out_of_budget"] += info["nodes"] is None
        elif name == "layout.validate":
            acc["pairs"] += info["pairs"]
        elif info is not None and "bytes" in info:
            acc[name + ".bytes"] += info["bytes"]

    # the scan is what exact_mbt does besides its two bounds
    scan_s = spent["solver.solve"] - acc["bounds_s"]
    calls = acc["kernel_calls"]
    out.update({
        "solver.scan.orders": acc["orders"],
        "solver.scan.refuted_orders": acc["refuted"],
        "solver.scan.s": scan_s,
        "solver.scan.orders_per_s": acc["orders"] / scan_s if scan_s > 0 else 0.0,
        "solver.masks.calls": count["solver.masks"],
        "solver.masks.s": spent["solver.masks"],
        "solver.kernel.calls": calls,
        "solver.kernel.s": acc["kernel_s"],
        "solver.kernel.nodes": acc["kernel_nodes"],
        "solver.kernel.found": acc["found"],
        "solver.kernel.infeasible": acc["infeasible"],
        "solver.kernel.unknown": acc["unknown"],
        "solver.kernel.decided_ratio": (acc["found"] + acc["infeasible"]) / calls if calls else 0.0,
        "solver.lower_bound.s": spent["solver.lower_bound"],
        "solver.lower_bound.chi_nodes": acc["chi_nodes"],
        "solver.lower_bound.chi_out_of_budget": acc["chi_out_of_budget"],
        "solver.upper_bound.s": spent["solver.upper_bound"],
        "constructions.kpcq.s": spent["constructions.kpcq"],
        "constructions.product.s": spent["constructions.product"],
        "constructions.witness.s": spent["constructions.witness"],
        "constructions.auto.s": spent["constructions.auto"],
        "layout.validate.calls": count["layout.validate"],
        "layout.validate.pairs": acc["pairs"],
        "layout.validate.s": spent["layout.validate"],
        "formats.load.s": spent["formats.load"],
        "formats.dump.s": spent["formats.dump"],
        "formats.bytes": acc["formats.dump.bytes"],
        "render.svg.s": spent["render.svg"],
        "render.bytes": acc["render.svg.bytes"],
        "graphs.build.s": spent["graphs.build"],
    })
    return out
