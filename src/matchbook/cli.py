"""Command line interface: gen, embed, verify, solve, render.

Exit codes: 0 when the requested artifact was produced (and validated,
where that applies), 1 for invalid or unsolved outcomes, 2 for usage or
format errors. Machine-readable results go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constructions, formats, render, solver
from .graphs import FAMILIES, cartesian_product
from .layout import Crossing, validate

EXIT_OK = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2


def _err(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _emit(args, doc: dict, summary: dict | None = None) -> None:
    """Write the artifact to --output when given (summary goes to stdout),
    otherwise print the artifact itself as the stdout result object."""
    text = formats.dumps(doc)
    if args.output:
        Path(args.output).write_text(text)
        out = dict(summary or {})
        out["output"] = str(args.output)
        print(json.dumps(out, indent=2))
    else:
        sys.stdout.write(text)


def _report_to_dict(rep) -> dict:
    items = []
    for v in rep.violations:
        if isinstance(v, Crossing):
            items.append(
                {"kind": "crossing", "page": v.page, "edges": [list(v.edge_a), list(v.edge_b)]}
            )
        else:
            items.append(
                {
                    "kind": "matching",
                    "page": v.page,
                    "vertex": v.vertex,
                    "edges": [list(e) for e in v.edges],
                }
            )
    return {"valid": rep.valid, "page_count": rep.page_count, "violations": items}


def _solve_options(args) -> solver.SolveOptions:
    return solver.SolveOptions(
        max_pages=args.max_pages,
        timeout_s=args.timeout,
        jobs=args.jobs,
        symmetry=not args.no_symmetry,
    )


# gen


def _cmd_gen(args) -> int:
    if args.family == "product-of-files":
        # a factor sits one product tag deeper than in its own file
        g = cartesian_product(*(formats.load_graph(_flag(args, f), 1) for f in ("left", "right")))
    else:
        build, flags, _ = FAMILIES[args.family]
        g = build(*(_flag(args, f) for f in flags))
    _emit(args, formats.graph_to_dict(g), {"name": g.name, "n": g.n, "edges": g.m})
    return EXIT_OK


def _flag(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name} is required for family {args.family}")
    return value


# embed


def _cmd_embed(args) -> int:
    g = formats.load_graph(args.graph)
    opts = _solve_options(args)
    method = args.method
    try:
        if method == "auto":
            outcome = constructions.auto_embedding(g, opts)
        elif method == "solver":
            outcome = constructions.construct(g, constructions.SCHEME_SOLVER, opts)
        elif method.startswith("construction:"):
            scheme = method.split(":", 1)[1]
            if scheme in ("auto", constructions.SCHEME_SOLVER):
                raise ValueError(f"unknown scheme {scheme!r} after construction:; use --method {scheme}")
            outcome = constructions.construct(g, scheme, opts)
        else:
            raise ValueError(f"unknown method {method!r}")
    except constructions.ConstructionUnresolved as exc:
        _err(args, f"unresolved by construction: {exc}")
        print(json.dumps({"unresolved": True, "reason": str(exc)}, indent=2))
        return EXIT_UNSOLVED

    emb = outcome.embedding
    doc = formats.embedding_to_dict(emb, outcome.scheme)
    _emit(args, doc, {"valid": True, "page_count": emb.page_count, "scheme": outcome.scheme})
    return EXIT_OK


# verify


def _cmd_verify(args) -> int:
    g = formats.load_graph(args.graph)
    doc = formats.load_embedding(args.embedding)
    if doc.embedding.graph != g:
        _err(args, "embedding references a different graph (canonical forms differ)")
        return EXIT_USAGE
    rep = validate(doc.embedding)
    print(json.dumps(_report_to_dict(rep), indent=2))
    return EXIT_OK if rep.valid else EXIT_UNSOLVED


# solve


def _cmd_solve(args) -> int:
    g = formats.load_graph(args.graph)
    res = solver.exact_mbt(g, _solve_options(args))
    bound = res.bound
    out = {
        "value": res.value,
        "exhaustive": res.exhaustive,
        "lower_bound": {
            "value": bound.value,
            "reason": bound.reason,
            "max_degree": bound.max_degree,
            "regular_degree": bound.regular_degree,
            "odd_cycle": list(bound.odd_cycle) if bound.odd_cycle else None,
            "chromatic_index": bound.chromatic_index,
        },
        "stats": {
            "orders_tested": res.stats.orders_tested,
            "nodes": res.stats.nodes,
            "elapsed_s": round(res.stats.elapsed_s, 3),
            "per_level": {str(k): v for k, v in res.stats.per_level.items()},
            "timed_out": res.stats.timed_out,
        },
        "witness": formats.embedding_to_dict(res.witness) if res.witness else None,
    }
    print(json.dumps(out, indent=2))
    if args.output and res.witness is not None:
        formats.save_embedding(res.witness, args.output, scheme=constructions.SCHEME_SOLVER)
    return EXIT_OK if res.value is not None and res.exhaustive else EXIT_UNSOLVED


# render


def _cmd_render(args) -> int:
    doc = formats.load_embedding(args.embedding)
    rep = validate(doc.embedding)
    if not rep.valid and not args.force:
        _err(args, f"embedding is invalid ({len(rep.violations)} violations); use --force to render")
        return EXIT_UNSOLVED
    svg = render.render_svg(doc.embedding, rep, split_pages=args.split_pages)
    if args.output:
        Path(args.output).write_text(svg)
        print(json.dumps({"output": str(args.output), "page_count": doc.embedding.page_count}))
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def _add_io_flags(sp, output: bool = True) -> None:
    if output:
        sp.add_argument("-o", "--output", default=None, help="write the artifact to this path")
    sp.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")


def _add_solver_flags(sp) -> None:
    sp.add_argument("--max-pages", type=int, default=None)
    sp.add_argument("--timeout", type=float, default=600.0, help="global budget in seconds")
    sp.add_argument("--jobs", type=int, default=1, help="accepted and ignored (serial solve)")
    sp.add_argument("--no-symmetry", action="store_true", help="enumerate all spine orders")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchbook",
        description="Construct, verify, solve and render matching book embeddings.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a graph file")
    gen.add_argument("--family", required=True, choices=[*FAMILIES, "product-of-files"])
    for flag in dict.fromkeys(f for _, flags, _ in FAMILIES.values() for f in flags):
        gen.add_argument(f"--{flag}", type=int)
    gen.add_argument("--left", help="left factor graph file (product-of-files)")
    gen.add_argument("--right", help="right factor graph file (product-of-files)")
    _add_io_flags(gen)
    gen.set_defaults(handler=_cmd_gen)

    embed = sub.add_parser("embed", help="embed a graph file")
    embed.add_argument("graph")
    embed.add_argument(
        "--method",
        default="auto",
        help="auto, solver, or construction:<scheme> for a scheme in "
        + ", ".join(s for s in constructions.SCHEMES if s != constructions.SCHEME_SOLVER),
    )
    _add_solver_flags(embed)
    _add_io_flags(embed)
    embed.set_defaults(handler=_cmd_embed)

    verify = sub.add_parser("verify", help="validate an embedding against a graph")
    verify.add_argument("graph")
    verify.add_argument("embedding")
    _add_io_flags(verify, output=False)
    verify.set_defaults(handler=_cmd_verify)

    solve = sub.add_parser("solve", help="exact matching book thickness")
    solve.add_argument("graph")
    _add_solver_flags(solve)
    _add_io_flags(solve)
    solve.set_defaults(handler=_cmd_solve)

    rend = sub.add_parser("render", help="render an embedding to SVG")
    rend.add_argument("embedding")
    rend.add_argument("--force", action="store_true", help="render even if invalid")
    rend.add_argument("--split-pages", action="store_true", help="one band per page")
    _add_io_flags(rend)
    rend.set_defaults(handler=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except formats.FormatError as exc:
        _err(args, f"format error: {exc}")
        return EXIT_USAGE
    except constructions.ConstructionError as exc:
        _err(args, f"construction error: {exc}")
        return EXIT_UNSOLVED
    except ValueError as exc:
        _err(args, f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        _err(args, f"io error: {exc}")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
