"""Command line interface: gen, embed, verify, solve, render.

Exit codes: 0 when the requested artifact was produced (and validated,
where that applies), 1 for invalid or unsolved outcomes, 2 for usage or
format errors. Machine-readable results go to stdout, diagnostics to
stderr. Every document and result is written by ``formats.dumps``, as one
line of ASCII JSON; only ``render`` without ``-o`` prints other text, its
SVG.

Each command imports only the modules it runs: ``gen`` and ``verify``
never load the constructions, the solver or the renderer, and an embedding
by a construction never loads the solver.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats
from .graphs import FAMILIES, cartesian_product
from .layout import validate
from .options import SCHEME_SOLVER, SolveOptions

EXIT_OK = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2


def _err(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _emit(args, text: str, summary: dict) -> None:
    """Write the artifact's text to --output and print the summary with the
    path, or print the artifact itself when there is no --output."""
    if args.output:
        Path(args.output).write_text(text)
        text = formats.dumps({**summary, "output": str(args.output)})
    sys.stdout.write(text)


def _solve_options(args) -> SolveOptions:
    return SolveOptions(max_pages=args.max_pages, timeout_s=args.timeout)


# gen


def _cmd_gen(args) -> int:
    if args.family == "product-of-files":
        # a factor sits one product tag deeper than in its own file
        g = cartesian_product(*(formats.load_graph(_flag(args, f), 1) for f in ("left", "right")))
    else:
        build, flags, _ = FAMILIES[args.family]
        g = build(*(_flag(args, f) for f in flags))
    _emit(args, formats.dumps(formats.graph_to_dict(g)), {"name": g.name, "n": g.n, "edges": g.m})
    return EXIT_OK


def _flag(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name} is required for family {args.family}")
    return value


# embed


def _cmd_embed(args) -> int:
    from . import constructions

    g = formats.load_graph(args.graph)
    scheme = args.method.removeprefix("construction:")
    if scheme == args.method:
        if scheme not in ("auto", SCHEME_SOLVER):
            raise ValueError(f"unknown method {scheme!r}")
    elif scheme not in (known := _construction_schemes()):
        hint = f"use --method {scheme}" if scheme in ("auto", SCHEME_SOLVER) else "known: " + ", ".join(known)
        raise ValueError(f"unknown scheme {scheme!r} after construction:; {hint}")
    try:
        outcome = constructions.construct(g, scheme, _solve_options(args))
    except constructions.ConstructionUnresolved as exc:
        _err(args, f"unresolved: {exc}")
        sys.stdout.write(formats.dumps({"unresolved": True, "reason": str(exc)}))
        return EXIT_UNSOLVED
    except constructions.ConstructionError as exc:
        _err(args, f"construction error: {exc}")
        return EXIT_UNSOLVED

    emb = outcome.embedding
    text = formats.dumps(formats.embedding_to_dict(emb, outcome.scheme))
    _emit(args, text, {"valid": True, "page_count": emb.page_count, "scheme": outcome.scheme})
    return EXIT_OK


# verify


def _cmd_verify(args) -> int:
    g = formats.load_graph(args.graph)
    emb = formats.load_embedding(args.embedding)
    if emb.graph != g:
        _err(args, "embedding references a different graph (canonical forms differ)")
        return EXIT_USAGE
    rep = validate(emb)
    violations = [{"kind": v.kind, **v._asdict()} for v in rep.violations]
    sys.stdout.write(formats.dumps({**rep._asdict(), "violations": violations}))
    return EXIT_OK if rep.valid else EXIT_UNSOLVED


# solve


def _cmd_solve(args) -> int:
    from . import solver

    g = formats.load_graph(args.graph)
    res = solver.exact_mbt(g, _solve_options(args))
    stats = {s: getattr(res.stats, s) for s in res.stats.__slots__ if s != "elapsed_s"}
    out = {
        "value": res.value,
        "exhaustive": res.exhaustive,
        "lower_bound": res.bound._asdict(),
        # "repaired" is kept so the stdout keys do not change; no prefix is repaired
        "stats": {**stats, "repaired": 0},
        "witness": formats.embedding_to_dict(res.witness) if res.witness else None,
    }
    sys.stdout.write(formats.dumps(out))
    if args.output and res.witness is not None:
        formats.save_embedding(res.witness, args.output, scheme=SCHEME_SOLVER)
    return EXIT_OK if res.value is not None and res.exhaustive else EXIT_UNSOLVED


# render


def _cmd_render(args) -> int:
    emb = formats.load_embedding(args.embedding)
    rep = validate(emb)
    if not rep.valid and not args.force:
        _err(args, f"embedding is invalid ({len(rep.violations)} violations); use --force to render")
        return EXIT_UNSOLVED
    from .render import render_svg

    svg = render_svg(emb, rep, split_pages=args.split_pages)
    _emit(args, svg, {"page_count": emb.page_count})
    return EXIT_OK


def _add_io_flags(sp, output: bool = True) -> None:
    if output:
        sp.add_argument("-o", "--output", default=None, help="write the artifact to this path")
    sp.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")


def _add_solver_flags(sp) -> None:
    sp.add_argument("--max-pages", type=int, default=None)
    sp.add_argument("--timeout", type=float, default=600.0, help="global budget in seconds")


def _construction_schemes() -> list[str]:
    """The schemes of ``constructions.SCHEMES`` that ``construction:`` takes."""
    from .constructions import SCHEMES

    return [s for s in SCHEMES if s != SCHEME_SOLVER]


class _EmbedHelp(argparse.HelpFormatter):
    """Ends the --method help with the schemes ``construction:`` takes,
    loading ``constructions`` only when the help is shown."""

    def _get_help_string(self, action):
        if action.dest != "method":
            return action.help
        return action.help + ", ".join(_construction_schemes())


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

    embed = sub.add_parser("embed", help="embed a graph file", formatter_class=_EmbedHelp)
    embed.add_argument("graph")
    embed.add_argument(
        "--method", default="auto", help="auto, solver, or construction:<scheme> for a scheme in "
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
