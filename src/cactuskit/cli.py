"""Command-line entry point.

One executable, eight verbs:

* ``normalize`` / ``equal`` — the word problem, word syntax in and out;
* ``ball`` / ``growth`` — Cayley-ball construction and JSON/DOT export;
  sphere counts from the link's face numbers, with no ball and no table;
* ``verify`` — the mechanical condition checks, optionally on a serialized
  graph (``--input``) instead of a freshly built ball;
* ``embed`` / ``qi-fit`` / ``delta`` — disk embedding, metric-comparison
  constants, four-point hyperbolicity defect.

Every JSON-producing verb wraps its payload in the envelope
``{tool_version, invocation, result}``.  ``ball`` to stdout writes the ball
with cayley's one JSON writer (``_json_text``, as ``export`` does) and keeps
no record layout of its own.  Identical argv produces byte-identical stdout.
The argument parser is built once per process, by the first `run`/`main`
call, and reused by every later call; parsing keeps no state between calls.
Every flag a verb takes is one it reads: the disk verbs take no
``--family``/``--n`` (they are defined for AJ_3 only), and a ``verify`` flag
that the chosen check would not read is a usage error.
Exit codes: 0 success/pass, 1 verification failure, 2 usage error, 3 budget
(too large a degree included) or I/O error.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate

from . import __version__
from .cayley import CayleyBall, _ball_header, _json_text, ball, export, import_ball, sphere_sizes
from .core import (
    BudgetExceeded,
    CactusError,
    ClosureViolation,
    GroupSpec,
    affine,
    cactus,
)
from .hyperbolic import embed_ball, four_point_delta, qi_fit, render_svg
from .rewriting import normalize, parse_word
from .verify import (
    check_cube_spans,
    check_median,
    check_no_shared_consecutive_edges,
    check_square_normal_forms,
    check_squares_embedded,
    verify_claim_phi,
    verify_claim_psi,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_BALL_CHECKS = {
    "squares": check_squares_embedded,
    "edges": check_no_shared_consecutive_edges,
    "cubes": check_cube_spans,
    "square-normal-forms": check_square_normal_forms,
}
_CLAIM_CHECKS = {"claim-phi": verify_claim_phi, "claim-psi": verify_claim_psi}


class UsageError(Exception):
    """Invalid flag combination detected after parsing."""


def _spec_of(args: argparse.Namespace) -> GroupSpec:
    return affine(args.n) if args.family == "affine" else cactus(args.n)


def _emit(invocation: dict, result: dict) -> None:
    envelope = {
        "tool_version": __version__,
        "invocation": invocation,
        "result": result,
    }
    sys.stdout.write(json.dumps(envelope, indent=2) + "\n")


def _emit_ball(invocation: dict, b: CayleyBall) -> None:
    """`_emit(invocation, export_obj(b))`, byte for byte: the head is the
    dump of the envelope without its result, up to its closing brace, and
    the result is written by cayley's one JSON writer."""
    head = json.dumps({"tool_version": __version__, "invocation": invocation}, indent=2)
    sys.stdout.write('%s,\n  "result": %s\n}\n' % (head[:-2], _json_text(b, 2, False, 1)))


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=("affine", "cactus"), default="affine")
    p.add_argument("--n", type=int, required=True)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cactuskit",
        description="Word problem, Cayley balls, structure checks and disk "
        "embeddings for the cactus and affine cactus groups.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("normalize", help="rewrite a word to its normal form")
    _add_spec_flags(p)
    p.add_argument("--word", required=True, help='word syntax, e.g. "1,2;2,3"')

    p = sub.add_parser("equal", help="decide whether two words normalize alike")
    _add_spec_flags(p)
    p.add_argument("--word", required=True)
    p.add_argument("--word2", required=True)

    p = sub.add_parser("ball", help="build and export a Cayley ball")
    _add_spec_flags(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", help="write the export here instead of stdout")
    p.add_argument("--budget", type=int, default=10**6, help="vertex budget")

    p = sub.add_parser("growth", help="sphere sizes of a Cayley ball")
    _add_spec_flags(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**6)

    p = sub.add_parser("verify", help="run one mechanical condition check")
    _add_spec_flags(p)
    p.add_argument(
        "--check",
        required=True,
        choices=sorted([*_BALL_CHECKS, *_CLAIM_CHECKS, "median"]),
    )
    p.add_argument("--radius", type=int)
    p.add_argument("--depth", type=int, help="triple depth for median")
    p.add_argument("--input", help="ball JSON file to check instead of building one")
    p.add_argument("--budget", type=int)

    p = sub.add_parser("embed", help="embed a degree-3 affine ball in the disk")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out", required=True, help="SVG output path")

    p = sub.add_parser("qi-fit", help="graph-vs-plane distance comparison constants")
    p.add_argument("--radius", type=int, required=True)

    p = sub.add_parser("delta", help="four-point hyperbolicity defect of a ball")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**7, help="quadruple budget")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")

    return top


def _run_normalize(args: argparse.Namespace) -> int:
    spec = _spec_of(args)
    nf = normalize(parse_word(spec, args.word))
    _emit(
        {"verb": "normalize", "family": args.family, "n": args.n, "word": args.word},
        {"input": args.word, "normal_form": nf.text(), "length": len(nf)},
    )
    return EXIT_PASS


def _run_equal(args: argparse.Namespace) -> int:
    spec = _spec_of(args)
    n1, n2 = normalize(parse_word(spec, args.word)), normalize(parse_word(spec, args.word2))
    _emit(
        {
            "verb": "equal",
            "family": args.family,
            "n": args.n,
            "word": args.word,
            "word2": args.word2,
        },
        {
            "equal": n1 == n2,
            "normal_form": n1.text(),
            "normal_form2": n2.text(),
        },
    )
    return EXIT_PASS


def _run_ball(args: argparse.Namespace) -> int:
    b = ball(_spec_of(args), args.radius, max_vertices=args.budget)
    inv = {
        "verb": "ball",
        "family": args.family,
        "n": args.n,
        "radius": args.radius,
        "format": args.format,
    }
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(export(b, args.format))
        inv["out"] = args.out
        _emit(
            inv,
            {
                "path": args.out,
                "vertices": len(b),
                "sphere_sizes": b.sphere_sizes(),
            },
        )
    elif args.format == "json":
        _emit_ball(inv, b)
    else:
        sys.stdout.write(export(b, args.format).decode("utf-8"))
    return EXIT_PASS


def _run_growth(args: argparse.Namespace) -> int:
    sizes = sphere_sizes(_spec_of(args), args.radius, max_vertices=args.budget)
    _emit(
        {"verb": "growth", "family": args.family, "n": args.n, "radius": args.radius},
        {"sphere_sizes": sizes, "ball_sizes": list(accumulate(sizes))},
    )
    return EXIT_PASS


def _run_verify(args: argparse.Namespace) -> int:
    check, claim = args.check, args.check in _CLAIM_CHECKS
    if claim:
        if args.input:
            raise UsageError(f"--input does not apply to --check {check}")
        if args.radius is not None:
            raise UsageError(f"--radius does not apply to --check {check}")
    elif args.input:
        if args.radius is not None:
            raise UsageError("--input and --radius are mutually exclusive")
    elif args.radius is None:
        raise UsageError(f"--check {check} needs --radius (or --input)")
    if args.depth is not None and check != "median":
        raise UsageError(f"--depth does not apply to --check {check}")
    if args.depth is not None and args.depth < 0:
        raise UsageError(f"--depth must be >= 0, got {args.depth}")
    if args.budget is not None and claim:
        raise UsageError(f"--budget does not apply to --check {check}")
    if args.budget is not None and args.input:
        raise UsageError("--budget does not apply with --input")
    if claim and args.family == "cactus":
        raise UsageError(f"--family cactus does not apply to --check {check}")
    inv = {"verb": "verify", "check": check, "family": args.family, "n": args.n}
    if claim:
        report = _CLAIM_CHECKS[check](args.n)
    else:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            if (spec := _ball_header(obj)[0]) != _spec_of(args):  # before any table is built
                raise UsageError(f"--family {args.family} --n {args.n} does not match the spec of "
                                 f"{args.input}: {spec.family.value}, n = {spec.degree}")
            b = import_ball(obj)
            inv["input"] = args.input
        else:
            budget = 10**6 if args.budget is None else args.budget
            b = ball(_spec_of(args), args.radius, max_vertices=budget)
            inv["radius"] = args.radius
        if check == "median":
            inv["depth"] = depth = 2 if args.depth is None else args.depth
            if 3 * depth > b.radius:
                radius = f"the radius of {args.input}" if args.input else "--radius"
                raise UsageError(f"--check median needs 3 * --depth <= {radius}, "
                                 f"got --depth {depth} and {radius} {b.radius}")
            report = check_median(b, depth)
        else:
            report = _BALL_CHECKS[check](b)
    _emit(inv, report.to_dict())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _run_embed(args: argparse.Namespace) -> int:
    b = ball(affine(3), args.radius)
    emb = embed_ball(b)
    svg = render_svg(emb)
    with open(args.out, "wb") as fh:
        fh.write(svg)
    _emit(
        {"verb": "embed", "family": "affine", "n": 3, "radius": args.radius,
         "out": args.out},
        {
            "svg_path": args.out,
            "vertices": len(b),
            "edges": b.edge_count(),
            "edge_length": emb.edge_length,
        },
    )
    return EXIT_PASS


def _run_qi_fit(args: argparse.Namespace) -> int:
    fit = qi_fit(embed_ball(ball(affine(3), args.radius)))
    _emit(
        {"verb": "qi-fit", "family": "affine", "n": 3, "radius": args.radius},
        {"lambda": fit.lam, "c": fit.c, "pair_count": fit.pair_count},
    )
    return EXIT_PASS


def _run_delta(args: argparse.Namespace) -> int:
    rep = four_point_delta(
        ball(affine(3), args.radius), budget=args.budget, seed=args.seed
    )
    _emit(
        {"verb": "delta", "family": "affine", "n": 3, "radius": args.radius,
         "budget": args.budget, "seed": args.seed},
        {"delta": rep.delta, "quadruples": rep.quadruples, "sampled": rep.sampled},
    )
    return EXIT_PASS


_DISPATCH = {
    "normalize": _run_normalize,
    "equal": _run_equal,
    "ball": _run_ball,
    "growth": _run_growth,
    "verify": _run_verify,
    "embed": _run_embed,
    "qi-fit": _run_qi_fit,
    "delta": _run_delta,
}


_PARSER: argparse.ArgumentParser | None = None


def run(argv: list[str]) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    return _DISPATCH[args.verb](args)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClosureViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (BudgetExceeded, OSError, MemoryError) as exc:
        # a MemoryError raised by the allocator itself has no message
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except (CactusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
