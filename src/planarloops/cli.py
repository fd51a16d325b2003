"""Command-line front end: enumeration, homology tables, verification
suites, and diagram export.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage or parse
errors, and 141 (128 + SIGPIPE, what a shell shows for a program stopped
by a closed pipe) when the reader closes standard output early, as `| head`
does.
All output is deterministic given the arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coeff import INT_POLY_A, ZZ, DomainError, PointedRing, parse_ring
from .diagram import (DiagramError, count_diagrams, enumerate_diagrams,
                      enumerate_letters, parse_diagram)
from .freedga import build_word_complex, minimal_model, truncated_complex
from .homology import homology, homology_table
from .loops import (CLOSED, ComplexSpec, EndSpec, GraffitoError,
                    build_complex, count_graffiti, enumerate_graffiti,
                    parse_chain, parse_graffito, weight_blocks)
from . import render
from .verify import SUITES, run_suite

USAGE_ERROR = 2
CLOSED_PIPE = 141


def _cmd_enum(args) -> int:
    if args.kind == "diagrams":
        if args.count:
            print(count_diagrams(args.n, args.m))
            return 0
        items = [d.encode() for d in enumerate_diagrams(args.n, args.m)]
    elif args.kind == "letters":
        if (args.kl is None) != (args.kr is None):
            raise DiagramError("letters take --kl and --kr together, or neither")
        kinds = ([(2, 2), (0, 2), (2, 0), (0, 0)] if args.kl is None
                 else [(args.kl, args.kr)])
        items = [l.encode() for kl, kr in kinds for l in enumerate_letters(kl, kr)]
    else:
        ends = EndSpec.from_code(args.ends)
        if args.count:
            print(count_graffiti(args.degree, args.two_n, ends,
                                 weight=args.weight, dividers=args.dividers))
            return 0
        items = [g.encode() for g in enumerate_graffiti(
            args.degree, args.two_n, ends,
            weight=args.weight, dividers=args.dividers)]
    if args.count:
        print(len(items))
    elif args.json:
        print(json.dumps(items))
    else:
        for it in items:
            print(it)
    return 0


def _requested_complex(args, ring):
    """A built model or word complex, or the ComplexSpec of a loop complex."""
    name = args.complex
    filtered = name == "subquotient" or name.startswith("open-")
    if not filtered and (args.w is not None or args.j is not None):
        raise GraffitoError(f"{name} takes no --w or --j")
    if name == "model":
        return truncated_complex(minimal_model(args.two_n, ring), args.max_degree)
    if name == "word":
        return build_word_complex(args.alphabet, args.max_degree, ring)
    ends = {"reduced-loops": CLOSED,
            "augmented-loops": EndSpec(augmented=True),
            "subquotient": CLOSED,
            "open-lr": EndSpec.from_code("oo"),
            "open-l": EndSpec.from_code("oc"),
            "open-r": EndSpec.from_code("co")}[name]
    if filtered and (args.w is None or args.j is None):
        raise GraffitoError(f"{name} needs --w and --j")
    return ComplexSpec(args.two_n, ring, ends, max_degree=args.max_degree,
                       weight=args.w, dividers=args.j, subquotient=filtered)


def _cmd_homology(args) -> int:
    if args.max_degree < 2:
        raise ValueError(f"homology needs --max-degree at least 2, got "
                         f"{args.max_degree}: H_p needs d_{{p+1}}, and the "
                         f"table starts at H_1")
    ring = parse_ring(args.ring, args.a)
    if ring.domain.kind == INT_POLY_A:
        raise DomainError("homology is computed over Z or a field; "
                          "pick a specialization (--ring z --a 0, ...)")
    degrees = range(1, args.max_degree)
    if args.complex == "reduced-loops" and ring.a_is_zero:
        spec = _requested_complex(args, PointedRing.make(ZZ, 0))
        label, groups = spec.label, homology_table(
            weight_blocks(spec), degrees, [ring.domain])[ring.domain]
    else:
        cx = _requested_complex(args, ring)
        cx = build_complex(cx) if isinstance(cx, ComplexSpec) else cx
        label, groups = cx.description, homology(cx, degrees)
    table = [h.to_json() for h in groups]
    if args.json:
        print(json.dumps({"complex": label, "ring": repr(ring),
                          "groups": table}))
    else:
        print(f"homology of {label} over {ring!r}")
        for row in table:
            parts = ["R"] * row["rank"] + [f"Z/{t}" for t in row["torsion"]]
            body = " + ".join(parts) or "0"
            print(f"  H_{row['degree']} = {body}   (basis {row['basis_size']})")
    return 0


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from: "
              + ", ".join(sorted(SUITES)), file=sys.stderr)
        return USAGE_ERROR
    params = {"samples": args.samples, "seed": args.seed}
    if args.max_degree is not None:
        params["max_degree"] = args.max_degree
    if args.rings:
        params["rings"] = tuple(args.rings.split(","))
    report = run_suite(args.suite, **params)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_export(args) -> int:
    ring = parse_ring(args.ring, args.a)
    text = args.encoding
    if args.target == "diagram":
        obj = parse_diagram(text)
        out = render.ascii_diagram(obj) if args.format == "ascii" else render.svg_diagram(obj)
    elif args.target == "graffito":
        obj = parse_graffito(text)
        out = render.ascii_graffito(obj) if args.format == "ascii" else render.svg_graffito(obj)
    else:
        obj = parse_chain(text, ring)
        out = render.ascii_chain(obj) if args.format == "ascii" else render.svg_chain(obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planarloops",
        description="Temperley-Lieb diagram calculus, loop complexes, "
                    "model algebras, and exact homology.")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sub = ap.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enum", help="list diagrams, letters, or loop systems")
    enum.add_argument("kind", choices=["diagrams", "letters", "graffiti"])
    enum.add_argument("--n", type=int, default=4)
    enum.add_argument("--m", type=int, default=4)
    enum.add_argument("--kl", type=int, choices=[0, 2])
    enum.add_argument("--kr", type=int, choices=[0, 2])
    enum.add_argument("--degree", type=int, default=1)
    enum.add_argument("--two-n", dest="two_n", type=int, default=4)
    enum.add_argument("--ends", default="cc", choices=["cc", "oc", "co", "oo"])
    enum.add_argument("--weight", type=int)
    enum.add_argument("--dividers", type=int)
    enum.add_argument("--count", action="store_true")

    hom = sub.add_parser("homology", help="homology table of a complex")
    hom.add_argument("--complex", required=True,
                     choices=["reduced-loops", "augmented-loops", "subquotient",
                              "open-lr", "open-l", "open-r", "model", "word"])
    hom.add_argument("--two-n", dest="two_n", type=int, default=4)
    hom.add_argument("--ring", default="z")
    hom.add_argument("--a", type=int, default=0)
    hom.add_argument("--max-degree", dest="max_degree", type=int, default=5)
    hom.add_argument("--w", type=int)
    hom.add_argument("--j", type=int)
    hom.add_argument("--alphabet", type=int, default=4)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite")
    ver.add_argument("--max-degree", dest="max_degree", type=int)
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--rings")

    exp = sub.add_parser("export", help="render a diagram, system, or chain")
    exp.add_argument("--target", required=True,
                     choices=["diagram", "graffito", "chain"])
    exp.add_argument("--format", default="ascii", choices=["ascii", "svg"])
    exp.add_argument("--ring", default="z")
    exp.add_argument("--a", type=int, default=0)
    exp.add_argument("--out")
    exp.add_argument("encoding")
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    command = {"enum": _cmd_enum, "homology": _cmd_homology,
               "verify": _cmd_verify, "export": _cmd_export}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE
    except (DiagramError, GraffitoError, DomainError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
