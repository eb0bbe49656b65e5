"""The ``cab`` command-line tool.

Subcommands expose enumeration, the two products, coproducts, primitive
bases, word and path arithmetic, the dimension table, and the verification
suites.  Output is deterministic for fixed flags and seed.  Exit codes:
0 success (all residuals zero for ``verify``), 1 usage or literal parse
error, 2 nonzero residual.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .linear import LinComb, to_records
from .trees import check_palette, enumerate_trees, parse_tree
from .algebra import circle, dot, star
from .infinitesimal import (
    coproduct,
    coproduct_closed,
    dimension_report,
    n_op,
    primitive_basis,
)
from .matching import m_circ, m_dot, normalize, parse_word
from .paths import parse_path, path_circ, path_coproduct, path_mul, path_R
from .verify import DEFAULT_SEED, SUITES, run_suites


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _palette(arg: str) -> list[str]:
    """LIST|COUNT: 'a,b' names the colors, '3' takes the first 3 letters."""
    arg = arg.strip()
    if arg.isdigit():
        d = int(arg)
        if not 1 <= d <= 26:
            raise UsageError("a color count must be between 1 and 26")
        return [chr(ord("a") + i) for i in range(d)]
    colors = [c.strip() for c in arg.split(",") if c.strip()]
    if not colors:
        raise UsageError(f"bad color list {arg!r}")
    return list(check_palette(colors))


def _emit_lincomb(x: LinComb, as_json: bool) -> None:
    if as_json:
        print(json.dumps(to_records(x)))
    elif x.is_zero:
        print("0")
    else:
        for key, c in x.sorted_items():
            print(f"{c} {key}")


def build_parser() -> _Parser:
    parser = _Parser(prog="cab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("trees", help="tree enumeration")
    trees_sub = p.add_subparsers(dest="trees_command", required=True, parser_class=_Parser)
    p = trees_sub.add_parser("enum", help="list all trees of a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--colors", required=True, help="color list 'a,b' or a count")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("mul", help="multiply two tree expressions")
    p.add_argument("--op", required=True, help="dot | circle | star:A,B")
    p.add_argument("exprs", nargs=2, metavar="EXPR")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("coproduct", help="coproduct of a tree")
    p.add_argument("--closed", action="store_true", help="use the contraction formula")
    p.add_argument("expr", metavar="EXPR")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("prim-basis", help="primitive basis in one degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--colors", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("nop", help="the n-ary primitive operation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("exprs", nargs="+", metavar="EXPR")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("normalize", help="matching-dialgebra normal form of a tree")
    p.add_argument("expr", metavar="EXPR")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("word-mul", help="multiply two words")
    p.add_argument("--op", required=True, choices=["dot", "circ"])
    p.add_argument("words", nargs=2, metavar="WORD")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("path", help="path algebra operations")
    path_sub = p.add_subparsers(dest="path_command", required=True, parser_class=_Parser)
    for name, nargs in (("mul", 2), ("circ", 2), ("coproduct", 1), ("R", 1)):
        q = path_sub.add_parser(name)
        q.add_argument("--points", required=True, help="comma-separated point set")
        q.add_argument("paths", nargs=nargs, metavar="PATH")
        q.add_argument("--json", action="store_true")

    p = sub.add_parser("dims", help="dimension table per degree")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--colors", type=int, default=1, help="palette size d")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=sorted(SUITES) + ["all"])
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    return parser


def _parse_op(name: str):
    if name == "dot":
        return dot
    if name == "circle":
        return circle
    if name.startswith("star:"):
        spec = name[len("star:") :]
        parts = spec.split(",")
        if len(parts) != 2:
            raise UsageError("star takes two coefficients, e.g. star:1,1 or star:-1,1")
        try:
            alpha, beta = Fraction(parts[0]), Fraction(parts[1])
        except ZeroDivisionError as exc:
            raise UsageError(f"bad star coefficients {spec!r}: zero denominator") from exc
        except ValueError as exc:
            raise UsageError(f"bad star coefficients {spec!r}: {exc}") from exc
        return lambda x, y: star(x, y, alpha, beta)
    raise UsageError(f"unknown op {name!r}; use dot, circle, or star:A,B")


def _cmd_trees(args) -> int:
    palette = _palette(args.colors)
    trees = enumerate_trees(args.degree, palette)
    if args.json:
        print(json.dumps({"degree": args.degree, "count": len(trees),
                          "trees": [t.text for t in trees]}))
    else:
        for t in trees:
            print(t.text)
        print(f"# {len(trees)} trees of degree {args.degree} over {len(palette)} colors")
    return 0


def _cmd_mul(args) -> int:
    op = _parse_op(args.op)
    x = LinComb.term(parse_tree(args.exprs[0]))
    y = LinComb.term(parse_tree(args.exprs[1]))
    _emit_lincomb(op(x, y), args.json)
    return 0


def _cmd_coproduct(args) -> int:
    t = parse_tree(args.expr)
    result = coproduct_closed(t) if args.closed else coproduct(LinComb.term(t))
    _emit_lincomb(result, args.json)
    return 0


def _cmd_prim_basis(args) -> int:
    palette = _palette(args.colors)
    basis = primitive_basis(args.degree, palette)
    if args.json:
        print(json.dumps([to_records(x) for x in basis]))
    else:
        for x in basis:
            print(x)
        print(f"# {len(basis)} primitive basis elements in degree {args.degree}")
    return 0


def _cmd_nop(args) -> int:
    if len(args.exprs) != args.n:
        raise UsageError(f"nop --n {args.n} needs exactly {args.n} expressions")
    xs = [LinComb.term(parse_tree(e)) for e in args.exprs]
    _emit_lincomb(n_op(args.n, xs), args.json)
    return 0


def _cmd_normalize(args) -> int:
    w = normalize(parse_tree(args.expr))
    if args.json:
        print(json.dumps({"word": w.text}))
    else:
        print(w.text)
    return 0


def _cmd_word_mul(args) -> int:
    u = parse_word(args.words[0])
    w = parse_word(args.words[1])
    result = m_dot(u, w) if args.op == "dot" else m_circ(u, w)
    if args.json:
        print(json.dumps({"word": result.text}))
    else:
        print(result.text)
    return 0


def _cmd_path(args) -> int:
    points = [s.strip() for s in args.points.split(",") if s.strip()]
    if not points:
        raise UsageError("empty point set")
    parsed = [LinComb.term(parse_path(p, points)) for p in args.paths]
    if args.path_command == "mul":
        result = path_mul(*parsed)
    elif args.path_command == "circ":
        result = path_circ(*parsed)
    elif args.path_command == "R":
        result = path_R(parsed[0])
    else:
        result = path_coproduct(parsed[0])
    _emit_lincomb(result, args.json)
    return 0


def _cmd_dims(args) -> int:
    rows = dimension_report(args.max, args.colors)
    ok = all(r.prim_ok and r.cofree_ok for r in rows)
    if args.json:
        print(json.dumps({
            "colors": args.colors,
            "rows": [
                {"n": r.n, "tree_dim": r.tree_dim, "prim_dim": r.prim_dim,
                 "cofree_dim": r.cofree_dim, "prim_ok": r.prim_ok,
                 "cofree_ok": r.cofree_ok}
                for r in rows
            ],
            "note": "word-basis dimension in degree n enumerates to 2^(n-1), "
                    "not the sometimes-stated 2^n",
            "ok": ok,
        }))
    else:
        header = f"{'n':>3} {'trees d^n*c_n':>15} {'prim d^n*c_(n-1)':>17} {'cofree sum':>12}  check"
        print(header)
        for r in rows:
            mark = "ok" if r.prim_ok and r.cofree_ok else "MISMATCH"
            print(f"{r.n:>3} {r.tree_dim:>15} {r.prim_dim:>17} {r.cofree_dim:>12}  {mark}")
        print("# note: word-basis dimension in degree n enumerates to 2^(n-1), "
              "not the sometimes-stated 2^n")
    return 0 if ok else 2


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, max_degree=args.max_degree, seed=args.seed)
    failures = [c for c in checks if not c.ok]
    if args.json:
        print(json.dumps([
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
        ]))
    else:
        for c in checks:
            mark = "ok  " if c.ok else "FAIL"
            print(f"{mark} {c.name}: {c.detail}")
        print(f"# {len(checks) - len(failures)}/{len(checks)} checks passed "
              f"(suites: {', '.join(names)}, seed {args.seed})")
    return 0 if not failures else 2


_COMMANDS = {
    "trees": _cmd_trees,
    "mul": _cmd_mul,
    "coproduct": _cmd_coproduct,
    "prim-basis": _cmd_prim_basis,
    "nop": _cmd_nop,
    "normalize": _cmd_normalize,
    "word-mul": _cmd_word_mul,
    "path": _cmd_path,
    "dims": _cmd_dims,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
