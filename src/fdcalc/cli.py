"""Command line front end.

Subcommands either transform diagram files (aut, compose, tensor,
closures), enumerate and sum diagram classes (enumerate, partition,
free-energy, expect), or run the built-in cross-checks (verify ...).
Output is tab-separated rows on stdout, or one JSON document with
``--format json``; identical invocations print identical bytes.

Handlers import the numeric layer (``algebra``) where they use it.  Exact
algebras compute on ``fractions`` alone, so every command on exact inputs
runs without numpy; only float algebras (float entries or
``"orthonormalize": true``) and ``verify wick`` load it.
"""

import argparse
import json
import sys

from .colours import ColourTable
from .diagram import Diagram, DiagramError, TypedDiagram
from .dsl import parse_diagram, parse_table, serialize_diagram
from .generate import enumerate_closed
from .iso import canonical_code
from .prop import closures, compose, tensor
from .series import (MultiSeries, diagram_monomial, format_monomial,
                     partition_series, sorted_terms)
from . import verify

# Every fdcalc error class subclasses ValueError.
_ERRORS = (OSError, ValueError)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_table(path: str | None) -> ColourTable | None:
    return parse_table(_read(path)) if path else None


def _load_diagram(path: str, table: ColourTable | None):
    return parse_diagram(_read(path), table)


def _load_untyped(path: str, table: ColourTable | None) -> Diagram:
    """A diagram file's diagram, without its type header if it has one."""
    d = _load_diagram(path, table)
    return d.base if isinstance(d, TypedDiagram) else d


def _one_line(d: Diagram) -> str:
    return " ".join(serialize_diagram(d).split())


def _series_rows(s) -> tuple[list, dict]:
    terms = [(format_monomial(m), str(c)) for m, c in sorted_terms(s)]
    rows = [[mono, c] for mono, c in terms]
    obj = {"max_degree": s.max_degree,
           "terms": [{"monomial": mono, "coefficient": c}
                     for mono, c in terms]}
    return rows, obj


# -- command handlers --------------------------------------------------------

def _cmd_aut(args):
    code = canonical_code(_load_diagram(args.file, _load_table(args.table)))
    rows = [["aut", code.aut_order], ["code", code.code.hex()]]
    return rows, {"aut": code.aut_order, "code": code.code.hex()}, 0


def _typed(path: str, table: ColourTable | None) -> TypedDiagram:
    d = _load_diagram(path, table)
    if not isinstance(d, TypedDiagram):
        raise DiagramError(f"{path}: needs a type header to be composed")
    return d


def _cmd_wire(args):
    table = _load_table(args.table)
    out = args.operation(_typed(args.first, table),
                         _typed(args.second, table))
    text = serialize_diagram(out)
    return [[text.rstrip("\n")]], {"diagram": text}, 0


def _cmd_closures(args):
    d = _load_untyped(args.file, _load_table(args.table))
    found = [(mult, aut, _one_line(closed))
             for closed, mult, aut in closures(d)]
    rows = [list(row) for row in found]
    obj = {"closures": [{"multiplicity": m, "aut": a, "diagram": s}
                        for m, a, s in found]}
    return rows, obj, 0


def _cmd_enumerate(args):
    table = parse_table(_read(args.table))
    root = _load_untyped(args.root, table) if args.root else None
    classes = enumerate_closed(table, max_degree=args.max_degree, root=root,
                               connected=args.connected, reduced=args.reduced)
    rows, items = [], []
    for cls in classes:
        marked = any(v.root for v in cls.rep.vertices) or cls.rep.root_pairs
        text = "-" if marked else _one_line(cls.rep)
        mono = format_monomial(diagram_monomial(cls.rep, table))
        rows.append([cls.degree, cls.aut, mono, text])
        items.append({"degree": cls.degree, "aut": cls.aut,
                      "monomial": mono, "diagram": text})
    return rows, {"classes": items}, 0


def _cmd_series(args):
    """``partition`` and ``free-energy``: the partition function ``Z``, of
    the table's closed diagrams or of an algebra under its potential, taken
    to the printed series by the subparser's default ``of_z``."""
    if bool(args.table) == bool(args.algebra):
        raise DiagramError("give exactly one of --table and --algebra")
    if args.table:
        z = partition_series(parse_table(_read(args.table)), args.max_degree)
    else:
        from .algebra import expectation_value, load_algebra
        z = expectation_value(
            Diagram(), load_algebra(_read(args.algebra)),
            with_potential=True, max_degree=args.max_degree)
    rows, obj = _series_rows(args.of_z(z))
    return rows, obj, 0


def _cmd_expect(args):
    from .algebra import expectation_value, load_algebra
    a = load_algebra(_read(args.algebra))
    d = _load_untyped(args.file, a.table)
    s = expectation_value(d, a, with_potential=args.potential,
                          max_degree=args.max_degree)
    rows, obj = _series_rows(s)
    return rows, obj, 0


def _finish_check(check: verify.CheckResult):
    rows = [[line] for line in check.lines]
    rows.append(["PASS" if check.ok else "FAIL"])
    obj = {"name": check.name, "ok": check.ok, "lines": list(check.lines)}
    return rows, obj, 0 if check.ok else 1


def _cmd_verify_fixed(args):
    """``verify wick``, ``fubini`` and ``taylor``, which take no input.  The
    check function is the subparser's default for ``check``; it replaces
    the subcommand name that the ``verify`` subparsers store there."""
    return _finish_check(args.check())


def _cmd_verify_expfz(args):
    table = parse_table(_read(args.table))
    return _finish_check(verify.check_exp_free_energy(table, args.max_degree))


def _cmd_verify_frt(args):
    from .algebra import load_algebra
    a = load_algebra(_read(args.algebra))
    root = _load_untyped(args.root, a.table) if args.root else None
    check = verify.check_frt(a, root, with_potential=args.potential,
                             max_degree=args.max_degree)
    return _finish_check(check)


# -- wiring ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("tsv", "json"), default="tsv",
                     help="output as tab-separated rows (default) or JSON")

    p = argparse.ArgumentParser(
        prog="fdcalc", description="diagram calculus toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("aut", parents=[fmt],
                       help="automorphism count and canonical code")
    q.add_argument("file")
    q.add_argument("--table", help="colour table fixing special colours")
    q.set_defaults(handler=_cmd_aut)

    for name, operation, blurb in (
            ("compose", compose, "plug the second diagram's outputs"
             " into the first diagram's inputs"),
            ("tensor", tensor, "place two typed diagrams side by side")):
        q = sub.add_parser(name, parents=[fmt], help=blurb)
        q.add_argument("first")
        q.add_argument("second")
        q.add_argument("--table")
        q.set_defaults(handler=_cmd_wire, operation=operation)

    q = sub.add_parser("closures", parents=[fmt],
                       help="close off the legs in every possible way")
    q.add_argument("file")
    q.add_argument("--table")
    q.set_defaults(handler=_cmd_closures)

    q = sub.add_parser("enumerate", parents=[fmt],
                       help="closed diagram classes up to a degree")
    q.add_argument("--table", required=True)
    q.add_argument("--max-degree", type=int, required=True)
    q.add_argument("--connected", action="store_true")
    q.add_argument("--reduced", action="store_true")
    q.add_argument("--root", help="diagram file whose marked copy every"
                                  " class must contain")
    q.set_defaults(handler=_cmd_enumerate)

    for name, of_z, blurb in (
            ("partition", lambda z: z,
             "series of all closed diagrams weighted by 1/|Aut|"),
            ("free-energy", MultiSeries.log,
             "series of connected closed diagrams weighted by 1/|Aut|")):
        q = sub.add_parser(name, parents=[fmt], help=blurb)
        q.add_argument("--table")
        q.add_argument("--algebra")
        q.add_argument("--max-degree", type=int, required=True)
        q.set_defaults(handler=_cmd_series, of_z=of_z)

    q = sub.add_parser("expect", parents=[fmt],
                       help="expectation of a diagram in an algebra")
    q.add_argument("file")
    q.add_argument("--algebra", required=True)
    q.add_argument("--potential", action="store_true",
                   help="weight by the interaction sum of the colour table")
    q.add_argument("--max-degree", type=int, default=12)
    q.set_defaults(handler=_cmd_expect)

    v = sub.add_parser("verify", help="built-in cross-checks")
    vsub = v.add_subparsers(dest="check", required=True)

    q = vsub.add_parser("wick", parents=[fmt],
                        help="moment recursion against quadrature")
    q.set_defaults(handler=_cmd_verify_fixed, check=verify.check_wick)

    q = vsub.add_parser("frt", parents=[fmt],
                        help="diagram sum against the Gaussian average")
    q.add_argument("--algebra", required=True)
    q.add_argument("--root", help="open diagram file to take the"
                                  " expectation of")
    q.add_argument("--potential", action="store_true")
    q.add_argument("--max-degree", type=int, default=8)
    q.set_defaults(handler=_cmd_verify_frt)

    q = vsub.add_parser("expfz", parents=[fmt],
                        help="exp of the connected sum against the full sum")
    q.add_argument("--table", required=True)
    q.add_argument("--max-degree", type=int, default=8)
    q.set_defaults(handler=_cmd_verify_expfz)

    q = vsub.add_parser("fubini", parents=[fmt],
                        help="integration identities on stock coverings")
    q.set_defaults(handler=_cmd_verify_fixed, check=verify.check_coverings)

    q = vsub.add_parser("taylor", parents=[fmt],
                        help="star-diagram Taylor sums against evaluation")
    q.set_defaults(handler=_cmd_verify_fixed, check=verify.check_taylor)

    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rows, obj, rc = args.handler(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for row in rows:
            print("\t".join(str(x) for x in row))
    return rc


if __name__ == "__main__":
    sys.exit(main())
