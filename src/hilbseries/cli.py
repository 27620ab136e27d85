"""Command-line interface.

Four subcommands: ``series`` prints catalog series coefficients,
``verify`` runs the identity-check suites, ``oracle`` evaluates a single
fixed-point integral, and ``extract`` recovers universal series from
oracle data.  All numeric output is exact (strings "p/q"); every run
echoes its fully resolved configuration, so identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage error, no generic character draw for the oracle, or
a --json PATH that cannot be written.

The default truncation order is 10 for pure series work and 4 for
oracle-driven commands; the HILBSERIES_ORDER environment variable
overrides either default, and --order overrides everything.  A call
whose first argument names a subcommand builds only that one's parser.

Each handler ``_cmd_<name>(args, parser)`` only computes: it returns
(exit code, config, payload, lines), where config is the echoed
configuration, payload the JSON keys beside "config", and lines the table
after the echo line.  ``main`` is the one output path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, extraction, verify
from .localization import (
    DEFAULT_SEED,
    DrawError,
    chern_integral,
    get_surface,
    parse_class,
    parse_int,
    segre_integral,
    surface_names,
    verlinde_chi,
)

ORDER_ENV = "HILBSERIES_ORDER"
SERIES_DEFAULT_ORDER = 10
ORACLE_DEFAULT_ORDER = 4

_FAMILIES = ("segreA", "chernA", "verlindeB", "y", "Y")


def _int_option(text):
    """argparse's int type by parse_int's rule: ASCII digits only."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _series_arguments(p):
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--rank", type=_int_option, default=None,
                   help="class rank (segreA/chernA) or twist (verlindeB)")
    p.add_argument("--index", type=_int_option, default=None,
                   help="which factor of the family, e.g. 3 for A3")
    p.add_argument("--order", type=_int_option, default=None)
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")


def _verify_arguments(p):
    p.add_argument("--suite", default="all",
                   help="'all' or one of: %s" % ", ".join(verify.suite_names()))
    p.add_argument("--order", type=_int_option, default=None)
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH",
                   help="write a JSON report to PATH (or stdout)")


def _oracle_arguments(p):
    p.add_argument("--surface", required=True, choices=surface_names())
    p.add_argument("--class", dest="class_spec", required=True,
                   help='signed sum such as "O(2,1)+O(0,1)-O(1,0)"; one that '
                        'starts with a minus needs the = form, --class=-O(1)+O(2)')
    p.add_argument("--n", type=_int_option, required=True, help="number of points")
    p.add_argument("--kind", required=True, choices=("segre", "chern", "verlinde"))
    p.add_argument("--r", type=_int_option, default=None, help="twist (verlinde only)")
    p.add_argument("--seed", type=_int_option, default=DEFAULT_SEED)
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")


def _extract_arguments(p):
    p.add_argument("--rank", type=_int_option, required=True,
                   help="class rank (segre) or twist (verlinde)")
    p.add_argument("--order", type=_int_option, default=None)
    p.add_argument("--kind", choices=("segre", "verlinde"), default="segre")
    p.add_argument("--seed", type=_int_option, default=DEFAULT_SEED)
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")


# (name, help, function that adds its arguments), in usage order
_SUBCOMMANDS = (
    ("series", "print coefficients of a catalog series", _series_arguments),
    ("verify", "run identity-check suites", _verify_arguments),
    ("oracle", "one fixed-point integral or Euler char", _oracle_arguments),
    ("extract", "recover universal series from the oracle", _extract_arguments),
)
_COMMANDS = tuple(name for name, _, _ in _SUBCOMMANDS)


def build_parser(command=None):
    """The parser of every subcommand, or of ``command`` alone.  The explicit
    metavar keeps all four names in the top-level usage of the one-subcommand
    parser; the full parser leaves it unset, so a missing command is "command"."""
    parser = argparse.ArgumentParser(
        prog="hilbseries",
        description="Universal tautological-integral series over Hilbert "
                    "schemes of surface points, with a toric fixed-point oracle.")
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, text, add_arguments in _SUBCOMMANDS:
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=text))
    return parser


def _resolve_order(args, parser, default):
    if args.order is not None:
        order = args.order
    elif os.environ.get(ORDER_ENV):
        try:
            order = parse_int(os.environ[ORDER_ENV])
        except ValueError:
            parser.error("%s must be an integer, got %r"
                         % (ORDER_ENV, os.environ[ORDER_ENV]))
    else:
        order = default
    if order < 1:
        parser.error("order must be at least 1")
    return order


def _emit(text, path, parser):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        parser.exit(2, "%s: error: cannot write %s: %s\n"
                    % (parser.prog, path, exc.strerror or exc))


def _cmd_series(args, parser):
    order = _resolve_order(args, parser, SERIES_DEFAULT_ORDER)
    family = args.family
    config = {"command": "series", "family": family, "order": order,
              "format": args.format}
    if family in ("segreA", "chernA", "verlindeB"):
        if args.rank is None or args.index is None:
            parser.error("--rank and --index are required for family %s" % family)
        config["rank"] = args.rank
        config["index"] = args.index
        lookup = {"segreA": catalog.segre_A, "chernA": catalog.chern_A,
                  "verlindeB": catalog.verlinde_B}[family]
        try:
            entry = lookup(args.rank, args.index, order)
        except catalog.UnknownSeriesError as exc:
            parser.error(str(exc))
        series, status, offset = entry.series, entry.status, 0
    else:
        if args.rank is not None or args.index is not None:
            parser.error("--rank/--index do not apply to branch family %s" % family)
        branch = catalog.segre_rank2_branch if family == "y" else catalog.verlinde_r3_branch
        series, status, offset = branch(order), catalog.PROVEN, 1
    config["status"] = status
    values = [extraction.frac_str(x, series.den) for x in series.nums[offset:]]
    if args.format == "csv":
        lines = ["n,coefficient"] + ["%d,%s" % (n + offset, v) for n, v in enumerate(values)]
    else:
        lines = [", ".join(values)]
    return 0, config, {"offset": offset, "var": series.var, "coefficients": values}, lines


def _cmd_verify(args, parser):
    order = _resolve_order(args, parser, SERIES_DEFAULT_ORDER)
    if args.suite == "all":
        names = None
    elif args.suite in verify.suite_names():
        names = [args.suite]
    else:
        parser.error("unknown suite %r; choose from all, %s"
                     % (args.suite, ", ".join(verify.suite_names())))
    config = {"command": "verify", "suite": args.suite, "order": order}
    reports = [report.to_dict() for report in verify.run_suite(names, order=order)]
    lines = []
    for report in reports:
        line = "%-18s %s  (%d checks)" % (
            report["name"], "PASS" if report["passed"] else "FAIL", report["checks"])
        if not report["passed"] and report["counterexample"] is not None:
            line += "  counterexample: (%s)" % ", ".join(report["counterexample"])
        lines.append(line)
    all_passed = all(report["passed"] for report in reports)
    return 0 if all_passed else 1, config, {"passed": all_passed, "reports": reports}, lines


def _cmd_oracle(args, parser):
    surface = get_surface(args.surface)
    try:
        kclass = parse_class(surface, args.class_spec)
    except ValueError as exc:
        parser.error(str(exc))
    if args.n < 0:
        parser.error("--n must be nonnegative")
    config = {"command": "oracle", "surface": surface.name,
              "class": kclass.spec(), "n": args.n, "kind": args.kind,
              "seed": args.seed}
    if args.kind == "verlinde":
        if args.r is None:
            parser.error("--r is required for kind verlinde")
        config["r"] = args.r
        try:
            value = verlinde_chi(kclass, args.r, args.n, args.seed)
        except ValueError as exc:  # not a single line bundle
            parser.exit(2, "%s: error: %s\n" % (parser.prog, exc))
    else:
        if args.r is not None:
            parser.error("--r only applies to kind verlinde")
        integral = segre_integral if args.kind == "segre" else chern_integral
        value = integral(kclass, args.n, args.seed)
    result = extraction.frac_str(value)
    numerics = {"rank": kclass.rank, "c2": kclass.c2, "c1sq": kclass.c1sq,
                "c1K": kclass.c1K, "Ksq": surface.ksq, "chiO": surface.chi_O}
    return 0, config, {"value": result, "class_numerics": numerics}, [result]


def _cmd_extract(args, parser):
    order = _resolve_order(args, parser, ORACLE_DEFAULT_ORDER)
    config = {"command": "extract", "kind": args.kind, "rank": args.rank,
              "order": order, "seed": args.seed}
    panel = extraction.default_panel(args.kind, args.rank)
    predict = {"segre": extraction.predict_unknown,
               "verlinde": extraction.predict_verlinde}[args.kind]
    report = predict(args.rank, order, panel, args.seed)
    payload = {
        "panel": [{"surface": cls.surface.name, "class": cls.spec()} for cls in panel],
        "exponent_columns": list(panel.columns),
        "exponent_matrix": [[str(x) for x in row] for row in panel.exponent_matrix],
        "series": report["series"],
    }
    lines = []
    for entry in report["series"]:
        line = "%s [%s]: %s" % (entry["series"], entry["status"],
                                ", ".join(entry["extracted"]))
        if "agreement_order" in entry:
            line += "  (matches reference through order %d)" % entry["agreement_order"]
        lines.append(line)
    return 0, config, payload, lines


def main(argv=None):
    """Run one subcommand and return its exit code.  The handler returns
    (code, config, payload, lines) and prints nothing; here the JSON
    ``{"config": config, **payload}`` goes where ``--json`` or ``series
    --format json`` asks, and otherwise stdout gets the config echo and lines."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    handler = {"series": _cmd_series, "verify": _cmd_verify,
               "oracle": _cmd_oracle, "extract": _cmd_extract}[args.command]
    try:
        code, config, payload, lines = handler(args, parser)
    except DrawError as exc:
        parser.exit(2, "%s: error: %s\n" % (parser.prog, exc))
    path = args.json if args.command != "series" else "-" if args.format == "json" else None
    if path is not None:
        _emit(json.dumps({"config": config, **payload}, indent=2, sort_keys=True) + "\n",
              path, parser)
    # verify's table still shows beside a JSON file, as the README's --json report.json run does
    if path is None or path != "-" and args.command == "verify":
        print("\n".join(["# hilbseries " + " ".join(
            "%s=%s" % (key, config[key]) for key in sorted(config))] + lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
