"""Command-line interface.

Four subcommands: ``series`` prints catalog series coefficients,
``verify`` runs the identity-check suites, ``oracle`` evaluates a single
fixed-point integral, and ``extract`` recovers universal series from
oracle data.  All numeric output is exact (strings "p/q"); every run
echoes its fully resolved configuration, so identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage error, a request whose estimated work passes BUDGET or whose
printed numbers would pass Python's int-to-str digit limit (_check_budget,
before any work), or a --json PATH that cannot be written.

The default truncation order is 10 for pure series work and 4 for
extract; the HILBSERIES_ORDER environment variable overrides either
default, and --order overrides everything.  ``main`` reads a plain command line
from the option table that builds the parser (``_read``), and hands help, errors and
every other form to the full parser, whose Namespace the table's read equals.

Each handler ``_cmd_<name>(args)`` only computes: it returns (exit code,
config, payload, lines), where config is the echoed configuration, payload
the JSON keys beside "config", and lines the table after the echo line, or
raises UsageError or Refusal.  ``main`` is the one output path.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import catalog, extraction, verify
from .localization import (
    _INT_RE,
    _echo,
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
EXTRACT_DEFAULT_ORDER = 4
# --seed is echoed only: nothing is drawn at random
DEFAULT_SEED = 20260815
# The work a request may cost, in ns of CPU as _check_budget estimates it (calibrated
# with Python 3.11 on a 2-core x86-64 host)
BUDGET = 10 ** 10

_FAMILIES = ("segreA", "chernA", "verlindeB", "y", "Y")


def _int_option(text):
    """argparse's int type by parse_int's rule: ASCII digits only.  An integer past
    int()'s digit limit is refused in one line; errors echo the text cut by _echo."""
    try:
        return parse_int(text)
    except ValueError:
        if _INT_RE.fullmatch(text):
            raise Refusal("integer %s is beyond int()'s digit limit" % _echo(text))
        raise argparse.ArgumentTypeError("invalid int value: %s" % _echo(text))


# Each subcommand's options as (option string, add_argument keywords), read by
# build_parser and _read alike.
_SERIES_OPTIONS = (
    ("--family", dict(required=True, choices=_FAMILIES)),
    ("--rank", dict(type=_int_option, help="class rank (segreA/chernA) or twist (verlindeB)")),
    ("--index", dict(type=_int_option, help="which factor of the family, e.g. 3 for A3")),
    ("--order", dict(type=_int_option)),
    ("--format", dict(choices=("json", "csv", "table"), default="table")),
)
_VERIFY_OPTIONS = (
    ("--suite", dict(default="all",
                     help="'all' or one of: %s" % ", ".join(verify.suite_names()))),
    ("--order", dict(type=_int_option)),
    ("--json", dict(nargs="?", const="-", metavar="PATH",
                    help="write a JSON report to PATH (or stdout)")),
)
_ORACLE_OPTIONS = (
    ("--surface", dict(required=True, choices=surface_names())),
    ("--class", dict(dest="class_spec", required=True,
                     help='signed sum such as "O(2,1)+O(0,1)-O(1,0)"; one that '
                          'starts with a minus needs the = form, --class=-O(1)+O(2)')),
    ("--n", dict(type=_int_option, required=True, help="number of points")),
    ("--kind", dict(required=True, choices=("segre", "chern", "verlinde"))),
    ("--r", dict(type=_int_option, help="twist (verlinde only)")),
    ("--seed", dict(type=_int_option, default=DEFAULT_SEED)),
    ("--json", dict(nargs="?", const="-", metavar="PATH")),
)
_EXTRACT_OPTIONS = (
    ("--rank", dict(type=_int_option, required=True,
                    help="class rank (segre) or twist (verlinde)")),
    ("--order", dict(type=_int_option)),
    ("--kind", dict(choices=("segre", "verlinde"), default="segre")),
    ("--seed", dict(type=_int_option, default=DEFAULT_SEED)),
    ("--json", dict(nargs="?", const="-", metavar="PATH")),
)

# (name, help, options), in usage order
_SUBCOMMANDS = (
    ("series", "print coefficients of a catalog series", _SERIES_OPTIONS),
    ("verify", "run identity-check suites", _VERIFY_OPTIONS),
    ("oracle", "one fixed-point integral or Euler char", _ORACLE_OPTIONS),
    ("extract", "recover universal series from the oracle", _EXTRACT_OPTIONS),
)
_COMMANDS = tuple(name for name, _, _ in _SUBCOMMANDS)
_OPTIONS = {name: dict(options) for name, _, options in _SUBCOMMANDS}


_ECHOED = re.compile(
    r"((?:argument \S+: )?(?:invalid choice|ignored explicit argument|unrecognized arguments|"
    r"ambiguous option):? )(['\"]?)(.*?)\2(?= \(choose| could|$)", re.S)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's error, with the value or words it echoes past 40 characters cut by
        _echo, so that the line stays under 200 bytes."""
        match = _ECHOED.match(message)
        if match and len(match[3]) > 40:
            message = match[1] + _echo(match[3], 40) + message[match.end():]
        super().error(message)


def build_parser():
    """The parser of every subcommand."""
    parser = _Parser(
        prog="hilbseries",
        description="Universal tautological-integral series over Hilbert "
                    "schemes of surface points, with a toric fixed-point oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, options in _SUBCOMMANDS:
        subparser = sub.add_parser(name, help=text)
        for flag, keywords in options:
            subparser.add_argument(flag, **keywords)
    return parser


def _read(argv):
    """The Namespace ``build_parser().parse_args(argv)`` returns, read from the option
    table, or None for any other form than a subcommand, then ``--name=value`` or
    ``--name value`` (the value not starting with "-"; --json may be bare), each name
    exact and once, each value passing its type and choices, and every required option
    given.  A UsageError first for an option or its abbreviation given "=--" anywhere,
    a value each Python's argparse reads its own way."""
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    for word in argv[1:]:
        name, _, value = word.partition("=")
        if value == "--":
            flags = [name] if name in options else [f for f in options if f.startswith(name)]
            if len(flags) == 1:
                raise UsageError("argument %s: expected one argument" % flags[0])
    given, i = {}, 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        keywords = options.get(flag)
        i += 1
        if keywords is None or flag in given:
            return None
        if not eq:
            if i < len(argv) and not argv[i].startswith("-"):
                value, i = argv[i], i + 1
            elif "const" in keywords:
                given[flag] = keywords["const"]
                continue
            else:
                return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except argparse.ArgumentTypeError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0])
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required"):
            return None
        setattr(args, keywords.get("dest", flag[2:]), given.get(flag, keywords.get("default")))
    return args


class UsageError(Exception):
    """Exit 2 after the top-level usage and "hilbseries: error: <message>"."""


class Refusal(Exception):
    """Exit 2 after "hilbseries: error: <message>" alone: a well-formed request refused."""


def _resolve_order(args):
    order = args.order
    if order is None and os.environ.get(ORDER_ENV):
        try:
            order = _int_option(os.environ[ORDER_ENV])
        except argparse.ArgumentTypeError:
            raise UsageError("%s must be an integer, got %s"
                             % (ORDER_ENV, _echo(os.environ[ORDER_ENV])))
    elif order is None:
        order = EXTRACT_DEFAULT_ORDER if args.command == "extract" else SERIES_DEFAULT_ORDER
    if order < 1:
        raise UsageError("order must be at least 1")
    return order


def _digits(value):
    """The decimal digits of an int, within one, from its bit length: no str() of it."""
    return (abs(value or 1).bit_length() * 1233 >> 12) + 1


def _check_budget(args):
    """A request's estimated (work, printed digits), or a Refusal before any work if the
    work passes BUDGET or the digits Python's int-to-str limit.  At order or n = N, D the
    digits of the rank, twist or class coefficients, the digits are N (2 log10 |rank| +
    3/2) for series, from the rank's bit length, else 2N (D + 1), and the work, stopped
    once past BUDGET: series N^4 (D + 1)^2 / 64; verify 128 N^4; oracle and extract
    2/3 (D + 15)^2 per step of width W, W the class terms plus 12 (Segre), 3N (a Verlinde
    Todd exp) or twice the terms plus 12, or 6 with no minus term (Chern), times degree
    2N, sum_(k <= N) p(k) partitions and two directions per chart (the panel: two
    charts, six classes), plus 25 us a class term."""
    n = min(args.n if args.command == "oracle" else args.order, BUDGET + 1)
    if args.command == "verify":
        printed, work = 0, 128 * n ** 4
    elif args.command == "series":
        rank = None if args.family in ("y", "Y") else args.rank  # a branch takes no rank
        printed = n * (abs(rank or 1).bit_length() * 1233 + 3072) >> 11
        work = n ** 4 * (_digits(rank) + 1) ** 2 // 64
    else:
        verlinde = args.kind == "verlinde"
        if args.command == "oracle":
            terms, passes = args.class_spec.count("("), 2 * len(get_surface(args.surface).charts)
            size = max([_digits(args.r) if verlinde else 1,
                        *map(len, re.findall("[0-9]+", args.class_spec))])
            digits = size + _digits(terms) - 1
        else:
            plus, passes, digits = max(args.rank, 1) + 1, 2, _digits(args.rank)
            terms, size = (6, digits) if verlinde else (6 * (2 * plus - args.rank), 1)
        width = 3 * n if verlinde else terms + 12
        if args.kind == "chern":  # c(E) = s(-E) divides by 1 + ku at E's minus terms only
            width = 2 * terms + (12 if re.search(r"-\s*O", args.class_spec) else 6)
        step = passes * 2 * n * width * (size + 15) ** 2 * 2 // 3
        p, work = [1], step + 25_000 * terms
        while len(p) <= n and work <= BUDGET:  # p(k) by Euler's pentagonal recurrence
            p.append(sum((-1) ** (j + 1) * p[-g] for j in range(1, len(p) + 1)
                         for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= len(p)))
            work += step * p[-1]
        printed = 2 * n * (digits + 1)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if work > BUDGET:
        why = "estimated work above %d ns of CPU" % BUDGET
    elif limit and printed > limit:
        why = "printed numbers above %d digits" % limit
    else:
        return work, printed
    raise Refusal("this %s request is beyond the cost budget (%s)" % (args.command, why))


def _emit(text, path):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise Refusal("cannot write %s: %s" % (_echo(path), exc.strerror or exc))


def _cmd_series(args):
    order = args.order
    family = args.family
    config = {"command": "series", "family": family, "order": order,
              "format": args.format}
    if family in ("segreA", "chernA", "verlindeB"):
        if args.rank is None or args.index is None:
            raise UsageError("--rank and --index are required for family %s" % family)
        config["rank"] = args.rank
        config["index"] = args.index
        lookup = {"segreA": catalog.segre_A, "chernA": catalog.chern_A,
                  "verlindeB": catalog.verlinde_B}[family]
        try:
            entry = lookup(args.rank, args.index, order)
        except catalog.UnknownSeriesError as exc:
            raise UsageError(str(exc))
        series, status, offset = entry.series, entry.status, 0
    else:
        if args.rank is not None or args.index is not None:
            raise UsageError("--rank/--index do not apply to branch family %s" % family)
        branch = catalog.segre_rank2_branch if family == "y" else catalog.verlinde_r3_branch
        series, status, offset = branch(order), catalog.PROVEN, 1
    config["status"] = status
    values = [extraction.frac_str(x, series.den) for x in series.nums[offset:]]
    if args.format == "csv":
        lines = ["n,coefficient"] + ["%d,%s" % (n + offset, v) for n, v in enumerate(values)]
    else:
        lines = [", ".join(values)]
    return 0, config, {"offset": offset, "var": series.var, "coefficients": values}, lines


def _cmd_verify(args):
    if args.suite == "all":
        names = None
    elif args.suite in verify.suite_names():
        names = [args.suite]
    else:
        raise UsageError("unknown suite %s; choose from all, %s"
                         % (_echo(args.suite), ", ".join(verify.suite_names())))
    config = {"command": "verify", "suite": args.suite, "order": args.order}
    reports = [report.to_dict() for report in verify.run_suite(names, order=args.order)]
    lines = []
    for report in reports:
        line = "%-18s %s  (%d checks)" % (
            report["name"], "PASS" if report["passed"] else "FAIL", report["checks"])
        if not report["passed"] and report["counterexample"] is not None:
            line += "  counterexample: (%s)" % ", ".join(report["counterexample"])
        lines.append(line)
    all_passed = all(report["passed"] for report in reports)
    return 0 if all_passed else 1, config, {"passed": all_passed, "reports": reports}, lines


def _cmd_oracle(args):
    surface = get_surface(args.surface)
    try:
        kclass = parse_class(surface, args.class_spec)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    config = {"command": "oracle", "surface": surface.name,
              "class": kclass.spec(), "n": args.n, "kind": args.kind,
              "seed": args.seed}
    if args.kind == "verlinde":
        if args.r is None:
            raise UsageError("--r is required for kind verlinde")
        config["r"] = args.r
        try:
            value = verlinde_chi(kclass, args.r, args.n)
        except ValueError as exc:  # not a single line bundle
            raise Refusal(str(exc))
    else:
        if args.r is not None:
            raise UsageError("--r only applies to kind verlinde")
        integral = segre_integral if args.kind == "segre" else chern_integral
        value = integral(kclass, args.n)
    result = extraction.frac_str(value)
    numerics = {"rank": kclass.rank, "c2": kclass.c2, "c1sq": kclass.c1sq,
                "c1K": kclass.c1K, "Ksq": surface.ksq, "chiO": surface.chi_O}
    return 0, config, {"value": result, "class_numerics": numerics}, [result]


def _cmd_extract(args):
    config = {"command": "extract", "kind": args.kind, "rank": args.rank,
              "order": args.order, "seed": args.seed}
    panel = extraction.default_panel(args.kind, args.rank)
    predict = {"segre": extraction.predict_unknown,
               "verlinde": extraction.predict_verlinde}[args.kind]
    report = predict(args.rank, args.order, panel)
    payload = {"series": report["series"]}
    if args.json is not None:  # the table prints neither the panel nor its exponents
        payload.update(
            panel=[{"surface": cls.surface.name, "class": cls.spec()} for cls in panel],
            exponent_columns=list(panel.columns),
            exponent_matrix=[[extraction.frac_str(x, den).removesuffix("/1") for x in row]
                             for row, den in panel.exponents])
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
    --format json`` asks, and otherwise stdout gets the config echo and lines.  A
    UsageError or Refusal ends the call as argparse's error and exit 2 would."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        command = args.command
        handler = {"series": _cmd_series, "verify": _cmd_verify,
                   "oracle": _cmd_oracle, "extract": _cmd_extract}[command]
        if command != "oracle":
            args.order = _resolve_order(args)
        _check_budget(args)
        code, config, payload, lines = handler(args)
        path = args.json if command != "series" else "-" if args.format == "json" else None
        if path is not None:
            _emit(json.dumps({"config": config, **payload}, indent=2, sort_keys=True) + "\n",
                  path)
    except Refusal as exc:
        sys.stderr.write("hilbseries: error: %s\n" % exc)
        sys.exit(2)
    except UsageError as exc:
        build_parser().error(str(exc))
    # verify's table still shows beside a JSON file, as the README's --json report.json run does
    if path is None or path != "-" and command == "verify":
        print("\n".join(["# hilbseries " + " ".join(
            "%s=%s" % (key, config[key]) for key in sorted(config))] + lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
