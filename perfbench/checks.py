"""Reference checks of job outputs, run outside the timed region.

Each checker takes a job's argv and stdout and returns None when the
output is right, or a one-line reason.  The references are independent
of the code path that produced the output:

- ``extract``: every oracle-extracted series that has a catalog closed
  form must equal it through the requested order, and the program's
  report must say so;
- ``oracle``: the value must equal the z^n (Segre) or w^n (Verlinde)
  coefficient of the catalog's assembled closed form for the class
  numerics the job printed: universality, the closed-form route;
- ``verify``: every report must pass;
- ``series``: the branch families y and Y must satisfy their defining
  polynomial relations and y must start 1, -6, 41, -314, 2630; and every
  ``series`` job of the workload must print the bytes it printed at the
  commit that added the benchmark (``series_sha256.json``).  The values
  are exact rationals, so a correct change never alters them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

Y_PREFIX = ("1/1", "-6/1", "41/1", "-314/1", "2630/1")
SERIES_DIGESTS_PATH = Path(__file__).resolve().parent / "series_sha256.json"


def argv_key(argv):
    return " ".join(argv)


def series_digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def _series_digests():
    with open(SERIES_DIGESTS_PATH) as handle:
        return json.load(handle)


def _options(argv):
    out = {}
    for item in argv[1:]:
        key, _, value = item.partition("=")
        out[key.lstrip("-")] = value
    return out


def check_extract(argv, stdout, catalog):
    opts = _options(argv)
    order = int(opts["order"])
    doc = json.loads(stdout)
    config = doc["config"]
    if (config["kind"], config["rank"], config["order"]) != (opts["kind"], int(opts["rank"]), order):
        return "config echo %r does not match the argv" % (config,)
    param = int(opts["rank"])
    if opts["kind"] == "segre":
        lookup, indices = catalog.segre_A, range(0, 5)
    else:
        lookup, indices = catalog.verlinde_B, range(1, 5)
    if len(doc["series"]) != len(indices):
        return "%d series reported, expected %d" % (len(doc["series"]), len(indices))
    for index, entry in zip(indices, doc["series"]):
        extracted = [Fraction(c) for c in entry["extracted"]]
        if len(extracted) != order + 1:
            return "%s has %d coefficients" % (entry["series"], len(extracted))
        try:
            closed = lookup(param, index, order).series
        except catalog.UnknownSeriesError:
            continue
        if extracted != [closed.coefficient(k) for k in range(order + 1)]:
            return "%s differs from its closed form" % entry["series"]
        if entry.get("agreement_order") != order:
            return "%s reports agreement only through order %s" % (
                entry["series"], entry.get("agreement_order"))
    return None


def check_oracle(argv, stdout, catalog):
    opts = _options(argv)
    doc = json.loads(stdout)
    config, num = doc["config"], doc["class_numerics"]
    n = int(opts["n"])
    if (config["surface"], config["class"], config["n"], config["kind"]) != (
            opts["surface"], opts["class"], n, opts["kind"]):
        return "config echo %r does not match the argv" % (config,)
    if opts["kind"] == "segre":
        closed = catalog.segre_full(num["rank"], num["c2"], num["c1sq"], num["chiO"],
                                    num["c1K"], num["Ksq"], n)
    else:
        if num["rank"] != 1:
            return "a Verlinde query needs a line bundle, got rank %s" % num["rank"]
        # Riemann-Roch: chi(L) = chi(O) + (c1^2 - c1.K) / 2
        chi = num["chiO"] + Fraction(num["c1sq"] - num["c1K"], 2)
        closed = catalog.verlinde_full(int(opts["r"]), int(chi), num["chiO"], num["c1K"],
                                       num["Ksq"], n)
    if Fraction(doc["value"]) != closed.coefficient(n):
        return "value %s, the closed form gives %s" % (doc["value"], closed.coefficient(n))
    return None


def check_verify(argv, stdout, catalog):
    opts = _options(argv)
    lines = stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith("# hilbseries command=verify"):
        return "unexpected report layout: %r" % stdout[:200]
    fields = lines[1].split()
    if fields[:2] != [opts["suite"], "PASS"]:
        return "report line %r" % lines[1]
    return None


def series_product(a, b, order):
    """Coefficients of a * b through ``order``, from coefficient lists."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


def branch_residual(coeffs, rank2):
    """Lowest t-power where the branch relation fails, or None.

    ``coeffs`` are the coefficients of t^1..t^order.  The relation is
    y (1+y)^2 (1+3t) = t (1-y)(1-y^3) for the rank-2 branch y and the same
    without the factor (1+3t) for the twist-3 branch Y.
    """
    order = len(coeffs)
    y = [Fraction(0)] + list(coeffs)
    one_plus = [Fraction(1)] + y[1:]
    one_minus = [Fraction(1)] + [-c for c in y[1:]]
    cube = series_product(series_product(y, y, order), y, order)
    one_minus_cube = [Fraction(1)] + [-c for c in cube[1:]]
    lhs = series_product(series_product(y, one_plus, order), one_plus, order)
    if rank2:
        lhs = series_product(lhs, [Fraction(1), Fraction(3)] + [Fraction(0)] * (order - 1), order)
    rhs = [Fraction(0)] + series_product(one_minus, one_minus_cube, order)[:order]
    for power, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return power
    return None


def check_series(argv, stdout, catalog):
    opts = _options(argv)
    order = int(opts["order"])
    lines = stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith("# hilbseries command=series"):
        return "unexpected table layout: %r" % stdout[:200]
    values = lines[1].split(", ")
    family = opts["family"]
    if family in ("y", "Y"):
        if len(values) != order:
            return "%d coefficients for order %d" % (len(values), order)
        if family == "y" and tuple(values[:len(Y_PREFIX)]) != Y_PREFIX:
            return "y starts %s" % ", ".join(values[:len(Y_PREFIX)])
        power = branch_residual([Fraction(v) for v in values], rank2=family == "y")
        if power is not None:
            return "%s violates its branch relation at t^%d" % (family, power)
    elif len(values) != order + 1:
        return "%d coefficients for order %d" % (len(values), order)
    recorded = _series_digests().get(argv_key(argv))
    if recorded is None:
        return "no recorded output for this argv"
    if series_digest(stdout) != recorded:
        return "output differs from the recorded one"
    return None


CHECKERS = {"extract": check_extract, "oracle": check_oracle, "verify": check_verify,
            "series": check_series}


def check(argv, stdout, catalog):
    """None if the job's output is right, else why not."""
    try:
        return CHECKERS[argv[0]](argv, stdout, catalog)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unreadable output (%s: %s)" % (type(exc).__name__, exc)
