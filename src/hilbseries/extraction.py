"""Recovery of the universal series from fixed-point integrals.

The generating functions of tautological integrals factor as products of
universal series raised to geometric exponents (c2, c1^2, chi(O), c1.K,
K^2 on the Segre/Chern side; chi(L), chi(O), c1.K - K^2/2, K^2 on the
Euler-characteristic side).  Taking logarithms turns each coefficient
order into an exact linear system over the exponent vectors of a panel
of classes, each on its own surface.  Because the factorization is
exact, every redundant panel row must be exactly consistent; any
disagreement is raised as an error rather than averaged away.  Each
system is solved fraction-free, in integers, reducing rows in the
caller's order.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction as F
from math import gcd, lcm

from . import catalog
from .series import Series, as_fraction
from .localization import (
    EqKClass,
    get_surface,
    segre_integral,  # noqa: F401  not called here; perfbench's tracer test reads this binding
    segre_series,
    verlinde_series,
)

__all__ = [
    "Panel",
    "PanelError",
    "UniversalityError",
    "build_panel",
    "default_panel",
    "extract_universal",
    "extract_verlinde",
    "frac_str",
    "matrix_rank",
    "predict_unknown",
    "predict_verlinde",
    "solve_exact",
]


class PanelError(ValueError):
    """The panel's exponent matrix cannot separate the universal series."""


class UniversalityError(ArithmeticError):
    """Redundant panel rows disagree; the factorization failed to hold."""


def frac_str(num, den=1):
    """num / den, den > 0, as "p/q" in lowest terms: the package's one formatter.  An
    int or Fraction num is read as it is, anything else through as_fraction, which
    refuses a float."""
    x = num if isinstance(num, (int, F)) else as_fraction(num)
    p, q = x.numerator, x.denominator * den
    g = gcd(p, q)
    return "%d/%d" % (p // g, q // g)


def _cleared(row):
    """The row times the lcm of its entries' denominators, as integers; a float
    entry raises TypeError (as_fraction)."""
    row = [as_fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _reduce(basis, row, width):
    """Reduce an integer row against ``basis``; True if it raised the rank.

    ``basis`` holds echelon rows as (pivot column, row), each zero in the
    pivot columns of the rows before it; a row that raises the rank joins
    it.  Each pivot p clears the row's entry f without division, by
    row := (p/g) row - (f/g) pivot row, g = gcd(p, f).  Entries past
    ``width``, a right-hand side, ride along.
    """
    for col, pivot_row in basis:
        f = row[col]
        if f:
            p = pivot_row[col]
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(row, pivot_row)]
    for col in range(width):
        if row[col]:
            basis.append((col, row))
            return True
    return False


def _width(matrix):
    width = len(matrix[0]) if matrix else 0
    if any(len(row) != width for row in matrix):
        raise ValueError("ragged matrix")
    return width


def matrix_rank(matrix):
    width, basis = _width(matrix), []
    for row in matrix:
        _reduce(basis, _cleared(row), width)
    return len(basis)


def _solve(matrix, rhs_columns):
    """``solve_exact`` for every right-hand side in ``rhs_columns`` by one
    reduction, the right-hand sides riding along as trailing row entries.
    Returns, per unknown, its value for each right-hand side."""
    if any(len(rhs) != len(matrix) for rhs in rhs_columns):
        raise ValueError("matrix and right-hand side sizes differ")
    width, basis, redundant = _width(matrix), [], []
    for i, row in enumerate(matrix):
        if not _reduce(basis, _cleared([*row, *(rhs[i] for rhs in rhs_columns)]), width):
            redundant.append(i)
    if len(basis) < width:
        raise ValueError("system is underdetermined: rank %d < %d unknowns"
                         % (len(basis), width))
    solution = [None] * width
    for col, row in reversed(basis):
        solution[col] = [F(row[width + k] - sum(row[j] * solution[j][k]
                                                for j in range(col + 1, width) if row[j]),
                           row[col]) for k in range(len(rhs_columns))]
    for k, rhs in enumerate(rhs_columns):
        for i in redundant:
            residual = rhs[i] - sum(x * values[k] for x, values in zip(matrix[i], solution))
            if residual:
                raise UniversalityError(
                    "redundant row %d has nonzero residual %s" % (i, residual))
    return solution


def solve_exact(matrix, rhs):
    """Solve an exactly consistent linear system over the rationals.

    Equations are reduced fraction-free in the caller's row order.  The
    rows that raise the rank are solved by back-substitution; any other
    row that fails to hold raises UniversalityError with its index and
    residual rhs_i - row_i.x.  Underdetermined systems raise ValueError.
    """
    return [values[0] for values in _solve(matrix, [rhs])]


def _segre_exponents(cls, s):
    if cls.rank != s:
        raise PanelError("class %r has rank %d, panel wants %d" % (cls, cls.rank, s))
    return [cls.c2, cls.c1sq, cls.surface.chi_O, cls.c1K, cls.surface.ksq]


def _verlinde_exponents(cls, r):
    surface = cls.surface
    chi_L = surface.chi_O + F(cls.c1sq - cls.c1K, 2)
    if chi_L.denominator != 1:
        raise PanelError("chi(L) of %r is not an integer" % cls)
    return [chi_L, F(surface.chi_O), cls.c1K - F(surface.ksq, 2), F(surface.ksq)]


# Per kind: the report key of the panel parameter, the exponent columns,
# exponents(class, param), oracle(classes, param, order, seed) with the
# values for n = 0..order per class, factors(param, order), the catalog's
# holder of every factor, the series variable, the series label and the
# index of the first series.
_Kind = namedtuple("_Kind", "param columns exponents oracle factors var label first")

# The lambdas look the oracle and catalog up at call time, so a wrapper
# installed on those functions later (a tracer, a test double) is seen.
_KINDS = {
    "segre": _Kind(
        "rank", ("c2", "c1sq", "chiO", "c1K", "Ksq"), _segre_exponents,
        lambda classes, s, order, seed: segre_series(classes, order, seed),
        lambda s, order: catalog._SegreLogs(s, order),
        "z", "A%d", 0),
    "verlinde": _Kind(
        "twist", ("chiL", "chiO", "c1K-Ksq/2", "Ksq"), _verlinde_exponents,
        lambda classes, r, order, seed: verlinde_series(classes, r, order, seed),
        lambda r, order: catalog._VerlindeLogs(r, order),
        "w", "B%d", 1),
}


class Panel:
    """Rows of classes, on several surfaces, whose exponent vectors span every
    universal series.

    ``kind`` is "segre", with columns (c2, c1^2, chi(O), c1.K, K^2) for
    classes of rank ``param``, or "verlinde", with columns (chi(L),
    chi(O), c1.K - K^2/2, K^2) at twist ``param``.  Construction asserts
    full column rank, which a single surface can never reach since its
    chi(O) and K^2 columns are proportional.
    """

    def __init__(self, kind, param, rows):
        spec = _KINDS[kind]
        self.kind = kind
        self.param = param
        self.rows = list(rows)
        self.columns = spec.columns
        self.exponent_matrix = [spec.exponents(cls, param) for cls in self.rows]
        rank = matrix_rank(self.exponent_matrix)
        if rank < len(self.columns):
            raise PanelError("exponent matrix has rank %d < %d; add geometries or classes"
                             % (rank, len(self.columns)))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


_PROBE_LINES = {
    "p2": [(0,), (1,), (2,), (3,), (-1,), (4,), (-2,), (5,)],
    "p1xp1": [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2),
              (2, 0), (0, 2), (-1, 1), (2, 2)],
    "f1": [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2),
           (2, 0), (0, 2), (1, -1), (2, 2)],
}


def _probe_classes(surface, s):
    """Deterministic stream of rank-s classes with varied Chern data: p positive and
    p - s negative probe lines, for p = max(s, 1) and then one more."""
    lines = _PROBE_LINES[surface.name]
    low = max(s, 1)
    for p in (low, low + 1):
        for plus in itertools.combinations_with_replacement(lines, p):
            for minus in itertools.combinations_with_replacement(lines, p - s):
                yield EqKClass(surface, [(1, c) for c in plus] + [(-1, c) for c in minus])


def build_panel(s):
    """Assemble a six-row, rank-5 Segre panel of small classes over all three surfaces.

    Rows are classes, taken round-robin from per-surface probe streams; a
    probe is kept while it raises the exponent-matrix rank, then one extra
    row is kept as redundancy for the universality check.
    """
    streams = [_probe_classes(get_surface(name), s) for name in ("p2", "p1xp1", "f1")]
    rows, basis = [], []
    for cls in itertools.chain.from_iterable(itertools.zip_longest(*streams)):
        if len(rows) == 6:
            break
        if cls is None:  # an exhausted stream
            continue
        if len(basis) == 5 or _reduce(basis, _cleared(_segre_exponents(cls, s)), 5):
            rows.append(cls)
    if len(basis) < 5:
        raise PanelError("probe streams could not reach exponent rank 5")
    return Panel("segre", s, rows)


_VERLINDE_LINES = (("p2", (0,)), ("p2", (1,)), ("p2", (2,)),
                   ("p1xp1", (0, 0)), ("p1xp1", (1, 1)), ("p1xp1", (1, 2)),
                   ("f1", (1, 1)))


def default_panel(kind, param):
    """The panel extraction uses when given none.

    Segre panels come from ``build_panel``; Verlinde panels are seven
    line bundles on the three surfaces, which reach rank 4 at every twist.
    """
    if kind == "segre":
        return build_panel(param)
    return Panel(kind, param, [EqKClass(get_surface(name), [(1, line)])
                               for name, line in _VERLINDE_LINES])


def _extract(kind, param, order, panel, seed):
    """Log of each row's series, from one oracle call for the whole panel, one exact
    solve for every order at once, exp."""
    if panel is None:
        panel = default_panel(kind, param)
    if (panel.kind, panel.param) != (kind, param):
        raise PanelError("panel was built for %s %d, not %s %d"
                         % (panel.kind, panel.param, kind, param))
    spec = _KINDS[kind]
    logs = []
    for row in spec.oracle(panel.rows, param, order, seed):
        if row[0] != 1:
            raise ArithmeticError("n=0 integral should be 1, got %s" % row[0])
        logs.append(Series(row, order, spec.var).log())
    by_unknown = _solve(panel.exponent_matrix,
                        [[lg.coefficient(n) for lg in logs] for n in range(1, order + 1)])
    return [Series([0, *values], order, spec.var).exp() for values in by_unknown]


def extract_universal(s, order, panel=None, seed=None):
    """Recover A0..A4 at rank s from oracle Segre integrals over a panel."""
    return _extract("segre", s, order, panel, seed)


def extract_verlinde(r, order, panel=None, seed=None):
    """Recover B1..B4 at twist r from oracle Euler characteristics."""
    return _extract("verlinde", r, order, panel, seed)


def _agreement_order(a, b, order):
    """Largest m <= order with all coefficients up to m equal, or -1."""
    for n in range(order + 1):
        if a.nums[n] * b.den != b.nums[n] * a.den:
            return n - 1
    return order


def _report(kind, param, order, extracted):
    """Each extracted series beside its catalog closed form, if any, all read
    from one holder, so a branch or mean root is built once per report."""
    spec = _KINDS[kind]
    factors = spec.factors(param, order)
    report = {"kind": kind, spec.param: param, "order": order, "series": []}
    for index, series in enumerate(extracted, start=spec.first):
        entry = {
            "series": spec.label % index,
            "extracted": [frac_str(x, series.den) for x in series.nums],
        }
        try:
            closed = factors.entry(index)
        except catalog.UnknownSeriesError:
            entry["status"] = catalog.CONJECTURAL
        else:
            entry["status"] = closed.status
            entry["reference"] = [frac_str(x, closed.series.den) for x in closed.series.nums]
            entry["agreement_order"] = _agreement_order(series, closed.series, order)
        report["series"].append(entry)
    return report


def predict_unknown(s, order, panel=None, seed=None):
    """Confront extracted A-series with closed forms where any exist.

    The low factors A0..A2 are proven at every rank and act as an
    internal cross-check; A3 and A4 are compared against conjectural
    closed forms when the catalog has them (e.g. rank 0) and otherwise
    emitted as conjecture-grade data (e.g. rank 3).
    """
    return _report("segre", s, order, extract_universal(s, order, panel, seed))


def predict_verlinde(r, order, panel=None, seed=None):
    """Confront extracted B-series with printed closed forms at twist r."""
    return _report("verlinde", r, order, extract_verlinde(r, order, panel, seed))
