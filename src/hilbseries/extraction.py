"""Recovery of the universal series from fixed-point integrals.

The generating functions of tautological integrals factor as products of
universal series raised to geometric exponents (c2, c1^2, chi(O), c1.K,
K^2 on the Segre/Chern side; chi(L), chi(O), c1.K - K^2/2, K^2 on the
Euler-characteristic side).  Taking logarithms turns each coefficient
order into an exact linear system over the exponent vectors of a panel
of (surface, class) pairs.  Because the factorization is exact, every
redundant panel row must be exactly consistent; any disagreement is
raised as an error rather than averaged away.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction as F

from . import catalog
from .series import Series
from .localization import (
    EqKClass,
    get_surface,
    require_draws,
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


def frac_str(x):
    x = F(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _eliminate(matrix, rhs):
    """Row-reduce with full pivoting; returns (pivots, rows, rhs, colperm)."""
    rows = [[F(x) for x in row] for row in matrix]
    rhs = [F(x) for x in rhs]
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    height = len(rows)
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("ragged matrix")
    colperm = list(range(width))
    pivots = 0
    for step in range(min(height, width)):
        best = None
        for i in range(step, height):
            for j in range(step, width):
                if rows[i][j] != 0 and (best is None or abs(rows[i][j]) > abs(rows[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        rows[step], rows[bi] = rows[bi], rows[step]
        rhs[step], rhs[bi] = rhs[bi], rhs[step]
        if bj != step:
            for row in rows:
                row[step], row[bj] = row[bj], row[step]
            colperm[step], colperm[bj] = colperm[bj], colperm[step]
        for i in range(step + 1, height):
            if rows[i][step] == 0:
                continue
            factor = rows[i][step] / rows[step][step]
            rhs[i] -= factor * rhs[step]
            for j in range(step, width):
                rows[i][j] -= factor * rows[step][j]
        pivots = step + 1
    return pivots, rows, rhs, colperm


def matrix_rank(matrix):
    if not matrix:
        return 0
    pivots, _, _, _ = _eliminate(matrix, [0] * len(matrix))
    return pivots


def solve_exact(matrix, rhs):
    """Solve an exactly consistent linear system over the rationals.

    Full-pivot Gaussian elimination; the system may be overdetermined,
    in which case the eliminated extra rows must have exactly zero
    residual (raises UniversalityError otherwise).  Underdetermined
    systems raise ValueError.
    """
    pivots, rows, red, colperm = _eliminate(matrix, rhs)
    width = len(matrix[0]) if matrix else 0
    if pivots < width:
        raise ValueError("system is underdetermined: rank %d < %d unknowns"
                         % (pivots, width))
    for i in range(pivots, len(rows)):
        if red[i] != 0:
            raise UniversalityError(
                "redundant row %d has nonzero residual %s" % (i, red[i]))
    solution = [F(0)] * width
    for i in range(pivots - 1, -1, -1):
        acc = red[i]
        for j in range(i + 1, width):
            acc -= rows[i][j] * solution[j]
        solution[i] = acc / rows[i][i]
    out = [F(0)] * width
    for position, original in enumerate(colperm):
        out[original] = solution[position]
    return out


def _segre_exponents(surface, cls, s):
    if cls.rank != s:
        raise PanelError("class %r has rank %d, panel wants %d" % (cls, cls.rank, s))
    return [cls.c2, cls.c1sq, surface.chi_O, cls.c1K, surface.ksq]


def _verlinde_exponents(surface, cls, r):
    chi_L = surface.chi_O + F(cls.c1sq - cls.c1K, 2)
    if chi_L.denominator != 1:
        raise PanelError("chi(L) of %r is not an integer" % cls)
    return [chi_L, F(surface.chi_O), cls.c1K - F(surface.ksq, 2), F(surface.ksq)]


# Per kind: the report key of the panel parameter, the exponent columns,
# exponents(surface, class, param), oracle(surface, classes, param, order,
# seed) with the values for n = 0..order per class of one surface,
# lookup(param, index, order) of a catalog entry, the series variable,
# the series label and the index of the first series.
_Kind = namedtuple("_Kind", "param columns exponents oracle lookup var label first")

# The lambdas look the oracle and catalog up at call time, so a wrapper
# installed on those functions later (a tracer, a test double) is seen.
_KINDS = {
    "segre": _Kind(
        "rank", ("c2", "c1sq", "chiO", "c1K", "Ksq"), _segre_exponents,
        lambda surface, classes, s, order, seed: segre_series(surface, classes, order, seed),
        lambda s, index, order: catalog.segre_A(s, index, order),
        "z", "A%d", 0),
    "verlinde": _Kind(
        "twist", ("chiL", "chiO", "c1K-Ksq/2", "Ksq"), _verlinde_exponents,
        lambda surface, classes, r, order, seed: verlinde_series(surface, classes, r, order, seed),
        lambda r, index, order: catalog.verlinde_B(r, index, order),
        "w", "B%d", 1),
}


class Panel:
    """(surface, class) rows whose exponent vectors span every universal series.

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
        self.exponent_matrix = [spec.exponents(surface, cls, param)
                                for surface, cls in self.rows]
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
    """Deterministic stream of rank-s classes with varied Chern data."""
    lines = _PROBE_LINES[surface.name]
    if s >= 1:
        for combo in itertools.combinations_with_replacement(lines, s):
            yield EqKClass(surface, [(1, c) for c in combo])
        for combo in itertools.combinations_with_replacement(lines, s + 1):
            for neg in lines:
                yield EqKClass(surface, [(1, c) for c in combo] + [(-1, neg)])
    else:
        minus = 1 - s
        for pos in lines:
            for combo in itertools.combinations_with_replacement(lines, minus):
                yield EqKClass(surface, [(1, pos)] + [(-1, c) for c in combo])
        for pcombo in itertools.combinations_with_replacement(lines, 2):
            for ncombo in itertools.combinations_with_replacement(lines, minus + 1):
                yield EqKClass(surface, [(1, c) for c in pcombo] + [(-1, c) for c in ncombo])


def build_panel(s, size=6):
    """Assemble a rank-5 Segre panel of small classes over all three surfaces.

    Rows are taken round-robin from per-surface probe streams; a probe
    is kept while it raises the exponent-matrix rank, then extra rows
    are kept as redundancy for the universality check.
    """
    if size < 5:
        raise PanelError("need at least 5 rows, got %d" % size)
    streams = [_probe_classes(get_surface(name), s) for name in ("p2", "p1xp1", "f1")]
    rows, matrix, rank = [], [], 0
    for cls in itertools.chain.from_iterable(itertools.zip_longest(*streams)):
        if len(rows) == size:
            break
        if cls is None:  # an exhausted stream
            continue
        vector = _segre_exponents(cls.surface, cls, s)
        if rank < 5:
            grown = matrix_rank(matrix + [vector])
            if grown == rank:
                continue
            rank = grown
        rows.append((cls.surface, cls))
        matrix.append(vector)
    if rank < 5:
        raise PanelError("probe streams could not reach exponent rank 5")
    return Panel("segre", s, rows)


_VERLINDE_LINES = (("p2", (0,)), ("p2", (1,)), ("p2", (2,)),
                   ("p1xp1", (0, 0)), ("p1xp1", (1, 1)), ("p1xp1", (1, 2)),
                   ("f1", (1, 1)))


def default_panel(kind, param):
    """The panel extraction uses when given none.

    Segre panels come from ``build_panel``; Verlinde panels are seven
    line bundles, which reach rank 4 at every twist.
    """
    if kind == "segre":
        return build_panel(param)
    rows = []
    for name, line in _VERLINDE_LINES:
        surface = get_surface(name)
        rows.append((surface, EqKClass(surface, [(1, line)])))
    return Panel(kind, param, rows)


def _extract(kind, param, order, panel, seed):
    """Log of each row's series, one exact solve per order, exp."""
    if panel is None:
        panel = default_panel(kind, param)
    if (panel.kind, panel.param) != (kind, param):
        raise PanelError("panel was built for %s %d, not %s %d"
                         % (panel.kind, panel.param, kind, param))
    spec = _KINDS[kind]
    by_surface = {}  # rows on one surface share one chart pass and its draws
    for index, (surface, _) in enumerate(panel):
        by_surface.setdefault(surface, []).append(index)
    for surface in by_surface:  # a dead order fails before any oracle work
        require_draws(surface, order, "%s at n = %d" % (surface.name, order))
    values = [None] * len(panel.rows)
    for surface, indices in by_surface.items():
        classes = [panel.rows[index][1] for index in indices]
        for index, row in zip(indices, spec.oracle(surface, classes, param, order, seed)):
            values[index] = row
    logs = []
    for row in values:
        total = Series(row, order, spec.var)
        if total.coefficient(0) != 1:
            raise ArithmeticError("n=0 integral should be 1, got %s" % row[0])
        logs.append(total.log())
    columns = [[F(0)] for _ in panel.columns]
    for n in range(1, order + 1):
        solution = solve_exact(panel.exponent_matrix, [lg.coefficient(n) for lg in logs])
        for column, value in zip(columns, solution):
            column.append(value)
    return [Series(column, order, spec.var).exp() for column in columns]


def extract_universal(s, order, panel=None, seed=None):
    """Recover A0..A4 at rank s from oracle Segre integrals over a panel."""
    return _extract("segre", s, order, panel, seed)


def extract_verlinde(r, order, panel=None, seed=None):
    """Recover B1..B4 at twist r from oracle Euler characteristics."""
    return _extract("verlinde", r, order, panel, seed)


def _agreement_order(a, b, order):
    """Largest m <= order with all coefficients up to m equal, or -1."""
    for n in range(order + 1):
        if a.coefficient(n) != b.coefficient(n):
            return n - 1
    return order


def _report(kind, param, order, extracted):
    """Each extracted series beside its catalog closed form, if any."""
    spec = _KINDS[kind]
    report = {"kind": kind, spec.param: param, "order": order, "series": []}
    for index, series in enumerate(extracted, start=spec.first):
        entry = {
            "series": spec.label % index,
            "extracted": [frac_str(series.coefficient(n)) for n in range(order + 1)],
        }
        try:
            closed = spec.lookup(param, index, order)
        except catalog.UnknownSeriesError:
            entry["status"] = catalog.CONJECTURAL
        else:
            entry["status"] = closed.status
            entry["reference"] = [frac_str(closed.series.coefficient(n))
                                  for n in range(order + 1)]
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
