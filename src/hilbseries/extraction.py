"""Recovery of the universal series from the equivariant vertex.

The generating functions of tautological integrals factor as products of
universal series raised to geometric exponents (c2, c1^2, chi(O), c1.K,
K^2 on the Segre/Chern side; chi(L), chi(O), c1.K - K^2/2, K^2 on the
Euler-characteristic side), also chart by chart on C^2 with equivariant
exponents.  A panel holds classes on two C^2 charts (Chart); the u^0 part of
the log of each chart product (_log_values) turns each coefficient order
into an exact linear system over the panel's exponent vectors.  Because the
factorization is exact, every redundant panel row must be exactly
consistent; any disagreement is raised as an error rather than averaged
away.  Each system is solved fraction-free, in integers, in row order.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as F
from math import gcd, lcm

from . import catalog, localization
from .series import Series, _ratio
# segre_integral is not called here; perfbench's tracer test reads this binding
from .localization import EqKClass, get_surface, segre_integral  # noqa: F401

__all__ = [
    "Chart",
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
    """num / den as "p/q" in lowest terms, the one formatter; a float num or den <= 0 raises."""
    if den <= 0:
        raise ValueError("frac_str needs a positive denominator, got %s" % den)
    p, q = _ratio(num)
    g = gcd(p, q * den)
    return "%d/%d" % (p // g, q * den // g)


def _cleared(row):
    """(The row times the lcm of its entries' denominators, as integers, that lcm); a
    float raises TypeError (as_fraction)."""
    row = [_ratio(x) for x in row]
    scale = lcm(*(q for _, q in row))
    return [p * (scale // q) for p, q in row], scale


def _reduce(basis, row, width):
    """Reduce an integer row against ``basis``: None if it raised the rank, else
    the reduced row.

    ``basis`` holds echelon rows as (pivot column, row), each zero in the
    pivot columns of the rows before it; a row that raises the rank joins
    it.  Each pivot p clears the row's entry f without division, by
    row := (p/g) row - (f/g) pivot row, g = gcd(p, f).  Entries past
    ``width``, right-hand sides, ride along.
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
            return None
    return row


def _width(matrix):
    width = len(matrix[0]) if matrix else 0
    if any(len(row) != width for row in matrix):
        raise ValueError("ragged matrix")
    return width


def matrix_rank(matrix):
    width, basis = _width(matrix), []
    for row in matrix:
        _reduce(basis, _cleared(row)[0], width)
    return len(basis)


def _solve(rows, width):
    """Per unknown, (numerators, denominator) of its values, for (row, scale) pairs, row
    the ``width`` coefficients and the right-hand sides times scale, in integers.  A
    redundant row holds iff its reduced right-hand side is zero, as _reduce scales by
    nonzero integers only; the first that fails, by right-hand side then row, raises."""
    basis, redundant = [], []
    for i, (row, _) in enumerate(rows):
        reduced = _reduce(basis, row, width)
        if reduced is not None:
            redundant.append((i, reduced[width:]))
    if len(basis) < width:
        raise ValueError("system is underdetermined: rank %d < %d unknowns"
                         % (len(basis), width))
    solution = [None] * width
    for col, row in reversed(basis):
        terms = [(row[j], solution[j]) for j in range(col + 1, width) if row[j]]
        den = lcm(*(d for _, (_, d) in terms))
        nums = [rhs * den - sum(a * x[k] * (den // d) for a, (x, d) in terms)
                for k, rhs in enumerate(row[width:])]
        g = gcd(den * row[col], *nums) * (1 if row[col] > 0 else -1)
        solution[col] = [x // g for x in nums], den * row[col] // g
    failed = min(((k, i) for i, rhs in redundant for k, x in enumerate(rhs) if x), default=None)
    if failed is not None:
        k, i = failed
        row, scale = rows[i]
        residual = row[width + k] - sum(a * F(x[k], d) for a, (x, d) in zip(row, solution))
        raise UniversalityError("redundant row %d has nonzero residual %s" % (i, residual / scale))
    return solution


def solve_exact(matrix, rhs):
    """Solve an exactly consistent linear system over the rationals.

    Equations are reduced fraction-free in the caller's row order.  The
    rows that raise the rank are solved by back-substitution; any other
    row that fails to hold raises UniversalityError with its index and
    residual rhs_i - row_i.x.  Underdetermined systems raise ValueError.
    """
    if len(rhs) != len(matrix):
        raise ValueError("matrix and right-hand side sizes differ")
    width = _width(matrix)
    solution = _solve([_cleared([*row, x]) for row, x in zip(matrix, rhs)], width)
    return [F(nums[0], den) for nums, den in solution]


def _segre_exponents(cls, s):
    """(12 |t| (c2, c1^2, chi(O), c1.K, K^2), 12 |t|), t = beta on a Chart, else 1;
    12 chi(O) = K^2 + (one point per chart) by Noether."""
    if cls.rank != s:
        raise PanelError("class %r has rank %d, panel wants %d" % (cls, cls.rank, s))
    surface = cls.surface
    t = surface.beta if isinstance(surface, Chart) else 1
    row = [12 * cls.c2, 12 * cls.c1sq, surface.ksq + t * len(surface.charts),
           12 * cls.c1K, 12 * surface.ksq]
    return [x if t > 0 else -x for x in row], 12 * abs(t)


def _verlinde_exponents(cls, r):
    """chi(L) = chi(O) + (c1^2 - c1.K)/2 by Riemann-Roch."""
    if cls.rank != 1 or len(cls.terms) != 1:
        raise PanelError("a Verlinde row is a single line bundle, got %r" % cls)
    (_, c1sq, chi, c1K, ksq), den = _segre_exponents(cls, 1)
    return [chi + (c1sq - c1K) // 2, chi, c1K - ksq // 2, ksq], den


# Per kind: the report key of the panel parameter, the exponent columns,
# exponents(class, param), the chart product's term, lifts(class, param) as the
# term reads a class, factors(param, order), the catalog's holder of every
# factor, the series variable, the series label and the index of the first series.
_Kind = namedtuple("_Kind", "param columns exponents term lifts factors var label first")

# The catalog, like localization._chart_product in _extract, is looked up at call
# time, so a wrapper installed later (a tracer, a test double) is seen.
_KINDS = {
    "segre": _Kind(
        "rank", ("c2", "c1sq", "chiO", "c1K", "Ksq"), _segre_exponents,
        localization._segre_term, lambda cls, s: cls.signed_lifts(),
        lambda s, order: catalog._SegreLogs(s, order),
        "z", "A%d", 0),
    "verlinde": _Kind(
        "twist", ("chiL", "chiO", "c1K-Ksq/2", "Ksq"), _verlinde_exponents,
        localization._euler_term, lambda cls, r: cls.signed_lifts() + [(r - 1, ((0, 0),))],
        lambda r, order: catalog._VerlindeLogs(r, order),
        "w", "B%d", 1),
}


class Chart:
    """C^2 at q = (1, beta) as a one-chart surface: coordinate characters (1, 0) and (0, 1), so
    tangent weights -1 and -beta, and O(w) the trivial line bundle of weight w.  Pairings, K and
    K^2 are equivariant integrals times beta, with e = 1/beta the point's and K = 1 + beta.  A
    beta < 0 is generic at every order: a box's weights -(a+1) - l|beta| < 0 < a + (l+1)|beta|."""

    generators = [(1,)]
    charts = [(0, 1, (1, 0), (0, 1))]

    def __init__(self, beta):
        self.beta, self.name = beta, "C2(1,%d)" % beta
        self.k_dot, self.ksq = [1 + beta], (1 + beta) ** 2

    def lift(self, coeffs):
        return ((coeffs[0], 0),)

    def tangent_chars(self, index):
        return (-1, 0), (0, -1)

    def pair(self, a, b):
        return a[0] * b[0]


class Panel:
    """Rows of classes, on several charts or surfaces, whose exponent vectors span
    every universal series.

    ``kind`` is "segre", with columns (c2, c1^2, chi(O), c1.K, K^2) for
    classes of rank ``param``, or "verlinde", with columns (chi(L),
    chi(O), c1.K - K^2/2, K^2) at twist ``param``, in ``exponents`` as (row,
    den) integers.  Construction asserts full column rank, which a single chart
    or surface can never reach since its chi(O) and K^2 columns are proportional.
    """

    def __init__(self, kind, param, rows):
        spec = _KINDS[kind]
        self.kind = kind
        self.param = param
        self.rows = list(rows)
        self.columns = spec.columns
        self.exponents = [spec.exponents(cls, param) for cls in self.rows]
        rank = matrix_rank([row for row, _ in self.exponents])
        if rank < len(self.columns):
            raise PanelError("exponent matrix has rank %d < %d; add charts or classes"
                             % (rank, len(self.columns)))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def _segre_rows(surfaces, s):
    """Three rank-s classes per surface: p = max(s, 1) + 1 positive and p - s negative
    terms, 0, 1 or 2 of the positive ones the first generator and the rest 0, so c2 varies
    too; coefficients are padded with zeros to the surface's generator count."""
    plus, rows = max(s, 1) + 1, []
    for surface in surfaces:
        pad = (0,) * (len(surface.generators) - 1)
        rows += [EqKClass(surface, [(1, (int(i < ones), *pad)) for i in range(plus)]
                          + [(-1, (0, *pad))] * (plus - s)) for ones in range(3)]
    return rows


def build_panel(s):
    """The compact reference's Segre panel: _segre_rows on P2 and P1xP1, which differ in
    chi(O) and K^2 beside the classes' own numbers, so the six rows reach exponent rank 5.
    By universality the series do not depend on which full-rank rows are read."""
    return Panel("segre", s, _segre_rows([get_surface("p2"), get_surface("p1xp1")], s))


def default_panel(kind, param):
    """Three classes on each of Chart(-1) and Chart(-2), generic at any order: at rank s,
    _segre_rows; at a twist, O(0), O(2) and O(-1)."""
    charts = [Chart(-1), Chart(-2)]
    if kind == "segre":
        rows = _segre_rows(charts, param)
    else:
        rows = [EqKClass(chart, [(1, (w,))]) for chart in charts for w in (0, 2, -1)]
    return Panel(kind, param, rows)


def _log_values(rows, den):
    """Per n = 1..order, [x^n u^0] log Z, Z = sum_n x^n u^(-2n) rows[n] / den a chart
    product, as (numerators, D); a pole below u^-2 raises, as [x^n] log Z integrates
    classes of every degree over C^2.  In y = x u^-2, n [y^n] log Z = M_n = -sum_(k<n) M_k
    Z_(n-k), M_0 = -n: plain integer u-rows over lowest denominators, M_k 0 below u^(2k-2)."""
    if rows[0] != [den] + [0] * (len(rows[0]) - 1):
        raise ArithmeticError("a chart series should start at 1, got %s" % rows[0])
    width, logs = len(rows[0]), []
    for n in range(1, len(rows)):
        d = lcm(*(dk for _, dk in logs))
        m = [n * d * c for c in rows[n]]
        for k, (row, dk) in enumerate(logs, 1):
            z, scale = rows[n - k], d // dk
            for i in range(2 * k - 2, width):
                if c := row[i] * scale:
                    for j in range(width - i):
                        m[i + j] -= c * z[j]
        if any(m[:2 * n - 2]):
            raise ArithmeticError("the log of a chart series keeps a pole at u^%d, below u^-2"
                                  % (next(j for j, c in enumerate(m) if c) - 2 * n))
        g = gcd(d * den, *m)
        logs.append(([c // g for c in m], d * den // g))
    top = lcm(*(n * d for n, (_, d) in enumerate(logs, 1)))
    return [m[2 * n] * (top // (n * d)) for n, (m, d) in enumerate(logs, 1)], top


def _extract(kind, param, order, panel):
    """Per beta of the panel's charts one chart product for its classes, read by
    _log_values, then one integer solve for every order at once, exp."""
    if order < 0:
        raise ValueError("n must be nonnegative")
    if panel is None:
        panel = default_panel(kind, param)
    if (panel.kind, panel.param) != (kind, param):
        raise PanelError("panel was built for %s %d, not %s %d"
                         % (panel.kind, panel.param, kind, param))
    spec, by_beta, values = _KINDS[kind], {}, [None] * len(panel)
    for index, cls in enumerate(panel):
        if not isinstance(cls.surface, Chart):
            raise PanelError("extraction reads classes on C^2 charts, got %r" % cls)
        by_beta.setdefault(cls.surface.beta, []).append(index)
    shapes = localization._shapes(order)
    for beta, indices in by_beta.items():
        classes = [spec.lifts(panel.rows[index], param) for index in indices]
        for index, product in zip(indices, localization._chart_product(
                panel.rows[indices[0]].surface, classes, order, (1, beta), spec.term, shapes)):
            values[index] = _log_values(*product)
    solution = _solve([([x * d for x in row] + [v * den for v in nums], den * d)
                       for (row, den), (nums, d) in zip(panel.exponents, values)],
                      len(panel.columns))
    return [Series._over(den, [0, *nums], spec.var).exp() for nums, den in solution]


def extract_universal(s, order, panel=None):
    """Recover A0..A4 at rank s from the Segre vertex of a panel."""
    return _extract("segre", s, order, panel)


def extract_verlinde(r, order, panel=None):
    """Recover B1..B4 at twist r from the Euler-characteristic vertex of a panel."""
    return _extract("verlinde", r, order, panel)


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


def predict_unknown(s, order, panel=None):
    """Confront extracted A-series with closed forms where any exist.

    The low factors A0..A2 are proven at every rank and act as an
    internal cross-check; A3 and A4 are compared against conjectural
    closed forms when the catalog has them (e.g. rank 0) and otherwise
    emitted as conjecture-grade data (e.g. rank 3).
    """
    return _report("segre", s, order, extract_universal(s, order, panel))


def predict_verlinde(r, order, panel=None):
    """Confront extracted B-series with printed closed forms at twist r."""
    return _report("verlinde", r, order, extract_verlinde(r, order, panel))
