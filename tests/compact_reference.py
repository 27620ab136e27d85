"""The compact-surface extraction that the vertex replaced, kept as its reference.

Each panel row is a class on p2, p1xp1 or f1; the oracle's whole-surface
integrals for n = 0..order (segre_series, verlinde_series) are the series
whose logs pair with the exponent rows, one exact solve per order, exp.
Segre rows are build_panel's: the default panel's class rule, three classes
on p2 and three on p1xp1, whose chi(O) and K^2 differ, so they reach rank 5.
Verlinde rows are the seven lines below.  By universality the series do not
depend on which full-rank rows are read.
"""

from fractions import Fraction as F

from hilbseries import extraction as ext
from hilbseries import localization as loc
from hilbseries.series import Series

# Seven line bundles on the three surfaces, which reach exponent rank 4 at every twist.
VERLINDE_LINES = (("p2", (0,)), ("p2", (1,)), ("p2", (2,)),
                  ("p1xp1", (0, 0)), ("p1xp1", (1, 1)), ("p1xp1", (1, 2)),
                  ("f1", (1, 1)))


def verlinde_lines():
    return [loc.EqKClass(loc.get_surface(name), [(1, line)]) for name, line in VERLINDE_LINES]


def exponent_matrix(panel):
    """The panel's exponent rows, integers over a denominator each, as Fractions."""
    return [[F(x, den) for x in row] for row, den in panel.exponents]


def compact_panel(kind, param):
    if kind == "segre":
        return ext.build_panel(param)
    return ext.Panel("verlinde", param, verlinde_lines())


def compact_extract(kind, param, order):
    """The universal series of ``kind`` at ``param`` through ``order`` >= 1, from the
    compact panel."""
    panel = compact_panel(kind, param)
    if kind == "segre":
        values, var = loc.segre_series(panel.rows, order), "z"
    else:
        values, var = loc.verlinde_series(panel.rows, param, order), "w"
    logs = [Series(row, order, var).log() for row in values]
    by_order = [ext.solve_exact(exponent_matrix(panel), [log.coefficient(n) for log in logs])
                for n in range(1, order + 1)]
    return [Series([0, *column], order, var).exp() for column in zip(*by_order)]
