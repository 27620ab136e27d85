"""Universality extraction tests.

The extracted series come from the vertex, chart products on C^2 and the
u^0 part of their logs, and exact linear solves only; comparing them against
the closed-form catalog cross-validates all three layers at once, and the
compact-surface extraction they replaced (compact_reference) must give the
same bytes.
"""

import contextlib
import io
import json
import random
from fractions import Fraction as F
from math import lcm
from operator import lshift

import pytest
from hypothesis import given, settings, strategies as st

from hilbseries import catalog, cli
from hilbseries import extraction as ext
from hilbseries import localization as loc
from hilbseries.series import Series
from compact_reference import compact_extract, compact_panel, exponent_matrix


# build_panel's rows, pinned from the one Segre class rule (_segre_rows) that
# default_panel reads too: three classes on P2, then three on P1xP1.
PANEL_ROWS = {
    -4: [
        "p2 O(0)+O(0)-O(0)-O(0)-O(0)-O(0)-O(0)-O(0)",
        "p2 O(1)+O(0)-O(0)-O(0)-O(0)-O(0)-O(0)-O(0)",
        "p2 O(1)+O(1)-O(0)-O(0)-O(0)-O(0)-O(0)-O(0)",
        "p1xp1 O(0,0)+O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(1,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
    ],
    -3: [
        "p2 O(0)+O(0)-O(0)-O(0)-O(0)-O(0)-O(0)", "p2 O(1)+O(0)-O(0)-O(0)-O(0)-O(0)-O(0)",
        "p2 O(1)+O(1)-O(0)-O(0)-O(0)-O(0)-O(0)",
        "p1xp1 O(0,0)+O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(1,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
    ],
    -2: [
        "p2 O(0)+O(0)-O(0)-O(0)-O(0)-O(0)", "p2 O(1)+O(0)-O(0)-O(0)-O(0)-O(0)",
        "p2 O(1)+O(1)-O(0)-O(0)-O(0)-O(0)", "p1xp1 O(0,0)+O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(1,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
    ],
    -1: [
        "p2 O(0)+O(0)-O(0)-O(0)-O(0)", "p2 O(1)+O(0)-O(0)-O(0)-O(0)",
        "p2 O(1)+O(1)-O(0)-O(0)-O(0)", "p1xp1 O(0,0)+O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(0,0)-O(0,0)-O(0,0)-O(0,0)", "p1xp1 O(1,0)+O(1,0)-O(0,0)-O(0,0)-O(0,0)",
    ],
    0: [
        "p2 O(0)+O(0)-O(0)-O(0)", "p2 O(1)+O(0)-O(0)-O(0)", "p2 O(1)+O(1)-O(0)-O(0)",
        "p1xp1 O(0,0)+O(0,0)-O(0,0)-O(0,0)", "p1xp1 O(1,0)+O(0,0)-O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(1,0)-O(0,0)-O(0,0)",
    ],
    1: [
        "p2 O(0)+O(0)-O(0)", "p2 O(1)+O(0)-O(0)", "p2 O(1)+O(1)-O(0)",
        "p1xp1 O(0,0)+O(0,0)-O(0,0)", "p1xp1 O(1,0)+O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(1,0)-O(0,0)",
    ],
    2: [
        "p2 O(0)+O(0)+O(0)-O(0)", "p2 O(1)+O(0)+O(0)-O(0)", "p2 O(1)+O(1)+O(0)-O(0)",
        "p1xp1 O(0,0)+O(0,0)+O(0,0)-O(0,0)", "p1xp1 O(1,0)+O(0,0)+O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(1,0)+O(0,0)-O(0,0)",
    ],
    3: [
        "p2 O(0)+O(0)+O(0)+O(0)-O(0)", "p2 O(1)+O(0)+O(0)+O(0)-O(0)",
        "p2 O(1)+O(1)+O(0)+O(0)-O(0)", "p1xp1 O(0,0)+O(0,0)+O(0,0)+O(0,0)-O(0,0)",
        "p1xp1 O(1,0)+O(0,0)+O(0,0)+O(0,0)-O(0,0)", "p1xp1 O(1,0)+O(1,0)+O(0,0)+O(0,0)-O(0,0)",
    ],
}


# The full-pivot Fraction elimination that solve_exact and matrix_rank
# used before the fraction-free reduction, kept as their reference.
def _ref_eliminate(matrix, rhs):
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


def _ref_matrix_rank(matrix):
    if not matrix:
        return 0
    return _ref_eliminate(matrix, [0] * len(matrix))[0]


def _ref_solve_exact(matrix, rhs):
    pivots, rows, red, colperm = _ref_eliminate(matrix, rhs)
    width = len(matrix[0]) if matrix else 0
    if pivots < width:
        raise ValueError("system is underdetermined: rank %d < %d unknowns" % (pivots, width))
    for i in range(pivots, len(rows)):
        if red[i] != 0:
            raise ext.UniversalityError("redundant row %d has nonzero residual %s" % (i, red[i]))
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


# The packed log that _log_values' plain integer rows replaced: every row of Z put in
# lowest terms first, then per n every earlier log row and Z row packed into one
# integer at that n's slot width (loc._slots), one product per k, and the sum
# unpacked and put in lowest terms.
def _ref_log_values(rows, den):
    if rows[0] != [den] + [0] * (len(rows[0]) - 1):
        raise ArithmeticError("a chart series should start at 1, got %s" % rows[0])
    z = [(row, d) for (row,), d in (loc._lowest([row], den) for row in rows)]
    width, tops, logs, values = len(rows[0]), [max(map(abs, row)) for row, _ in z], [], []
    for n in range(1, len(rows)):
        factors = [(k, m, d * z[n - k][1]) for k, (m, d) in enumerate([([-n], 1)] + logs)]
        d = lcm(*(scale for _, _, scale in factors))
        shifts, unpack = loc._slots(sum(width * max(map(abs, m)) * tops[n - k] * (d // scale)
                                        for k, m, scale in factors), width)
        m = unpack(-sum(sum(map(lshift, m, shifts)) * sum(map(lshift, z[n - k][0], shifts))
                        * (d // scale) for k, m, scale in factors))
        if any(m[:2 * n - 2]):
            raise ArithmeticError("the log of a chart series keeps a pole at u^%d, below u^-2"
                                  % (next(j for j, c in enumerate(m) if c) - 2 * n))
        (m,), d = loc._lowest([m], d)
        logs.append((m, d))
        values.append((m[2 * n], n * d))
    top = lcm(*(d for _, d in values))
    return [v * (top // d) for v, d in values], top


# The Fraction formulation that the integer rows and the integer solve replaced:
# a chart whose pairings are the equivariant integrals, e = 1/beta, so EqKClass
# sums Fraction pairings; each kind's exponents from the class's Chern numbers;
# the values as Fractions; one _ref_solve_exact per order; exp.
class FractionChart(ext.Chart):
    def __init__(self, beta):
        super().__init__(beta)
        self.k_dot = [F(1 + beta, beta)]
        self.ksq = F((1 + beta) ** 2, beta)
        self.chi_O = (self.ksq + 1) / 12

    def pair(self, a, b):
        return F(a[0] * b[0], self.beta)


def _ref_exponents(kind, cls):
    surface = cls.surface
    if kind == "segre":
        return [cls.c2, cls.c1sq, surface.chi_O, cls.c1K, surface.ksq]
    chi_L = surface.chi_O + F(cls.c1sq - cls.c1K, 2)
    return [chi_L, F(surface.chi_O), cls.c1K - F(surface.ksq, 2), F(surface.ksq)]


def _ref_rows(kind, param, order, panel):
    """Per panel row its Fraction exponents, on a FractionChart, and its log values
    for n = 1..order as Fractions, one chart product per row."""
    spec, shapes, out = ext._KINDS[kind], loc._shapes(order), []
    for cls in panel:
        beta = cls.surface.beta
        (rows, den), = loc._chart_product(cls.surface, [spec.lifts(cls, param)], order,
                                          (1, beta), spec.term, shapes)
        nums, d = ext._log_values(rows, den)
        out.append((_ref_exponents(kind, loc.EqKClass(FractionChart(beta), cls.terms)),
                    [F(v, d) for v in nums]))
    return out


def _ref_extract(kind, param, order, panel):
    rows = _ref_rows(kind, param, order, panel)
    matrix = [exponents for exponents, _ in rows]
    by_order = [_ref_solve_exact(matrix, [values[n] for _, values in rows])
                for n in range(order)]
    var = ext._KINDS[kind].var
    return matrix, [Series([0, *column], order, var).exp() for column in zip(*by_order)]


def _outcome(solve, matrix, rhs):
    """The solution, or the type of the error raised."""
    try:
        return solve(matrix, rhs)
    except (ValueError, ext.UniversalityError) as error:
        return type(error)


def _random_matrix(rng, height, width):
    """Entries in -5..5 and their halves, with zero, duplicate and dependent rows mixed in."""
    entries = [F(k, d) for k in range(-5, 6) for d in (1, 2)]
    rows = []
    for _ in range(height):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(list(rng.choice(rows)))
        elif len(rows) >= 2 and pick < 0.3:
            a, b = rng.sample(rows, 2)
            u, v = rng.choice(entries), rng.choice(entries)
            rows.append([u * x + v * y for x, y in zip(a, b)])
        elif pick < 0.35:
            rows.append([F(0)] * width)
        else:
            rows.append([rng.choice(entries) for _ in range(width)])
    return rows


def _right_hand_sides(rng, matrix):
    """A consistent right-hand side and one with a single entry nudged."""
    width = len(matrix[0])
    x = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(width)]
    consistent = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    nudged = list(consistent)
    nudged[rng.randrange(len(nudged))] += F(1, rng.randint(1, 3))
    return consistent, nudged


def _assert_matches_reference(matrix, rng):
    assert ext.matrix_rank(matrix) == _ref_matrix_rank(matrix)
    for rhs in _right_hand_sides(rng, matrix):
        assert _outcome(ext.solve_exact, matrix, rhs) == _outcome(_ref_solve_exact, matrix, rhs)


def _one_solve_per_column(matrix, columns):
    """solve_exact per right-hand side: the values per unknown, or the first error."""
    solutions = []
    for rhs in columns:
        try:
            solutions.append(ext.solve_exact(matrix, rhs))
        except (ValueError, ext.UniversalityError) as error:
            return type(error), str(error)
    return [list(values) for values in zip(*solutions)]


def _one_reduction(matrix, columns):
    """Every right-hand side in one reduction (_solve), the rows cleared as solve_exact
    clears them: the values per unknown, or the error."""
    rows = [ext._cleared([*row, *(rhs[i] for rhs in columns)]) for i, row in enumerate(matrix)]
    try:
        return [[F(x, den) for x in nums] for nums, den in ext._solve(rows, len(matrix[0]))]
    except (ValueError, ext.UniversalityError) as error:
        return type(error), str(error)


class TestSolveExact:
    def test_plain_square_system(self):
        sol = ext.solve_exact([[2, 1], [1, 3]], [5, 10])
        assert sol == [F(1), F(3)]

    def test_rational_entries_and_pivoting(self):
        # a leading zero: the first row pivots on its second column
        sol = ext.solve_exact([[0, 1], [F(1, 2), 0]], [3, 2])
        assert sol == [F(4), F(3)]

    def test_consistent_redundant_rows_accepted(self):
        sol = ext.solve_exact([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
        assert sol == [F(2), F(3)]

    def test_inconsistent_rows_raise(self):
        with pytest.raises(ext.UniversalityError):
            ext.solve_exact([[1, 0], [0, 1], [1, 1]], [2, 3, 6])

    def test_underdetermined_raises(self):
        with pytest.raises(ValueError):
            ext.solve_exact([[1, 1], [2, 2]], [3, 6])

    def test_matrix_rank(self):
        assert ext.matrix_rank([[1, 2], [2, 4]]) == 1
        assert ext.matrix_rank([[1, 0, 0], [0, 0, 1]]) == 2
        assert ext.matrix_rank([]) == 0

    def test_residual_names_caller_row(self):
        # row 1 is the inconsistent one; its residual is 3 - 2 * 1 in the caller's units
        with pytest.raises(ext.UniversalityError, match=r"^redundant row 1 has nonzero residual 1$"):
            ext.solve_exact([[1, 0], [2, 0], [0, 1]], [1, 3, 1])

    def test_half_integer_verlinde_rows(self):
        # (chi(L), chi(O), c1.K - K^2/2, K^2) of the compact twist-0 panel, and of
        # the vertex one at beta = -1 and -2, whose denominators divide 12 |beta|
        compact = exponent_matrix(compact_panel("verlinde", 0))
        assert any(F(x).denominator == 2 for row in compact for x in row)
        vertex = exponent_matrix(ext.default_panel("verlinde", 0))
        assert {F(x).denominator for row in vertex for x in row} == {1, 2, 4, 12, 24}
        for matrix in (compact, vertex):
            x = [F(1, 3), F(-2), F(5, 7), F(1, 2)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
            assert ext.solve_exact(matrix, rhs) == x

    def test_inconsistent_rational_rows_raise(self):
        matrix = [[F(1, 2), F(1, 3)], [F(1, 4), 0], [F(3, 2), 1]]
        with pytest.raises(ext.UniversalityError, match="redundant row 2 has nonzero residual 1/6"):
            ext.solve_exact(matrix, [1, F(1, 2), F(19, 6)])
        assert ext.solve_exact(matrix, [1, F(1, 2), 3]) == [F(2), F(0)]

    def test_rational_rank_deficient(self):
        assert ext.matrix_rank([[F(1, 2), F(1, 3), 1], [F(3, 2), 1, 3], [F(1, 4), 0, F(-1, 2)]]) == 2

    def test_malformed_input_raises_value_error(self):
        with pytest.raises(ValueError, match="ragged"):
            ext.solve_exact([[1, 0], [1]], [1, 2])
        with pytest.raises(ValueError, match="ragged"):
            ext.matrix_rank([[1, 0], [1]])
        with pytest.raises(ValueError, match="sizes differ"):
            ext.solve_exact([[1, 0], [0, 1]], [1])


class TestAgainstFractionReference:
    """The fraction-free reduction against the full-pivot Fraction elimination."""

    def test_random_matrices(self):
        rng = random.Random(9)
        for _ in range(400):
            matrix = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 6))
            _assert_matches_reference(matrix, rng)

    def test_many_right_hand_sides_in_one_reduction(self):
        # every order of an extraction rides along in one reduction; the
        # values and the first failing right-hand side's error are those of
        # one solve per right-hand side
        rng = random.Random(12)
        for _ in range(200):
            width = rng.randint(1, 5)
            matrix = _random_matrix(rng, rng.randint(width, 8), width)
            columns = [rhs for _ in range(3) for rhs in _right_hand_sides(rng, matrix)]
            rng.shuffle(columns)
            columns = columns[:rng.randint(1, 6)]
            assert _one_reduction(matrix, columns) == _one_solve_per_column(matrix, columns)

    @pytest.mark.parametrize("s", range(-4, 4))
    def test_segre_panels(self, s):
        _assert_matches_reference(exponent_matrix(ext.build_panel(s)), random.Random(s))
        _assert_matches_reference(exponent_matrix(ext.default_panel("segre", s)),
                                  random.Random(s))

    @pytest.mark.parametrize("r", range(-3, 4))
    def test_verlinde_panels(self, r):
        for matrix in (exponent_matrix(compact_panel("verlinde", r)),
                       exponent_matrix(ext.default_panel("verlinde", r))):
            _assert_matches_reference(matrix, random.Random(r))


class TestPanels:
    def test_build_panel_reaches_rank5(self):
        for s in (0, 1, 2, -1):
            panel = ext.build_panel(s)
            assert len(panel) >= 5
            assert ext.matrix_rank(exponent_matrix(panel)) == 5
            assert all(cls.rank == s for cls in panel)

    def test_build_panel_reads_the_default_panels_class_rule(self):
        # one Segre class rule for both panels: build_panel's rows, the padding
        # dropped, are default_panel's term by term, P2 for Chart(-1) and P1xP1
        # for Chart(-2); P2 and P1xP1 reach exponent rank 5 well past the tested ranks
        for s in range(-4, 6):
            compact, vertex = ext.build_panel(s), ext.default_panel("segre", s)
            assert [cls.surface.name for cls in compact] == ["p2"] * 3 + ["p1xp1"] * 3
            for mine, theirs in zip(compact, vertex, strict=True):
                pad = (0,) * (len(mine.surface.generators) - 1)
                assert [coeffs[1:] for _, coeffs in mine.terms] == [pad] * len(mine.terms)
                assert [(sign, coeffs[:1]) for sign, coeffs in mine.terms] == theirs.terms
        for s in range(-6, 8):
            assert ext.matrix_rank(exponent_matrix(ext.build_panel(s))) == 5, s

    def test_single_surface_panel_rejected(self):
        # chi(O) and K^2 columns are proportional on one surface, and on one chart
        p2 = loc.get_surface("p2")
        rows = [loc.parse_class(p2, spec) for spec in
                ("O(0)", "O(1)", "O(2)", "O(0)+O(0)-O(1)", "O(1)+O(1)-O(3)")]
        with pytest.raises(ext.PanelError):
            ext.Panel("segre", 1, rows)
        panel = ext.default_panel("segre", 1)
        assert len({cls.surface for cls in panel}) == 2
        assert [cls.surface.name for cls in panel] == ["C2(1,-1)"] * 3 + ["C2(1,-2)"] * 3
        # K = 0 on Chart(-1) also zeroes its c1.K column
        for chart, rank in zip((panel.rows[0].surface, panel.rows[3].surface), (3, 4)):
            with pytest.raises(ext.PanelError, match="rank %d < 5" % rank):
                ext.Panel("segre", 1, [loc.parse_class(chart, spec) for spec in (
                    "O(0)", "O(1)", "O(2)", "O(0)+O(0)-O(1)", "O(1)+O(1)-O(3)")])
        # every row's denominator is 12 |beta| > 0, on the default charts and any other
        mixed = ext.Panel("segre", 1, [loc.EqKClass(chart, cls.terms)
                                       for chart in (ext.Chart(-5), ext.Chart(-1))
                                       for cls in panel.rows[:3]])
        for rows in (panel, ext.default_panel("verlinde", 1), mixed):
            assert all(den > 0 for _, den in rows.exponents)
        assert [den for _, den in mixed.exponents] == [60] * 3 + [12] * 3

    def test_panel_rejects_wrong_rank(self):
        p2 = loc.get_surface("p2")
        with pytest.raises(ext.PanelError):
            ext.Panel("segre", 2, [loc.parse_class(p2, "O(1)")])

    def test_build_panel_rows_pinned(self):
        for s, expected in PANEL_ROWS.items():
            panel = ext.build_panel(s)
            assert ["%s %s" % (cls.surface.name, cls.spec()) for cls in panel] == expected

    def test_build_panel_reduces_each_probe_once(self, monkeypatch):
        # probes are reduced into a running basis; only Panel checks the rank
        original = ext.matrix_rank
        calls = []

        def counted(matrix):
            calls.append(len(matrix))
            return original(matrix)

        monkeypatch.setattr(ext, "matrix_rank", counted)
        for s in range(-4, 4):
            calls.clear()
            ext.build_panel(s)
            assert calls == [6], s

    def test_build_panel_lifts_no_probe(self, monkeypatch):
        # a probe is ranked by its Chern numbers; lifts wait for the oracle
        for name in loc.surface_names():
            loc.get_surface(name)
        original = loc.ToricSurface.lift
        calls = []

        def counted(self, coeffs):
            calls.append(coeffs)
            return original(self, coeffs)

        monkeypatch.setattr(loc.ToricSurface, "lift", counted)
        for s in range(4):
            ext.build_panel(s)
        assert calls == []


class TestExtractUniversal:
    def test_order_zero_is_trivial(self):
        series = ext.extract_universal(1, 0)
        assert all(s.coefficient(0) == 1 and s.order == 0 for s in series)

    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_closed_forms(self, s):
        series = ext.extract_universal(s, 3)
        for index, got in enumerate(series):
            ref = catalog.segre_A(s, index, 3).series
            assert all(got.coefficient(n) == ref.coefficient(n) for n in range(4)), index

    def test_rank_minus_two_binomial(self):
        # A0 at rank -2 composes to 1/(1+z); all higher factors trivial
        series = ext.extract_universal(-2, 3)
        assert [series[0].coefficient(n) for n in range(4)] == [1, -1, 1, -1]
        for index in (3, 4):
            assert (series[index] - 1).is_zero()

    def test_one_reduction_for_every_order(self, monkeypatch):
        # each panel row is reduced once per extraction, with one trailing
        # entry per order: integers, exponents * D || values * 12 |beta|, which is
        # the Fraction formulation's row (exponents || values) times 12 |beta| D
        panel = ext.default_panel("segre", 1)
        original = ext._reduce
        trailing, rows = [], []

        def counted(basis, row, width):
            trailing.append(len(row) - width)
            rows.append(row)
            return original(basis, row, width)

        monkeypatch.setattr(ext, "_reduce", counted)
        for order in (1, 3):
            trailing.clear()
            rows.clear()
            ext.extract_universal(1, order, panel)
            assert trailing == [order] * len(panel)
            for row, (exponents, values) in zip(rows, _ref_rows("segre", 1, order, panel)):
                assert all(type(x) is int for x in row)
                scale = F(exponents[2], row[2])  # the chi(O) entry is never 0
                assert [x * scale for x in row] == exponents + values

    def test_panel_rank_mismatch_rejected(self):
        for panel in (ext.build_panel(1), ext.default_panel("segre", 1)):
            with pytest.raises(ext.PanelError):
                ext.extract_universal(2, 2, panel)

    def test_panel_row_order_irrelevant(self):
        panel = ext.default_panel("segre", 1)
        shuffled = ext.Panel("segre", 1, list(reversed(panel.rows)))
        a = ext.extract_universal(1, 2, panel)
        b = ext.extract_universal(1, 2, shuffled)
        for x, y in zip(a, b):
            assert (x - y).is_zero()


class TestExtractVerlinde:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_matches_printed_forms(self, r):
        series = ext.extract_verlinde(r, 3)
        for index, got in enumerate(series, start=1):
            ref = catalog.verlinde_B(r, index, 3).series
            assert all(got.coefficient(n) == ref.coefficient(n) for n in range(4)), index

    def test_negative_twist_serre_symmetry(self):
        series = ext.extract_verlinde(-1, 3)
        for index in (3, 4):
            assert (series[index - 1] - 1).is_zero()

    def test_one_chart_product_per_chart(self, monkeypatch):
        # the six default rows lie on two C^2 charts: one chart product each for
        # n = 0..3, and no compact chart pass and no surface at all
        original_product = loc._chart_product
        products = []

        def counted_product(surface, classes, order, q, term, shapes):
            products.append((surface.name, q, order, len(classes)))
            return original_product(surface, classes, order, q, term, shapes)

        def refuse(*args):
            raise AssertionError("compact oracle work in an extraction")

        monkeypatch.setattr(loc, "_chart_product", counted_product)
        monkeypatch.setattr(loc, "_chart_pass", refuse)
        monkeypatch.setattr(loc, "ToricSurface", refuse)
        monkeypatch.setattr(ext, "get_surface", refuse)
        ext.extract_verlinde(0, 3)
        assert products == [("C2(1,-1)", (1, -1), 3, 3), ("C2(1,-2)", (1, -2), 3, 3)]

    @pytest.mark.parametrize("kind", ["segre", "verlinde"])
    def test_a_warm_extraction_draws_once(self, kind, monkeypatch):
        # the panel's two charts are fixed, so no direction rule is read, and one
        # shape table serves both
        extract = {"segre": ext.extract_universal, "verlinde": ext.extract_verlinde}[kind]
        extract(2, 3)
        assert len({cls.surface.beta for cls in ext.default_panel(kind, 2)}) == 2
        original_directions, original_shapes = loc._directions, loc._shapes
        directions, shapes = [], []
        monkeypatch.setattr(loc, "_directions", lambda n: directions.append(n) or
                            original_directions(n))
        monkeypatch.setattr(loc, "_shapes", lambda order: shapes.append(order) or
                            original_shapes(order))
        extract(2, 3)
        assert directions == []
        assert shapes == [3]

    def test_rank4_row_requirement(self):
        p2 = loc.get_surface("p2")
        rows = [loc.EqKClass(p2, [(1, (d,))]) for d in (0, 1, 2, 3)]
        with pytest.raises(ext.PanelError):
            ext.Panel("verlinde", 0, rows)


class TestPredictions:
    def test_rank0_conjecture_report(self):
        report = ext.predict_unknown(0, 3)
        by_name = {entry["series"]: entry for entry in report["series"]}
        assert by_name["A3"]["status"] == catalog.CONJECTURAL
        assert by_name["A3"]["agreement_order"] == 3
        assert by_name["A4"]["agreement_order"] == 3
        assert by_name["A0"]["agreement_order"] == 3

    def test_rank3_emits_new_data(self):
        report = ext.predict_unknown(3, 2)
        by_name = {entry["series"]: entry for entry in report["series"]}
        # proven low factors double as an oracle cross-check
        for name in ("A0", "A1", "A2"):
            assert by_name[name]["agreement_order"] == 2
        for name in ("A3", "A4"):
            assert by_name[name]["status"] == catalog.CONJECTURAL
            assert "reference" not in by_name[name]
            assert by_name[name]["extracted"][0] == "1/1"

    @pytest.mark.parametrize("r", [2, 3])
    def test_verlinde_conjecture_report(self, r):
        report = ext.predict_verlinde(r, 2)
        for entry in report["series"]:
            assert entry["agreement_order"] == 2

    def test_frac_str(self):
        assert ext.frac_str(F(3)) == "3/1"
        assert ext.frac_str(F(-1, 2)) == "-1/2"
        # a Fraction is read as it is; anything else goes through Fraction
        assert ext.frac_str(-4) == "-4/1"
        assert ext.frac_str("-6/4") == "-3/2"

    def test_frac_str_refuses_a_denominator_below_one(self):
        # a den <= 0 would print "1/0", "1/-4" or "0/-1" rather than a reduced fraction
        for num, den in [(1, 0), (3, -12), (0, -5), (F(1, 2), -1)]:
            with pytest.raises(ValueError, match="positive denominator, got %d" % den):
                ext.frac_str(num, den)
        assert ext.frac_str(3, 12) == "1/4" and ext.frac_str(0, 5) == "0/1"

    def test_floats_are_refused(self):
        # the solver, the rank and the formatter coerce through as_fraction,
        # as Series does, so a float raises instead of entering as its binary
        # expansion
        for call in (lambda: ext.solve_exact([[0.1, 1], [1, 0]], [1, 2]),
                     lambda: ext.solve_exact([[1, 0], [0, 1]], [0.5, 2]),
                     lambda: ext.matrix_rank([[0.5, 1]]),
                     lambda: ext.frac_str(0.1)):
            with pytest.raises(TypeError, match="float"):
                call()
        assert ext.solve_exact([[F(1, 10), 1], [1, 0]], ["1", 2]) == [F(2), F(4, 5)]
        assert ext.matrix_rank([["1/2", 1]]) == 1


def _bytes(series):
    return [(s.nums, s.den) for s in series]


class TestAgainstCompactReference:
    """The vertex against the compact-surface extraction it replaced, byte for byte:
    the same series through order 8, and at order 3, read on the same fixed charts
    Chart(-1) and Chart(-2), their truncations."""

    @pytest.mark.parametrize("s", range(-4, 6))
    def test_segre(self, s):
        reference = compact_extract("segre", s, 8)
        assert _bytes(ext.extract_universal(s, 8)) == _bytes(reference)
        assert _bytes(ext.extract_universal(s, 3)) == _bytes(x.truncate(3) for x in reference)

    @pytest.mark.parametrize("r", range(-3, 4))
    def test_verlinde(self, r):
        reference = compact_extract("verlinde", r, 8)
        assert _bytes(ext.extract_verlinde(r, 8)) == _bytes(reference)
        assert _bytes(ext.extract_verlinde(r, 3)) == _bytes(x.truncate(3) for x in reference)


class TestVertex:
    def test_exponent_rows(self):
        # at q = (1, 3): e = 1/3, K = 4; O(2)+O(1)-O(-1) has c1 = 4, c2 = 2 + 4 = 6, and
        # the chart's pairings are its integrals times beta, so each row is integers
        # over 12 beta = 36: (12 c2, 12 c1^2, K^2 + beta, 12 c1 K, 12 K^2) on the Segre
        # side, (K^2 + beta + 6 (w^2 - w K), K^2 + beta, 12 w K - 6 K^2, 12 K^2) for O(w)
        chart = ext.Chart(3)
        e, k = F(1, 3), 4
        cls = loc.parse_class(chart, "O(2)+O(1)-O(-1)")
        assert (cls.rank, cls.c1, cls.c2) == (1, (4,), 6)
        assert F(cls.c2, chart.beta) == 6 * e
        row, den = ext._segre_exponents(cls, 1)
        assert (row, den) == ([72, 192, 19, 192, 192], 36)
        assert [F(x, den) for x in row] == [
            6 * e, 16 * e, (k * k * e + 1) / 12, 4 * k * e, k * k * e]
        line = loc.parse_class(chart, "O(-2)")
        chi_O = (k * k * e + 1) / 12
        row, den = ext._verlinde_exponents(line, 0)
        assert (row, den) == ([91, 19, -192, 192], 36)
        assert [F(x, den) for x in row] == [
            chi_O + (4 * e + 2 * k * e) / 2, chi_O, -2 * k * e - k * k * e / 2, k * k * e]
        with pytest.raises(ext.PanelError, match="single line bundle"):
            ext._verlinde_exponents(cls, 0)

    def test_the_log_reads_u0(self):
        # Z = exp(x a), a = (u^-2 + 3) / 2, to x^2: its x^2 row holds u^-4, which the
        # log cancels; the log is x a, whose u^0 parts are 3/2 and 0, here over D = 2
        rows = [[8, 0, 0, 0, 0], [4, 0, 12, 0, 0], [1, 0, 6, 0, 9]]
        nums, den = ext._log_values(rows, 8)
        assert (nums, den) == ([3, 0], 2)
        assert [F(x, den) for x in nums] == [F(3, 2), 0]

    def test_a_pole_below_u_minus_two_raises(self):
        # x^2 u^-3 in Z stays in its log, as x^2 u^-3 at n = 2
        rows = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
        with pytest.raises(ArithmeticError, match=r"pole at u\^-3, below u\^-2"):
            ext._log_values(rows, 1)
        rows[2] = [0, 0, 1, 0, 0]  # x^2 u^-2 is a pole the log keeps
        assert ext._log_values(rows, 1) == ([0, 0], 2)
        with pytest.raises(ArithmeticError, match="should start at 1"):
            ext._log_values([[2, 0, 0]], 1)

    def test_a_direction_that_zeroes_a_tangent_weight_raises(self):
        # (1, 2) zeroes the weight (arm + 1) - leg beta of the box with arm = leg = 1,
        # which a partition of 3 has: a panel on Chart(2) serves order 2, not order 3
        panel = ext.Panel("segre", 1, [loc.EqKClass(ext.Chart(beta), cls.terms) for beta, cls
                                       in zip((2, 2, 2, 3, 3, 3), ext.default_panel("segre", 1))])
        assert [cls.surface.beta for cls in panel] == [2, 2, 2, 3, 3, 3]
        ext.extract_universal(1, 2, panel)
        with pytest.raises(ArithmeticError, match=r"direction \(1, 2\) zeroes a tangent weight"):
            ext.extract_universal(1, 3, panel)

    def test_compact_rows_are_refused(self):
        with pytest.raises(ext.PanelError, match="C\\^2 charts"):
            ext.extract_universal(1, 2, ext.build_panel(1))


def _log_outcome(log, rows, den):
    try:
        return log(rows, den)
    except ArithmeticError as error:
        return type(error), str(error)


@st.composite
def _chart_series(draw):
    """(rows, den, logs) for Z = exp(L), L = sum_n x^n u^-2n L_n with L_n's entries
    drawn from u^-2 up, so Z's log keeps poles at u^-2 and u^-1 only; the rows are
    Z's over a den with a drawn extra factor, so they need not be in lowest terms."""
    order = draw(st.integers(min_value=0, max_value=5))
    width = 2 * order + 1
    entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    logs = [None] + [[F(0)] * (2 * n - 2) + draw(st.lists(
        entries, min_size=width - 2 * n + 2, max_size=width - 2 * n + 2))
        for n in range(1, order + 1)]
    z = [[F(1)] + [F(0)] * (width - 1)]
    for n in range(1, order + 1):  # n Z_n = sum_k k L_k Z_(n-k), as u-rows cut at width
        row = [F(0)] * width
        for k in range(1, n + 1):
            for i, a in enumerate(logs[k]):
                for j in range(width - i):
                    row[i + j] += k * a * z[n - k][j]
        z.append([c / n for c in row])
    den = lcm(*(c.denominator for row in z for c in row)) * draw(st.integers(1, 4))
    return [[int(c * den) for c in row] for row in z], den, logs


class TestPlainRowLog:
    """_log_values on plain integer rows against the packed log it replaced
    (_ref_log_values): the same (numerators, D), or the same error text."""

    @pytest.mark.parametrize("kind,param", [("segre", s) for s in range(-4, 6)]
                             + [("verlinde", r) for r in range(-3, 4)])
    def test_default_panel_rows(self, kind, param):
        spec, panel = ext._KINDS[kind], ext.default_panel(kind, param)
        for order in range(1, 9):
            shapes = loc._shapes(order)
            for beta in (-1, -2):
                classes = [spec.lifts(cls, param) for cls in panel if cls.surface.beta == beta]
                for rows, den in loc._chart_product(ext.Chart(beta), classes, order,
                                                    (1, beta), spec.term, shapes):
                    assert ext._log_values(rows, den) == _ref_log_values(rows, den)

    @given(_chart_series())
    @settings(deadline=None, max_examples=60)
    def test_random_chart_series(self, series):
        rows, den, logs = series
        nums, d = ext._log_values(rows, den)
        assert (nums, d) == _ref_log_values(rows, den)
        assert [F(v, d) for v in nums] == [logs[n][2 * n] for n in range(1, len(rows))]

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3),
           st.data())
    @settings(deadline=None, max_examples=60)
    def test_random_rows(self, den, order, data):
        # mostly rows whose log keeps a pole below u^-2, and some that do not start at 1
        width = 2 * order + 1
        start = data.draw(st.sampled_from([den, den + 1]))
        rows = [[start] + [0] * (width - 1)] + [
            data.draw(st.lists(st.integers(-5, 5), min_size=width, max_size=width))
            for _ in range(order)]
        assert _log_outcome(ext._log_values, rows, den) == _log_outcome(_ref_log_values, rows, den)

    def test_both_raise_the_same_errors(self):
        # x^2 u^-3 is a pole below u^-2 at n = 2; a series starting at 2 is not a chart series
        for rows, den, text in [
                ([[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0]], 1,
                 "the log of a chart series keeps a pole at u^-3, below u^-2"),
                ([[2, 0, 0]], 1, "a chart series should start at 1, got [2, 0, 0]")]:
            for log in (ext._log_values, _ref_log_values):
                assert _log_outcome(log, rows, den) == (ArithmeticError, text)


def _cli_exponent_strings(kind, param, order):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["extract", "--kind=%s" % kind, "--rank=%d" % param,
                         "--order=%d" % order, "--json=-"]) == 0
    return json.loads(out.getvalue())["exponent_matrix"]


class TestAgainstFractionFormulation:
    """The integer rows and the integer solve against the Fraction formulation they
    replaced (FractionChart's exponents, Fraction values, _ref_solve_exact per order):
    the same series bytes and the same exponent strings in extract's JSON."""

    @pytest.mark.parametrize("kind,param", [("segre", s) for s in range(-4, 6)]
                             + [("verlinde", r) for r in range(-3, 4)])
    def test_default_panels(self, kind, param):
        for order in range(1, 7):
            panel = ext.default_panel(kind, param)
            matrix, reference = _ref_extract(kind, param, order, panel)
            assert _bytes(ext._extract(kind, param, order, panel)) == _bytes(reference)
            assert _cli_exponent_strings(kind, param, order) == [
                [str(x) for x in row] for row in matrix]

    @pytest.mark.parametrize("kind,param", [("segre", 2), ("verlinde", -2)])
    def test_a_shuffled_panel(self, kind, param):
        rows = ext.default_panel(kind, param).rows
        random.Random(param).shuffle(rows)
        panel = ext.Panel(kind, param, rows)
        matrix, reference = _ref_extract(kind, param, 4, panel)
        assert exponent_matrix(panel) == matrix
        assert _bytes(ext._extract(kind, param, 4, panel)) == _bytes(reference)


class TestIntegerExtraction:
    def test_rows_are_grouped_by_chart_direction(self, monkeypatch):
        # six rows, each on its own Chart(-1) or Chart(-2), still run one chart
        # product per beta, and give the default panel's series
        default = ext.default_panel("segre", 1)
        panel = ext.Panel("segre", 1, [loc.EqKClass(ext.Chart(cls.surface.beta), cls.terms)
                                       for cls in default])
        assert len({id(cls.surface) for cls in panel}) == 6
        original, calls = loc._chart_product, []

        def counted(surface, classes, order, q, term, shapes):
            calls.append((q, len(classes)))
            return original(surface, classes, order, q, term, shapes)

        monkeypatch.setattr(loc, "_chart_product", counted)
        series = ext.extract_universal(1, 3, panel)
        assert calls == [((1, -1), 3), ((1, -2), 3)]
        assert _bytes(series) == _bytes(ext.extract_universal(1, 3, default))

    @pytest.mark.parametrize("kind,perturb,row", [
        # Segre: row 5 is the one redundant row; a value one unit of D off at
        # order 2 is a residual of 1/D there
        ("segre", {5: 2}, 5),
        # Verlinde: rows 2 and 5 are redundant; the first right-hand side (order),
        # then the first row, that fails is named
        ("verlinde", {2: 2, 5: 1}, 5),
        ("verlinde", {2: 1, 5: 1}, 2),
    ])
    def test_a_failing_redundant_row_raises_through_extract(self, kind, perturb, row,
                                                            monkeypatch):
        panel = ext.default_panel(kind, 1)
        matrix = exponent_matrix(panel)
        redundant = [i for i in range(len(matrix))
                     if ext.matrix_rank(matrix[:i + 1]) == ext.matrix_rank(matrix[:i])]
        assert set(perturb) <= set(redundant)
        original, dens = ext._log_values, []

        def perturbed(rows, den):
            nums, d = original(rows, den)
            index = len(dens)
            dens.append(d)
            if index in perturb:
                nums = list(nums)
                nums[perturb[index] - 1] += 1
            return nums, d

        monkeypatch.setattr(ext, "_log_values", perturbed)
        with pytest.raises(ext.UniversalityError) as raised:
            ext._extract(kind, 1, 3, panel)
        assert str(raised.value) == "redundant row %d has nonzero residual %s" % (
            row, F(1, dens[row]))
