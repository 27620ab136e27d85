"""Universality extraction tests.

The extracted series come from oracle integrals and exact linear solves
only; comparing them against the closed-form catalog cross-validates all
three layers at once.
"""

import random
from fractions import Fraction as F

import pytest

from hilbseries import catalog
from hilbseries import extraction as ext
from hilbseries import localization as loc


# build_panel's chosen rows, pinned from the rank-growth rule that keeps a
# probe while it raises the exponent rank and every probe once it is 5.
PANEL_ROWS = {
    -4: [
        "p2 O(0)-O(0)-O(0)-O(0)-O(0)-O(0)",
        "p1xp1 O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p2 O(0)-O(0)-O(0)-O(0)-O(0)-O(1)",
        "p1xp1 O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(1,0)",
        "p2 O(0)-O(0)-O(0)-O(0)-O(1)-O(1)",
        "p1xp1 O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(-1,1)",
    ],
    -3: [
        "p2 O(0)-O(0)-O(0)-O(0)-O(0)", "p1xp1 O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p2 O(0)-O(0)-O(0)-O(0)-O(1)", "p1xp1 O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(1,0)",
        "p2 O(0)-O(0)-O(0)-O(1)-O(1)", "p1xp1 O(0,0)-O(0,0)-O(0,0)-O(0,0)-O(-1,1)",
    ],
    -2: [
        "p2 O(0)-O(0)-O(0)-O(0)", "p1xp1 O(0,0)-O(0,0)-O(0,0)-O(0,0)",
        "p2 O(0)-O(0)-O(0)-O(1)", "p1xp1 O(0,0)-O(0,0)-O(0,0)-O(1,0)",
        "p2 O(0)-O(0)-O(1)-O(1)", "p1xp1 O(0,0)-O(0,0)-O(0,0)-O(-1,1)",
    ],
    -1: [
        "p2 O(0)-O(0)-O(0)", "p1xp1 O(0,0)-O(0,0)-O(0,0)", "p2 O(0)-O(0)-O(1)",
        "p1xp1 O(0,0)-O(0,0)-O(1,0)", "p2 O(0)-O(1)-O(1)", "p1xp1 O(0,0)-O(0,0)-O(-1,1)",
    ],
    0: [
        "p2 O(0)-O(0)", "p1xp1 O(0,0)-O(0,0)", "p2 O(0)-O(1)", "p1xp1 O(0,0)-O(1,0)",
        "p2 O(1)-O(0)", "p1xp1 O(0,0)-O(-1,1)",
    ],
    1: [
        "p2 O(0)", "p1xp1 O(0,0)", "p2 O(1)", "p1xp1 O(1,0)", "p2 O(0)+O(0)-O(1)",
        "p1xp1 O(2,2)",
    ],
    2: [
        "p2 O(0)+O(0)", "p1xp1 O(0,0)+O(0,0)", "p2 O(0)+O(1)", "p1xp1 O(0,0)+O(1,0)",
        "p2 O(1)+O(1)", "p1xp1 O(0,0)+O(-1,1)",
    ],
    3: [
        "p2 O(0)+O(0)+O(0)", "p1xp1 O(0,0)+O(0,0)+O(0,0)", "p2 O(0)+O(0)+O(1)",
        "p1xp1 O(0,0)+O(0,0)+O(1,0)", "p2 O(0)+O(1)+O(1)", "p1xp1 O(0,0)+O(0,0)+O(-1,1)",
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
    try:
        return ext._solve(matrix, columns)
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
        # (chi(L), chi(O), c1.K - K^2/2, K^2) of the default twist-0 panel
        matrix = ext.default_panel("verlinde", 0).exponent_matrix
        assert any(F(x).denominator == 2 for row in matrix for x in row)
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
        _assert_matches_reference(ext.build_panel(s).exponent_matrix, random.Random(s))

    @pytest.mark.parametrize("r", range(-3, 4))
    def test_verlinde_panels(self, r):
        _assert_matches_reference(ext.default_panel("verlinde", r).exponent_matrix,
                                  random.Random(r))


class TestPanels:
    def test_build_panel_reaches_rank5(self):
        for s in (0, 1, 2, -1):
            panel = ext.build_panel(s)
            assert len(panel) >= 5
            assert ext.matrix_rank(panel.exponent_matrix) == 5
            assert all(cls.rank == s for cls in panel)

    def test_single_surface_panel_rejected(self):
        # chi(O) and K^2 columns are proportional on one surface
        p2 = loc.get_surface("p2")
        rows = [loc.parse_class(p2, spec) for spec in
                ("O(0)", "O(1)", "O(2)", "O(0)+O(0)-O(1)", "O(1)+O(1)-O(3)")]
        with pytest.raises(ext.PanelError):
            ext.Panel("segre", 1, rows)

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
        # entry per order
        panel = ext.build_panel(1)
        original = ext._reduce
        trailing = []

        def counted(basis, row, width):
            trailing.append(len(row) - width)
            return original(basis, row, width)

        monkeypatch.setattr(ext, "_reduce", counted)
        for order in (1, 3):
            trailing.clear()
            ext.extract_universal(1, order, panel)
            assert trailing == [order] * len(panel)

    def test_panel_rank_mismatch_rejected(self):
        panel = ext.build_panel(1)
        with pytest.raises(ext.PanelError):
            ext.extract_universal(2, 2, panel)

    def test_panel_row_order_irrelevant(self):
        panel = ext.build_panel(1)
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

    def test_one_chart_pass_per_surface(self, monkeypatch):
        # the seven default rows lie on three surfaces: one pass for n = 0..3
        # over all of them, with one chart product per surface and direction
        for name in loc.surface_names():  # each validates itself by a chart pass once
            loc.get_surface(name)
        original_pass, original_product = loc._chart_pass, loc._chart_product
        passes, products = [], []

        def counted_pass(term, batch, order, seed, whats):
            passes.append((order, [surface.name for surface, _ in batch]))
            return original_pass(term, batch, order, seed, whats)

        def counted_product(surface, classes, order, q, term, shapes):
            products.append((surface.name, order, len(classes)))
            return original_product(surface, classes, order, q, term, shapes)

        monkeypatch.setattr(loc, "_chart_pass", counted_pass)
        monkeypatch.setattr(loc, "_chart_product", counted_product)
        ext.extract_verlinde(0, 3)
        assert passes == [(3, [cls.surface.name for cls in ext.default_panel("verlinde", 0)])]
        assert sorted(products) == sorted([("f1", 3, 1), ("p1xp1", 3, 3), ("p2", 3, 3)] * 2)

    @pytest.mark.parametrize("kind", ["segre", "verlinde"])
    def test_a_warm_extraction_draws_once_per_surface(self, kind, monkeypatch):
        # one oracle call for the panel: one draw per surface and one shape table
        extract = {"segre": ext.extract_universal, "verlinde": ext.extract_verlinde}[kind]
        extract(2, 3)
        original_draws, original_shapes = loc._two_draws, loc._shapes
        draws, shapes = [], []
        monkeypatch.setattr(loc, "_two_draws", lambda surface, n, seed: draws.append(
            (surface.name, n)) or original_draws(surface, n, seed))
        monkeypatch.setattr(loc, "_shapes", lambda order: shapes.append(order) or
                            original_shapes(order))
        extract(2, 3)
        names = {cls.surface.name for cls in ext.default_panel(kind, 2)}
        assert sorted(draws) == [(name, 3) for name in sorted(names)]
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
