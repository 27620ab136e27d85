"""Universality extraction tests.

The extracted series come from oracle integrals and exact linear solves
only; comparing them against the closed-form catalog cross-validates all
three layers at once.
"""

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


class TestSolveExact:
    def test_plain_square_system(self):
        sol = ext.solve_exact([[2, 1], [1, 3]], [5, 10])
        assert sol == [F(1), F(3)]

    def test_rational_entries_and_pivoting(self):
        # leading zeros force a pivot search
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


class TestPanels:
    def test_build_panel_reaches_rank5(self):
        for s in (0, 1, 2, -1):
            panel = ext.build_panel(s)
            assert len(panel) >= 5
            assert ext.matrix_rank(panel.exponent_matrix) == 5
            assert all(cls.rank == s for _, cls in panel)

    def test_single_surface_panel_rejected(self):
        # chi(O) and K^2 columns are proportional on one surface
        p2 = loc.get_surface("p2")
        rows = [(p2, loc.parse_class(p2, spec)) for spec in
                ("O(0)", "O(1)", "O(2)", "O(0)+O(0)-O(1)", "O(1)+O(1)-O(3)")]
        with pytest.raises(ext.PanelError):
            ext.Panel("segre", 1, rows)

    def test_panel_rejects_wrong_rank(self):
        p2 = loc.get_surface("p2")
        with pytest.raises(ext.PanelError):
            ext.Panel("segre", 2, [(p2, loc.parse_class(p2, "O(1)"))])

    def test_build_panel_rows_pinned(self):
        for s, expected in PANEL_ROWS.items():
            panel = ext.build_panel(s)
            assert ["%s %s" % (surface.name, cls.spec()) for surface, cls in panel] == expected

    def test_too_small_size_rejected(self):
        with pytest.raises(ext.PanelError):
            ext.build_panel(1, size=4)


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
        # the seven default rows lie on three surfaces: one pass for n = 0..3 on each
        original = loc._chart_pass
        calls = []

        def counted(term, read, surface, kclasses, order, seed, whats):
            calls.append((surface.name, order, len(kclasses)))
            return original(term, read, surface, kclasses, order, seed, whats)

        monkeypatch.setattr(loc, "_chart_pass", counted)
        ext.extract_verlinde(0, 3)
        assert sorted(calls) == [("f1", 3, 1), ("p1xp1", 3, 3), ("p2", 3, 3)]

    def test_rank4_row_requirement(self):
        p2 = loc.get_surface("p2")
        rows = [(p2, loc.EqKClass(p2, [(1, (d,))])) for d in (0, 1, 2, 3)]
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
