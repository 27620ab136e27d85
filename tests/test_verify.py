"""Verifier checks: anchors for each identity plus report plumbing."""

from fractions import Fraction as F
from functools import lru_cache
from math import factorial

import pytest

from hilbseries import catalog, verify
from hilbseries.series import Series
from hilbseries.verify import (
    CheckReport,
    ModuliNumerics,
    binom,
    check_2pt_grid,
    check_abelian,
    check_asymptotics,
    check_blowup,
    check_blowup_excess,
    check_chern_rank2,
    check_enriques,
    check_fgh_derivation,
    check_lagrange_burmann,
    check_spherical_chern,
    check_theta_constant,
    check_thm3,
    check_verlinde_segre_prediction,
    check_verlinde_trivial,
    residue_coeff,
    run_suite,
    suite_names,
)


@lru_cache(maxsize=None)
def ref_power(c, e, n):
    """(1 + c t)^e as a Series power at order n."""
    return (1 + c * Series.gen(n, "t")) ** e


def ref_residue_coeff(d, chi, r, n):
    """The Series-power formulation that the binomial sum replaced."""
    return (ref_power(1 + r, d, n) * ref_power(r, chi - r * n - d, n)).coefficient(n)


class TestModuliNumerics:
    def test_spherical_has_d_zero(self):
        for s, chi in [(1, 3), (2, 7), (3, -1), (-2, 4)]:
            nums = ModuliNumerics.spherical(s, chi)
            assert nums.d == 0
            assert nums.r == s + 1

    def test_isotropic_has_d_one(self):
        for s, chi in [(1, 3), (2, 7), (4, 0)]:
            assert ModuliNumerics.isotropic(s, chi).d == 1

    def test_rejects_non_integral_d(self):
        # s = 0 with odd c1sq makes d a half-integer
        with pytest.raises(ValueError):
            ModuliNumerics(0, 2, 1, 0)

    def test_rejects_inconsistent_numerics(self):
        with pytest.raises(ValueError):
            ModuliNumerics(1, 0, 0, 0)

    def test_dimension_relation(self):
        nums = ModuliNumerics.spherical(2, 5)
        assert 2 * nums.d - 2 == nums.c1sq - 2 * nums.s * (nums.chi - nums.s)


class TestResidueCoeff:
    def test_printed_example(self):
        assert residue_coeff(0, 5, 2, 1) == 6

    def test_constant_term(self):
        assert residue_coeff(3, -2, 4, 0) == 1

    def test_rigid_closed_form_spot(self):
        for r in (2, 3):
            for n in (1, 2, 3):
                for chi in (-1, 4, 11):
                    assert residue_coeff(0, chi, r, n) == r ** n * binom(chi - r * n, n)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            residue_coeff(0, 1, 2, -1)

    def test_matches_series_powers(self):
        # the sweep reaches e = chi - rn - d < 0, r = -1 and r = 0
        for d in range(-2, 3):
            for r in range(-4, 6):
                for chi in range(-5, 26):
                    for n in range(11):
                        got = residue_coeff(d, chi, r, n)
                        assert type(got) is F
                        assert got == ref_residue_coeff(d, chi, r, n), (d, chi, r, n)

    def test_builds_no_series_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("residue_coeff multiplied series")
        monkeypatch.setattr(Series, "__mul__", refuse)
        monkeypatch.setattr(Series, "__rmul__", refuse)
        # [t^6] (1+3t)(1+2t)^-6 = C(11,6) 2^6 - 3 C(10,5) 2^5
        assert residue_coeff(1, 7, 2, 6) == 5376


def ref_binom(a, n):
    """The Fraction loop that binom runs for rational a, and ran for every a before."""
    if n < 0:
        return F(0)
    num = F(1)
    for k in range(n):
        num *= F(a) - k
    return num / factorial(n)


class TestBinom:
    def test_integers_match_the_fraction_loop(self):
        for a in range(-30, 31):
            for n in range(-2, 16):
                value = binom(a, n)
                assert type(value) is F
                assert value == ref_binom(a, n), (a, n)

    def test_rationals_match_the_fraction_loop(self):
        for a in (F(1, 2), F(-7, 3), F(4, 1), F(-5, 1)):
            for n in range(-1, 10):
                assert binom(a, n) == ref_binom(a, n), (a, n)

    def test_matches_comb_on_naturals(self):
        from math import comb
        for a in range(8):
            for n in range(8):
                assert binom(a, n) == comb(a, n)

    def test_negative_upper_index(self):
        assert binom(-2, 3) == -4
        assert binom(F(1, 2), 2) == F(-1, 8)
        assert binom(5, -1) == 0


class TestChecks:
    def test_thm3(self):
        report = check_thm3(2, n_max=5)
        assert report.passed and report.checks > 100

    def test_2pt_point_and_grid(self):
        report = check_2pt_grid(range(-2, 3), range(-1, 2), range(-1, 2))
        assert report.passed
        assert "deg 4" in report.ranges

    def test_asymptotics(self):
        for r in (2, 4):
            assert check_asymptotics(r, order=6).passed

    def test_chern_rank2(self):
        assert check_chern_rank2(order=6).passed

    def test_spherical_chern(self):
        assert check_spherical_chern(2, n_max=4).passed
        assert check_spherical_chern(4, n_max=4).passed

    def test_abelian(self):
        assert check_abelian(2, n_max=4).passed
        assert check_abelian(3, n_max=4).passed

    def test_enriques(self):
        report = check_enriques(2, n_max=4, form_order=12)
        assert report.passed

    def test_blowup_anchors(self):
        assert check_blowup_excess(1) == -3
        assert check_blowup_excess(2) == 5
        assert check_blowup_excess(0) == 1
        assert check_blowup(n_max=12).passed

    def test_blowup_one_variable_route_matches_double_sum(self):
        # the suite cross-checks the double sum only for n <= 10
        for n in range(21):
            assert check_blowup_excess(n) == verify._blowup_direct(n) == (-1) ** n * (2 * n + 1)

    def test_theta_dichotomy(self):
        for n in range(13):
            report = check_theta_constant(n)
            assert report.passed, (n, report.counterexample)
            want = "1" if n % 3 == 0 else "0"
            assert report.detail == "constant term %s" % want

    def test_fgh(self):
        assert check_fgh_derivation(order=12).passed

    def test_fgh_reads_the_catalog_branch_once(self, monkeypatch):
        # one solve for the catalog's third and fourth factors, one for the
        # branch y(t) they are checked against
        original = catalog.segre_rank2_branch
        calls = []
        monkeypatch.setattr(catalog, "segre_rank2_branch",
                            lambda order: calls.append(order) or original(order))
        check_fgh_derivation(order=12)
        assert calls == [14, 13]

    def test_lagrange_burmann_anchor(self):
        order = 8
        w = Series.gen(order + 1, "w")
        one = Series.one(order + 1, "w")
        assert check_lagrange_burmann(1 + w, one, order).passed
        assert check_lagrange_burmann(one, one, order).passed

    def test_lagrange_burmann_rejects_bad_f(self):
        order = 6
        w = Series.gen(order + 1, "w")
        with pytest.raises(ValueError):
            check_lagrange_burmann(w, 1 + w, order)
        with pytest.raises(ValueError):
            check_lagrange_burmann(1 + w.truncate(3), 1 + w.truncate(3), order)

    def test_verlinde_trivial(self):
        assert check_verlinde_trivial(order=6).passed

    def test_verlinde_segre(self):
        report = check_verlinde_segre_prediction(order=6)
        assert report.passed
        assert "not a proof" in report.detail


class TestReportPlumbing:
    def test_failure_carries_counterexample(self):
        tally = verify._Tally()
        tally.eq(F(1), F(1), "fine")
        tally.eq(F(2), F(3), "broken", 7)
        report = tally.report("demo")
        assert not report.passed
        assert report.counterexample == ("broken", 7, F(2), F(3))
        assert report.checks == 2

    def test_to_dict_stringifies(self):
        report = CheckReport("demo", False, 3, "r=2", (F(1, 2), "ctx"), "note")
        data = report.to_dict()
        assert data["counterexample"] == ["1/2", "ctx"]
        assert data["passed"] is False

    def test_run_suite_all_pass(self):
        reports = run_suite(order=6)
        assert [r.name for r in reports] == sorted(suite_names())
        assert all(r.passed for r in reports), [
            (r.name, r.counterexample) for r in reports if not r.passed]

    def test_run_suite_subset_and_unknown(self):
        reports = run_suite(["theta", "blowup"], order=6)
        assert [r.name for r in reports] == ["blowup", "theta"]
        with pytest.raises(KeyError):
            run_suite(["nonsense"])
