"""Verifier checks: anchors for each identity plus report plumbing."""

from fractions import Fraction as F
from functools import lru_cache
from math import factorial
import sys

import pytest

from hilbseries import catalog, verify
from hilbseries.series import Series
from hilbseries.verify import (
    CheckReport,
    ModuliNumerics,
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
    run_suite,
    suite_names,
)


def ref_binom(a, n):
    """C(a, n) = a(a-1)...(a-n+1)/n! as a Fraction loop, for any integer a."""
    if n < 0:
        return F(0)
    num = F(1)
    for k in range(n):
        num *= F(a) - k
    return num / factorial(n)


@lru_cache(maxsize=None)
def ref_power(c, e, n):
    """(1 + c t)^e as a Series power at order n."""
    return (1 + c * Series.gen(n, "t")) ** e


def ref_residue_coeff(d, chi, r, n):
    """The Series-power formulation that the binomial sum replaced."""
    return (ref_power(1 + r, d, n) * ref_power(r, chi - r * n - d, n)).coefficient(n)


def ref_abelian_residue(r, n, chi):
    """[t^n] (1+rt)^e (1+r(r+1)t), e = chi-rn-1: the Series integrand check_abelian read."""
    return (ref_power(r, chi - r * n - 1, n) * ref_power(r * (r + 1), 1, n)).coefficient(n)


def ref_one_dim_closed_form(r, n, chi):
    """The d=1 closed form of check_thm3 in Fractions, as it was compared."""
    return r ** n * (-r + F(1, r) + F(chi, n)) * ref_binom(chi - r * n - 1, n - 1)


# the residue sweeps: e = chi - rn - d reaches both signs, r = 0 and r = -1 included
SWEEP_R = range(-4, 6)
SWEEP_N = 10
SWEEP_CHI = range(-5, 26)


def record_ratios(monkeypatch):
    """Every (context, got, num, den) that the checks hand to _Tally.eq_ratio."""
    calls = []
    original = verify._Tally.eq_ratio

    def spy(self, got, num, den, *context):
        calls.append((context, got, num, den))
        return original(self, got, num, den, *context)
    monkeypatch.setattr(verify._Tally, "eq_ratio", spy)
    return calls


def residue(d, chi, r, n):
    """The K3 residue [t^n] (1+(1+r)t)^d (1+rt)^(chi-rn-d) that thm3 and asymptotics read."""
    return verify._residue(d, chi, r, n, 1 + r)


def refuse_series_products(monkeypatch, who):
    def refuse(*args):
        raise AssertionError("%s multiplied series" % who)
    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(Series, name, refuse)


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
        assert residue(0, 5, 2, 1) == 6

    def test_constant_term(self):
        assert residue(3, -2, 4, 0) == 1

    def test_rigid_closed_form_spot(self):
        for r in (2, 3):
            for n in (1, 2, 3):
                for chi in (-1, 4, 11):
                    assert residue(0, chi, r, n) == r ** n * ref_binom(chi - r * n, n)

    def test_matches_series_powers(self):
        # the sweep reaches e = chi - rn - d < 0, r = -1 and r = 0
        for d in range(-2, 3):
            for r in range(-4, 6):
                for chi in range(-5, 26):
                    for n in range(11):
                        got = residue(d, chi, r, n)
                        assert type(got) is int
                        assert got == ref_residue_coeff(d, chi, r, n), (d, chi, r, n)

    def test_builds_no_series_product(self, monkeypatch):
        refuse_series_products(monkeypatch, "_residue")
        # [t^6] (1+3t)(1+2t)^-6 = C(11,6) 2^6 - 3 C(10,5) 2^5
        assert residue(1, 7, 2, 6) == 5376

    def test_abelian_residue_matches_series_powers(self):
        for r in SWEEP_R:
            for chi in SWEEP_CHI:
                for n in range(SWEEP_N + 1):
                    got = verify._residue(1, chi, r, n, r * (r + 1))
                    assert type(got) is int
                    assert got == ref_abelian_residue(r, n, chi), (r, n, chi)


class TestIntegerSweeps:
    """thm3 and abelian compare integers; the Fractions they replaced are the reference."""

    def test_closed_forms_are_the_fractions(self, monkeypatch):
        calls = record_ratios(monkeypatch)
        for r in SWEEP_R:
            if r:
                assert check_thm3(r, SWEEP_N, SWEEP_CHI).passed, r
            assert check_abelian(r, SWEEP_N, SWEEP_CHI).passed, r
        seen = {}
        for context, got, num, den in calls:
            kind = context[0] if isinstance(context[0], str) else "abelian"
            seen[kind] = seen.get(kind, 0) + 1
            want = F(num, den)
            if kind == "d=1":
                _, r, n, chi = context
                assert want == ref_one_dim_closed_form(r, n, chi), context
                assert got == ref_residue_coeff(1, chi, r, n), context
            elif kind == "d=0":
                _, r, n, chi = context
                assert want == r ** n * ref_binom(chi - r * n, n), context
                assert got == ref_residue_coeff(0, chi, r, n), context
            elif kind == "abelian":
                r, n, chi = context
                assert want == r ** n * F(chi, n) * ref_binom(chi - r * n - 1, n - 1), context
                assert got == ref_abelian_residue(r, n, chi), context
        points = SWEEP_N * len(SWEEP_CHI)
        assert seen["d=1"] == (len(SWEEP_R) - 1) * points
        assert seen["abelian"] == len(SWEEP_R) * points

    def test_rank_zero_raises(self):
        # the d=1 closed form has 1/r; cross-multiplied by rn = 0 it would hold vacuously
        with pytest.raises(ZeroDivisionError):
            check_thm3(0)
        with pytest.raises(ZeroDivisionError):
            check_thm3(0, n_max=1, chi_range=range(0, 1))

    def test_zero_denominator_raises_after_a_failure(self):
        tally = verify._Tally()
        tally.eq_ratio(1, 2, 1, "broken")
        with pytest.raises(ZeroDivisionError):
            tally.eq_ratio(0, 0, 0, "vacuous")

    def test_ratio_is_the_fraction_comparison(self):
        for got in range(-3, 4):
            for num in range(-6, 7):
                for den in (-3, -2, -1, 1, 2, 3):
                    ratio, fraction = verify._Tally(), verify._Tally()
                    ratio.eq_ratio(got, num, den, "ctx")
                    fraction.eq(F(got), F(num, den), "ctx")
                    assert ratio.report("x") == fraction.report("x"), (got, num, den)

    def test_sweeps_build_no_series(self, monkeypatch):
        refuse_series_products(monkeypatch, "a residue sweep")
        for r in range(2, 7):
            assert check_thm3(r).passed, r
        for r in range(2, 6):
            assert check_abelian(r).passed, r

    def test_failures_record_unscaled_fractions(self, monkeypatch):
        original = verify._residue
        monkeypatch.setattr(verify, "_residue", lambda d, chi, r, n, c:
                            original(d, chi, r, n, c) + (d == 1 and n == 2))
        # the first d=1 point at n=2: [t^2] (1+3t)(1+2t)^-8 = 96, compared times rn = 4
        report = check_thm3(2, n_max=3)
        assert not report.passed
        assert report.counterexample == ("d=1", 2, 2, -3, F(97), F(96))
        assert report.counterexample[4:] == (F(97), ref_one_dim_closed_form(2, 2, -3))
        assert all(type(x) is F for x in report.counterexample[4:])
        # [t^2] (1+2t)^-8 (1+6t) = 48, compared times n = 2
        report = check_abelian(2, n_max=3)
        assert report.counterexample == (2, 2, -3, F(49), F(48))
        assert all(type(x) is F for x in report.counterexample[3:])
        assert report.to_dict()["counterexample"] == ["2", "2", "-3", "49", "48"]

    def test_verlinde_references_once_per_chi(self, monkeypatch):
        built = []
        for name in ("__pow__", "inverse"):
            original = getattr(Series, name)

            def spy(self, *args, _original=original, _name=name):
                if sys._getframe(1).f_code is check_verlinde_trivial.__code__:
                    built.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(Series, name, spy)
        report = check_verlinde_trivial(order=6, chi_range=range(-2, 3))
        assert report.passed and report.checks == 5 * 3 * 3
        assert sorted(built) == ["__pow__"] * 10 + ["inverse"] * 5


def ref_theta_values(n, box_radius):
    """{q: count} by the Fraction loop that check_theta_constant ran before its integer sweep."""
    shift = F(2 * n, 3) - (2 * n) // 3
    values = {}
    for i in range(-box_radius, box_radius + 1):
        for j in range(-box_radius, box_radius + 1):
            x, y = i + shift, j + shift
            q = x * x + x * y + y * y
            values[q] = values.get(q, 0) + 1
    return values


def ref_spherical_chern(s, n_max=6, chi_range=None):
    """check_spherical_chern as it compared Fractions, before comparing numerators."""
    r = s - 1
    if chi_range is None:
        chi_range = range((s - 2) - 4, (s - 1) * n_max + 11)
    tally = verify._Tally()
    logs = catalog._SegreLogs(-s, n_max)
    for chi in chi_range:
        nums = ModuliNumerics.spherical(s, chi)
        tally.eq(nums.d, 0, "d", s, chi)
        series = logs.chern_full(nums.c2, nums.c1sq, 2)
        for n in range(n_max + 1):
            want = F((-r) ** n * verify._comb(-chi + r * n, n))
            tally.eq(series.coefficient(n), want, s, chi, n)
            if n >= 1 and (s - 2) * n < chi <= (s - 1) * n:
                tally.eq(series.coefficient(n), F(0), "vanish", s, chi, n)
        if s == 2:
            for n in range(n_max + 1):
                tally.eq(F((-r) ** n * verify._comb(-chi + r * n, n)),
                         F(verify._comb(chi - 1, n)), "rank2 binomial flip", chi, n)
    return tally.report(
        "spherical_chern",
        "s=%d, n<=%d, chi in [%d,%d)" % (s, n_max, chi_range[0], chi_range[-1] + 1))


def ref_chern_rank2(order=10, c2_range=range(-3, 9)):
    """check_chern_rank2 as it built (1+z)^c2 once per (c2, c1^2)."""
    tally = verify._Tally()
    z = Series.gen(order, "z")
    logs = catalog._SegreLogs(-2, order)
    for c2 in c2_range:
        for c1sq in (-2, 0, 4):
            tally.eq(logs.chern_full(c2, c1sq, 2), (1 + z) ** c2, c2, c1sq)
    tally.eq(catalog.chern_full(2, 6, 0, 2, 2).coefficient(2), F(15), "C(6,2)")
    return tally.report("chern_rank2", "c2 in %s, order %d" % (list(c2_range), order))


def ref_enriques_form(r, chi, n, form_order):
    """The two sides of the (chi, n) residue-form check of check_enriques, as it built them:
    three rational powers per left side, and the w power for every (chi, n)."""
    big = form_order + 1
    t = Series.gen(big, "t")
    _, w, f_big, g_big = verify._enriques_w_chart(r, big)
    e2 = -chi + r * r * n - F(r * r, 2) - F(1, 2)
    e3 = chi - r * r * n + F(r * r, 2) + n - 1
    lhs = ((1 + r * (r - 1) * t).pow_rational(F(1, 2))
           * (1 - r * t).pow_rational(e2)
           * (1 + (1 - r) * t).pow_rational(e3)).truncate(form_order)
    rhs_chi = f_big.pow_rational(F(1, 2)).truncate(form_order) * g_big.truncate(form_order) ** chi
    return lhs, rhs_chi * w.derivative() * w.shift(-1) ** (-(n + 1))


def bump_chern_coefficient(monkeypatch, c2, n):
    """Make the holders' Chern series at c2 wrong by 1 in coefficient n, for every c1^2."""
    original = catalog._SegreLogs.chern_full

    def bumped(self, c2_, c1sq, chiO):
        series = original(self, c2_, c1sq, chiO)
        if c2_ != c2:
            return series
        nums = list(series.nums)
        nums[n] += series.den
        return Series._over(series.den, nums, series.var)
    monkeypatch.setattr(catalog._SegreLogs, "chern_full", bumped)


class TestIntegerChecks:
    """theta, spherical_chern and chern_rank2 compare integers and build each
    value once; the forms they replaced are the reference, failures included."""

    def test_theta_sweep_is_the_fraction_loop(self):
        for n in range(31):
            for radius in (1, 2, 3):
                want = ref_theta_values(n, radius)
                got = verify._theta_values(n, radius)
                assert all(type(k) is int for k in got)
                assert {F(k, 9): count for k, count in got.items()} == want, (n, radius)
                assert F(min(got), 9) == min(want), (n, radius)
                report = check_theta_constant(n, radius)
                assert report.passed, (n, radius)
                assert report.detail == "constant term %s" % want.get(F(0), 0)

    def test_theta_failure_records_the_fraction_minimum(self, monkeypatch):
        original = verify._theta_values
        monkeypatch.setattr(verify, "_theta_values", lambda n, radius: {
            k + 3: count for k, count in original(n, radius).items()})
        assert check_theta_constant(3).counterexample == (3, "minimum", F(1, 3), F(0))
        assert check_theta_constant(4).counterexample == (4, "nonzero minimum value",
                                                           F(2, 3), F(1, 3))

    def test_spherical_chern_is_the_fraction_comparison(self):
        for s in range(2, 6):
            assert check_spherical_chern(s) == ref_spherical_chern(s), s

    def test_spherical_chern_failure_is_the_reference(self, monkeypatch):
        # s = 3 at chi = 5: c2 = 5(2) - 9 + 6 - 1 = 6; coefficient 2 off by one
        bump_chern_coefficient(monkeypatch, 6, 2)
        got, want = check_spherical_chern(3), ref_spherical_chern(3)
        assert not got.passed and got == want
        assert got.counterexample[:3] == (3, 5, 2)
        assert [type(x) for x in got.counterexample[3:]] == [F, F]
        assert got.counterexample[3] == got.counterexample[4] + 1  # (coefficient, want)
        assert got.to_dict() == want.to_dict()

    def test_spherical_chern_comb_failure_is_the_reference(self, monkeypatch):
        original = verify._comb
        monkeypatch.setattr(verify, "_comb", lambda a, n: original(a, n) + (n == 3))
        for s in range(2, 6):
            got = check_spherical_chern(s)
            assert not got.passed and got == ref_spherical_chern(s), s

    def test_chern_rank2_failure_is_the_reference(self, monkeypatch):
        assert check_chern_rank2(8) == ref_chern_rank2(8)
        bump_chern_coefficient(monkeypatch, 4, 3)
        got, want = check_chern_rank2(8), ref_chern_rank2(8)
        assert not got.passed and got == want
        assert got.counterexample[:2] == (4, -2)
        assert got.to_dict() == want.to_dict()

    def test_enriques_forms_are_the_rational_powers(self, monkeypatch):
        seen = []
        original = verify._Tally.eq

        def spy(self, got, want, *context):
            if context and context[0] == "forms":
                seen.append((context, got, want))
            return original(self, got, want, *context)
        monkeypatch.setattr(verify._Tally, "eq", spy)
        for r in range(1, 6):
            for form_order in (0, 3, 10):
                assert check_enriques(r, n_max=2, form_order=form_order).passed, r
        assert len(seen) == 5 * 3 * 6
        for (_, r, chi, n), got, want in seen:
            lhs, rhs = ref_enriques_form(r, chi, n, got.order)
            assert (got.order, got.den, got.nums) == (lhs.order, lhs.den, lhs.nums)
            assert (want.order, want.den, want.nums) == (rhs.order, rhs.den, rhs.nums)


class TestBinom:
    """The integer C(a, n) that spherical_chern and blowup read, against the Fraction loop."""

    def test_integers_match_the_fraction_loop(self):
        for a in range(-30, 31):
            for n in range(16):
                value = verify._comb(a, n)
                assert type(value) is int
                assert value == ref_binom(a, n), (a, n)

    def test_matches_comb_on_naturals(self):
        from math import comb
        for a in range(8):
            for n in range(8):
                assert verify._comb(a, n) == comb(a, n)

    def test_negative_upper_index(self):
        assert verify._comb(-2, 3) == -4
        assert verify._comb(-1, 5) == -1
        assert verify._comb(-3, 0) == 1

    def test_failures_record_fractions(self, monkeypatch):
        original = verify._comb
        monkeypatch.setattr(verify, "_comb", lambda a, n: original(a, n) + 1)
        chern, blowup = check_spherical_chern(2, n_max=3), check_blowup(n_max=3)
        # the first point, chi = -4 at n = 0: the coefficient 1 against C(4, 0) + 1
        assert chern.counterexample == (2, -4, 0, F(1), F(2))
        # n = 0: (C(2, 0) + 1) (C(0, 0) + 1) = 4 against the excess coefficient 1
        assert blowup.counterexample == ("direct sum", 0, F(1), F(4))
        for report in (chern, blowup):
            assert all(type(x) is F for x in report.counterexample[-2:]), report


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
