"""Acceptance gate: every criterion at zero tolerance, one line each.

Each test prints an "ACCEPTANCE <k> PASS" line on success (visible with
pytest -s or in the captured output); pytest -v itself shows one
pass/fail line per criterion.  Time budgets are asserted with the
generous limits the criteria state; actual runtimes are far below them.
"""

import random
import time
from fractions import Fraction as F
from math import comb

from hilbseries import catalog, extraction, verify
from hilbseries import localization as loc
from hilbseries.series import Series
from shifted_class import shifted


def _stamp(number, started, budget, message):
    elapsed = time.time() - started
    assert elapsed < budget, "criterion %d took %.1fs, budget %.0fs" % (
        number, elapsed, budget)
    print("ACCEPTANCE %d PASS (%.2fs): %s" % (number, elapsed, message))


def test_criterion_01_branch_expansion():
    started = time.time()
    branch = catalog.segre_rank2_branch(5)
    got = [branch.coefficient(n) for n in range(1, 6)]
    assert got == [1, -6, 41, -314, 2630]
    _stamp(1, started, 1, "quartic branch y(t) printed expansion at t^1..t^5")


def test_criterion_02_binomial_euler_characteristics():
    started = time.time()
    total = 0
    for r in range(2, 7):
        report = verify.check_thm3(r, n_max=8)
        assert report.passed, report.counterexample
        total += report.checks
    _stamp(2, started, 5, "rigid/one-dim closed forms and vanishing windows, "
                          "r=2..6, n<=8 (%d checks)" % total)


def test_criterion_03_blowup_excess():
    started = time.time()
    report = verify.check_blowup(20)
    assert report.passed, report.counterexample
    _stamp(3, started, 5, "blowup excess coefficient equals (-1)^n (2n+1), n<=20")


def test_criterion_04_fgh_derivation():
    started = time.time()
    report = verify.check_fgh_derivation(20)
    assert report.passed, report.counterexample
    _stamp(4, started, 10, "f/g/h source identities, pivot, and recovered "
                           "rank-2 A3/A4 to order 20")


def test_criterion_05_enriques():
    started = time.time()
    total = 0
    for r in range(2, 6):
        report = verify.check_enriques(r, n_max=6, form_order=20)
        assert report.passed, report.counterexample
        total += report.checks
    _stamp(5, started, 10, "Enriques Chern=Verlinde grid r=2..5 n<=6 and "
                           "residue-form agreement (%d checks)" % total)


def test_criterion_06_theta_dichotomy():
    started = time.time()
    for n in range(13):
        report = verify.check_theta_constant(n)
        assert report.passed, (n, report.counterexample)
        want = "constant term 1" if n % 3 == 0 else "constant term 0"
        assert want in report.detail
    _stamp(6, started, 1, "theta constant term dichotomy mod 3, n=0..12")


def test_criterion_07_oracle_convention_anchors():
    started = time.time()
    for name, spec in [("p2", "O(2)"), ("p1xp1", "O(1,2)"), ("f1", "O(2,1)")]:
        surface = loc.get_surface(name)
        cls = loc.parse_class(surface, spec)
        assert loc.segre_integral(cls, 1) == cls.c1sq
        assert loc.chern_integral(cls, 1) == 0
    p2 = loc.get_surface("p2")
    split = loc.parse_class(p2, "O(2)+O(3)")
    for n in range(5):
        assert loc.chern_integral(split, n) == comb(6, n)
    rng = random.Random(2026)
    surfaces = [loc.get_surface(k) for k in loc.surface_names()]
    for case in range(20):
        surface = surfaces[case % 3]
        width = len(surface.generators)
        terms = [(1, tuple(rng.randint(0, 2) for _ in range(width))),
                 (rng.choice((1, -1)), tuple(rng.randint(0, 2) for _ in range(width)))]
        cls = loc.EqKClass(surface, terms)
        moved = shifted(cls, rng.randrange(2), (rng.randint(-3, 3), rng.randint(-3, 3)))
        n = 1 + case % 2
        # each call already asserts two-specialization agreement internally
        assert loc.segre_integral(cls, n, seed=case) == \
            loc.segre_integral(moved, n, seed=1000 + case)
    _stamp(7, started, 30, "n=1 reductions, rank-2 Chern binomial n<=4, "
                           "20 random double-spec/lift-shift cases")


def test_criterion_08_rank1_extraction():
    started = time.time()
    series = extraction.extract_universal(1, 4)
    for index, got in enumerate(series):
        ref = catalog.segre_A(1, index, 4).series
        assert all(got.coefficient(n) == ref.coefficient(n)
                   for n in range(5)), "A%d" % index
    _stamp(8, started, 300, "rank-1 panel extraction equals the five "
                            "closed forms through order 4")


def test_criterion_09_rank2_extraction():
    started = time.time()
    series = extraction.extract_universal(2, 4)
    for index, got in enumerate(series):
        ref = catalog.segre_A(2, index, 4).series
        assert all(got.coefficient(n) == ref.coefficient(n)
                   for n in range(5)), "A%d" % index
    _stamp(9, started, 900, "rank-2 panel extraction equals the generic and "
                            "quartic-branch closed forms through order 4")


def test_criterion_10_verlinde_extraction():
    started = time.time()
    for r in (0, 1, 2):
        series = extraction.extract_verlinde(r, 4)
        for index in (1, 2):
            ref = catalog.verlinde_B(r, index, 4).series
            got = series[index - 1]
            assert all(got.coefficient(n) == ref.coefficient(n)
                       for n in range(5)), (r, index)
    for r in (0, 1, -1):
        series = extraction.extract_verlinde(r, 4)
        for index in (1, 2, 3, 4):
            ref = catalog.verlinde_B(r, index, 4).series
            got = series[index - 1]
            assert all(got.coefficient(n) == ref.coefficient(n)
                       for n in range(5)), (r, index)
    _stamp(10, started, 300, "extracted B1/B2 match printed forms for r=0,1,2; "
                             "full trivial-twist series match for r=0,1,-1")


def test_criterion_11_conjecture_reports():
    started = time.time()
    report = extraction.predict_unknown(0, 4)
    by_name = {entry["series"]: entry for entry in report["series"]}
    assert by_name["A3"]["status"] == "conjectural"
    assert by_name["A3"]["agreement_order"] == 4
    assert by_name["A4"]["agreement_order"] == 4
    agreements = ["rank0 A3->4", "A4->4"]
    for r in (2, 3):
        vreport = extraction.predict_verlinde(r, 3)
        for entry in vreport["series"]:
            if entry["series"] in ("B3", "B4"):
                assert entry["status"] == "conjectural"
                assert entry["agreement_order"] == 3
                agreements.append("r=%d %s->3" % (r, entry["series"]))
    _stamp(11, started, 300, "conjecture-grade agreement orders: "
                             + ", ".join(agreements))


def test_criterion_12_property_suites():
    started = time.time()
    rng = random.Random(123)
    order = 15

    def draw(constant=None, unit_linear=False):
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order + 1)]
        if constant is not None:
            coeffs[0] = F(constant)
        if unit_linear:
            coeffs[1] = F(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        return Series(coeffs, order)

    for _ in range(50):
        f = draw(constant=0, unit_linear=True)
        g = draw(constant=1)
        h = draw(constant=rng.randint(1, 5))
        # reversion and log/exp round-trips
        assert (f.compose(f.revert()) - Series.gen(order)).is_zero()
        assert (g.log().exp() - g).is_zero()
        # power law across integer and fractional exponents
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert (h ** a * h ** b - h ** (a + b)).is_zero()
        assert (g.pow_rational(F(1, 2)) ** 2 - g).is_zero()
    lb = verify._lagrange_burmann_suite(order=15, cases=50)
    assert lb.passed, lb.counterexample
    _stamp(12, started, 10, "round-trips, power laws, and Lagrange-Buermann "
                            "identity on 50 random inputs at order 15")
