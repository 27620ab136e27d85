"""Catalog anchors: printed closed forms, branch series, duality transport."""

import random
from fractions import Fraction as F

import pytest

from hilbseries import catalog
from hilbseries.catalog import (
    CONJECTURAL,
    PROVEN,
    TRIVIAL,
    UnknownSeriesError,
    chern_A,
    chern_full,
    segre_A,
    segre_change_of_var,
    segre_full,
    segre_rank2_branch,
    segre_verlinde_vars,
    verlinde_B,
    verlinde_change_of_var,
    verlinde_full,
    verlinde_r3_branch,
)
from hilbseries.series import Series

N = 10


def t_gen(order=N):
    return Series.gen(order, "t")


def in_t(entry):
    """Pull an entry's series back to the auxiliary variable t.

    Segre factors at rank s are in z(t) at s + 1, Chern factors at rank s
    (Segre at -s) in z(t) at 1 - s, Verlinde factors at twist r in w(t).
    """
    order = entry.series.order
    if entry.family == "verlinde":
        forward = verlinde_change_of_var(entry.rank, order)[0]
    else:
        r = entry.rank + 1 if entry.family == "segre" else 1 - entry.rank
        forward = segre_change_of_var(r, order)[0]
    return entry.series.compose(forward)


class TestChangesOfVariable:
    def test_segre_roundtrip(self):
        for r in (-3, -1, 0, 1, 2, 3):
            z_of_t, t_of_z = segre_change_of_var(r, N)
            assert z_of_t.compose(Series(list(t_of_z.coeffs), N, "t")) == Series.gen(N, "z")

    def test_verlinde_roundtrip(self):
        for r in (-2, 0, 1, 3):
            w_of_t, t_of_w = verlinde_change_of_var(r, N)
            assert w_of_t.compose(Series(list(t_of_w.coeffs), N, "t")) == Series.gen(N, "w")

    def test_matching_vars_agree_across_charts(self):
        # w written in the Segre chart t must equal u(1+u)^(r^2-1) with
        # u = t/(1-rt), the Verlinde chart in its own coordinate
        t = t_gen()
        for r in (0, 1, 2, 3, -2):
            z_of_t, w_of_t = segre_verlinde_vars(r, N)
            assert z_of_t == t * (1 - r * t) ** (-r)
            u_of_t = t * (1 - r * t).inverse()
            u = t_gen()
            w_chart = u * (1 + u) ** (r * r - 1)
            assert w_of_t == w_chart.compose(u_of_t)

    def test_lagrange_matches_compose_with_revert(self):
        # the coefficient formula against the Newton reversion it replaces
        rng = random.Random(20260815)
        order = 20
        t = Series.gen(order)
        pairs = [(0, 0), (0, 3), (3, 0), (-2, -1), (4, -1)]
        pairs += [(rng.randint(-4, 5), rng.randint(-4, 5)) for _ in range(6)]
        for a, b in pairs:
            h = Series([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(order + 1)])
            x_of_t = t * (1 + a * t) ** b
            got = catalog._lagrange(h, a, b, "x")
            assert got == h.compose(x_of_t.revert()), (a, b)
            assert got.var == "x"

    def test_inverse_charts_match_revert(self):
        order = 30
        for r in range(-4, 6):
            z_of_t, t_of_z = segre_change_of_var(r, order)
            assert t_of_z == z_of_t.revert() and t_of_z.var == "z"
            w_of_t, t_of_w = verlinde_change_of_var(r, order)
            assert t_of_w == w_of_t.revert() and t_of_w.var == "w"


class TestBranchSeries:
    def test_rank2_branch_frozen(self):
        y = segre_rank2_branch(6)
        assert list(y.coeffs) == [0, 1, -6, 41, -314, 2630, -23532]

    def test_twist3_branch_frozen(self):
        Y = verlinde_r3_branch(6)
        assert list(Y.coeffs) == [0, 1, -3, 14, -80, 509, -3459]

    def test_branches_related_by_mobius_substitution(self):
        t = t_gen()
        sub = t * (1 - 3 * t).inverse()
        assert verlinde_r3_branch(N) == segre_rank2_branch(N).compose(sub)

    def test_rank2_branch_satisfies_relation(self):
        y = segre_rank2_branch(N)
        t = t_gen()
        lhs = y * (1 + y) ** 2 * (1 + 3 * t)
        rhs = t * (1 - y) * (1 - y ** 3)
        assert lhs == rhs

    def test_relation_dicts_match_printed_equations(self):
        # both relations are linear in t: collect y^i t^0 and y^i t^1 as
        # coefficient lists of polynomials in y of degree <= 4
        y = Series.gen(4, "y")
        cube = y * (1 + y) ** 2
        quartic = (1 - y) * (1 - y ** 3)

        def relation(t0, t1):
            return {(i, j): c for j, poly in enumerate((t0, t1))
                    for i, c in enumerate(poly.coeffs) if c}

        # y (1+y)^2 = t (1-y)(1-y^3)
        assert catalog._TWIST3_RELATION == relation(cube, -quartic)
        # y (1+y)^2 (1+3t) = t (1-y)(1-y^3)
        assert catalog._RANK2_RELATION == relation(cube, 3 * cube - quartic)


class TestSegreFactors:
    def test_rank2_closed_forms(self):
        t = t_gen()
        printed = [
            (1 + 4 * t) ** 2 * (1 + 3 * t) ** -3,
            (1 + 3 * t) * (1 + 4 * t).pow_rational(F(-1, 2)),
            (1 + 3 * t) ** 4
            * (1 + 4 * t).pow_rational(F(-3, 2))
            * (1 + 12 * t).pow_rational(F(-1, 2)),
        ]
        for i, form in enumerate(printed):
            entry = segre_A(2, i, N)
            assert entry.status == PROVEN
            assert in_t(entry) == form

    def test_rank1_closed_forms(self):
        t = t_gen()
        root2 = (1 + 2 * t).sqrt()
        root6 = (1 + 6 * t).sqrt()
        printed = {
            0: (1 + 2 * t) ** -2 * (1 + 3 * t),
            1: root2,
            2: root2 ** 3 * (1 + 6 * t).pow_rational(F(-1, 2)),
            3: F(1, 2) * (1 + 2 * t).inverse() * (root2 + root6),
            4: 4 * root2 * root6 * (root2 + root6) ** -2,
        }
        for i, form in printed.items():
            entry = segre_A(1, i, N)
            assert entry.status == PROVEN
            assert in_t(entry) == form

    def test_rank2_34_in_branch_variable(self):
        t = t_gen()
        y = segre_rank2_branch(N + 1)
        y_over_t = y.shift(-1)
        a3 = (1 + 3 * t).inverse() * y_over_t.pow_rational(F(-1, 2))
        a4 = ((1 + 3 * t) * y_over_t ** 3 * (1 + y.truncate(N)) ** 2
              * (1 - y.truncate(N)).inverse() * y.derivative().inverse())
        assert in_t(segre_A(2, 3, N)) == a3
        assert in_t(segre_A(2, 4, N)) == a4

    def test_rank0_factors(self):
        t = t_gen()
        e3 = segre_A(0, 3, N)
        assert e3.status == CONJECTURAL
        assert in_t(e3) == (1 + t).inverse() * (1 + 2 * t).sqrt()
        e4 = segre_A(0, 4, N)
        assert e4.status == TRIVIAL
        assert e4.series == 1

    def test_negative_ranks_trivial(self):
        for s in (-1, -2):
            for i in (3, 4):
                entry = segre_A(s, i, N)
                assert entry.status == TRIVIAL
                assert entry.series == 1

    def test_low_indices_any_rank(self):
        for s in (-7, 5, 11):
            for i in (0, 1, 2):
                assert segre_A(s, i, N).status == PROVEN

    def test_unknown_ranks_raise(self):
        with pytest.raises(UnknownSeriesError):
            segre_A(3, 3, N)
        with pytest.raises(UnknownSeriesError):
            segre_A(-5, 4, N)
        with pytest.raises(UnknownSeriesError):
            segre_A(1, 5, N)

    def test_natural_variable_labels(self):
        entry = segre_A(2, 0, N)
        assert entry.series.var == "z"
        assert segre_change_of_var(entry.rank + 1, N)[0].var == "t"
        assert in_t(entry).var == "t"

    def test_lookups_build_no_change_of_variable(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a catalog lookup built a change of variable")

        monkeypatch.setattr(catalog, "segre_change_of_var", refuse)
        monkeypatch.setattr(catalog, "verlinde_change_of_var", refuse)
        for s in range(-4, 3):
            for index in range(5):
                assert segre_A(s, index, N).series.var == "z"
        for s in range(-4, 3):
            for index in range(3):
                assert chern_A(s, index, N).series.var == "z"
        for r in range(-3, 4):
            for index in range(1, 5):
                assert verlinde_B(r, index, N).series.var == "w"


class TestDualityTransport:
    def test_reproduces_twist2_pair(self):
        t = t_gen()
        b3, b4 = catalog._segre34_to_verlinde(1, N)
        half = (1 + (1 + 4 * t).sqrt()) / 2
        assert b3 == half * (1 + t).inverse()
        assert b4 == (1 + t).sqrt() * (1 + 4 * t).sqrt() * half.pow_rational(F(-5, 2))

    def test_reproduces_twist3_pair(self):
        t = t_gen()
        Y = verlinde_r3_branch(N + 1)
        y_over_t = Y.shift(-1)
        b3, b4 = catalog._segre34_to_verlinde(2, N)
        assert b3 == (1 + t).pow_rational(F(-3, 2)) * y_over_t.pow_rational(F(-1, 2))
        assert b4 == ((1 + t).pow_rational(F(3, 4)) * y_over_t.pow_rational(F(13, 4))
                      * (1 + Y.truncate(N)) ** 2 * (1 - Y.truncate(N)).inverse()
                      * Y.derivative().inverse())

    def test_trivial_at_small_twists(self):
        for src in (0, -1):
            b3, b4 = catalog._segre34_to_verlinde(src, N)
            assert b3 == 1 and b4 == 1

    def test_rank0_roundtrip_gives_proven_rank_minus2(self):
        a3, a4 = catalog._segre34_by_duality(0, N)
        assert a3 == 1 and a4 == 1

    def test_transport_is_involutive(self):
        # transporting the derived rank -3 factors back must return the
        # printed rank 1 pair, and likewise -4 -> 2
        for src in (1, 2):
            derived = -src - 2
            back3, back4 = catalog._segre34_by_duality(derived, N)
            assert back3 == catalog._segre34_in_t(src, 3, N)
            assert back4 == catalog._segre34_in_t(src, 4, N)

    def test_negative_rank_statuses(self):
        for s in (-3, -4):
            for i in (3, 4):
                assert segre_A(s, i, N).status == CONJECTURAL


class TestChernFactors:
    def test_rank2_is_one_plus_z(self):
        assert chern_A(2, 0, N).series == 1 + Series.gen(N, "z")
        assert chern_A(2, 1, N).series == 1
        assert chern_A(2, 2, N).series == 1

    def test_printed_forms_general_rank(self):
        order = 12
        t = t_gen(order)
        for s in range(-4, 6):
            r = s - 1
            u = 1 - r * t
            v = 1 + (1 - r) * t
            printed = [
                u ** (-r) * v ** (r + 1),
                u.pow_rational(F(r - 1, 2)) * v.pow_rational(F(-r, 2)),
                (1 + (r * r - r) * t).pow_rational(F(-1, 2))
                * u.pow_rational(F(r * r - 1, 2))
                * v.pow_rational(-r - F(r * r, 2)),
            ]
            for i, form in enumerate(printed):
                entry = chern_A(s, i, order)
                assert entry.status == PROVEN
                assert in_t(entry) == form

    def test_index_range(self):
        with pytest.raises(UnknownSeriesError):
            chern_A(2, 3, N)

    def test_chern_full_is_factor_product(self):
        prod = (chern_A(3, 0, N).series ** 5 * chern_A(3, 1, N).series ** -2
                * chern_A(3, 2, N).series ** 2)
        assert chern_full(3, 5, -2, 2, N) == prod


class TestVerlindeFactors:
    def test_first_two_factors_printed(self):
        t = t_gen()
        for r in (-3, 0, 1, 2, 5):
            e1 = verlinde_B(r, 1, N)
            assert e1.status == PROVEN
            assert in_t(e1) == 1 + t
            e2 = verlinde_B(r, 2, N)
            assert e2.status == PROVEN
            assert in_t(e2) == ((1 + t).pow_rational(F(r * r, 2))
                                * (1 + r * r * t).pow_rational(F(-1, 2)))

    def test_trivial_small_twists(self):
        for r in (-1, 0, 1):
            for i in (3, 4):
                entry = verlinde_B(r, i, N)
                assert entry.status == TRIVIAL
                assert entry.series == 1

    def test_twist2_pair_printed(self):
        t = t_gen()
        half = (1 + (1 + 4 * t).sqrt()) / 2
        e3 = verlinde_B(2, 3, N)
        assert e3.status == CONJECTURAL
        assert in_t(e3) == half * (1 + t).inverse()
        e4 = verlinde_B(2, 4, N)
        assert in_t(e4) == ((1 + t).sqrt() * (1 + 4 * t).sqrt()
                            * half.pow_rational(F(-5, 2)))

    def test_twist3_pair_printed(self):
        t = t_gen()
        Y = verlinde_r3_branch(N + 1)
        y_over_t = Y.shift(-1)
        assert in_t(verlinde_B(3, 3, N)) == ((1 + t).pow_rational(F(-3, 2))
                                             * y_over_t.pow_rational(F(-1, 2)))
        assert in_t(verlinde_B(3, 4, N)) == (
            (1 + t).pow_rational(F(3, 4)) * y_over_t.pow_rational(F(13, 4))
            * (1 + Y.truncate(N)) ** 2 * (1 - Y.truncate(N)).inverse()
            * Y.derivative().inverse())

    def test_serre_symmetry(self):
        for r in (2, 3):
            plus = verlinde_B(r, 3, N).series
            minus = verlinde_B(-r, 3, N).series
            assert plus * minus == 1
            assert verlinde_B(r, 4, N).series == verlinde_B(-r, 4, N).series

    def test_unknown_twists_raise(self):
        with pytest.raises(UnknownSeriesError):
            verlinde_B(4, 3, N)
        with pytest.raises(UnknownSeriesError):
            verlinde_B(-4, 4, N)
        with pytest.raises(UnknownSeriesError):
            verlinde_B(2, 0, N)


class TestAssemblers:
    def test_verlinde_twist0_is_geometric(self):
        w = Series.gen(N, "w")
        for chi in (1, 3, 7):
            got = verlinde_full(0, chi, 1, -3, 9, N)
            assert got == (1 - w).inverse() ** chi

    def test_verlinde_twist_pm1_is_binomial(self):
        w = Series.gen(N, "w")
        for r in (1, -1):
            got = verlinde_full(r, 4, 2, 0, 0, N)
            assert got == (1 + w) ** 4

    def test_verlinde_guard_on_odd_ksq(self):
        with pytest.raises(ValueError):
            verlinde_full(2, 3, 1, -3, 9, N)
        # even K^2, integral exponent: assembles fine
        verlinde_full(2, 3, 1, -2, 8, N)

    def test_verlinde_skips_unknown_factor_on_zero_exponent(self):
        got = verlinde_full(5, 2, 1, 0, 0, N)
        b1 = verlinde_B(5, 1, N).series
        b2 = verlinde_B(5, 2, N).series
        assert got == b1 ** 2 * b2
        with pytest.raises(UnknownSeriesError):
            verlinde_full(5, 2, 1, 2, 2, N)

    def test_segre_full_is_factor_product(self):
        prod = Series.one(N, "z")
        for i, e in enumerate((2, -1, 1, 3, 1)):
            prod = prod * segre_A(1, i, N).series ** e
        assert segre_full(1, 2, -1, 1, 3, 1, N) == prod

    def test_segre_full_skips_unknown_factor_on_zero_exponent(self):
        got = segre_full(4, 3, 2, 2, 0, 0, N)
        prod = (segre_A(4, 0, N).series ** 3 * segre_A(4, 1, N).series ** 2
                * segre_A(4, 2, N).series ** 2)
        assert got == prod
        with pytest.raises(UnknownSeriesError):
            segre_full(4, 3, 2, 2, 1, 0, N)


def test_order_zero_is_the_constant_one():
    # no reversion is needed, so order 0 is a valid request everywhere
    for s in range(-4, 3):
        for i in range(5):
            assert segre_A(s, i, 0).series == Series.one(0, "z")
        for i in range(3):
            assert chern_A(s, i, 0).series == Series.one(0, "z")
    for r in range(-3, 4):
        for i in range(1, 5):
            assert verlinde_B(r, i, 0).series == Series.one(0, "w")
    assert segre_full(1, 1, 1, 1, 0, 0, 0) == Series.one(0, "z")
    assert chern_full(3, 2, -1, 2, 0) == Series.one(0, "z")
    assert verlinde_full(2, 3, 1, 1, 2, 0) == Series.one(0, "w")
