"""Catalog anchors: printed closed forms, branch series, duality transport."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbseries import catalog, verify
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


# The product form the catalog replaced by sums of logs: each factor built
# in t from rational powers, the duality transport on the series
# themselves, and the assemblers as products of integer powers.  Kept as
# the differential reference of TestAgainstProductForm.

def ref_segre012_in_t(s, index, order):
    r = s + 1
    t = t_gen(order)
    u = 1 + r * t
    v = 1 + (1 + r) * t
    if index == 0:
        return u ** (-r) * v ** (r - 1)
    if index == 1:
        return u.pow_rational(F(r - 1, 2)) * v.pow_rational(1 - F(r, 2))
    w = 1 + r * (1 + r) * t
    return (u.pow_rational(F(r * r - 1, 2))
            * v.pow_rational(r - F(r * r, 2))
            * w.pow_rational(F(-1, 2)))


def ref_segre34_in_t(s, index, order):
    t = t_gen(order)
    if s == 2:
        y = segre_rank2_branch(order + 1)
        y_over_t = y.shift(-1)
        if index == 3:
            return (1 + 3 * t).inverse() * y_over_t.pow_rational(F(-1, 2))
        return ((1 + 3 * t) * y_over_t ** 3 * (1 + y.truncate(order)) ** 2
                * (1 - y.truncate(order)).inverse() * y.derivative().inverse())
    if s == 1:
        root2 = (1 + 2 * t).pow_rational(F(1, 2))
        root6 = (1 + 6 * t).pow_rational(F(1, 2))
        if index == 3:
            return F(1, 2) * (1 + 2 * t).inverse() * (root2 + root6)
        return 4 * root2 * root6 * (root2 + root6) ** -2
    if s == 0 and index == 3:
        return (1 + t).inverse() * (1 + 2 * t).pow_rational(F(1, 2))
    if s in (-3, -4):
        return ref_segre34_by_duality(-s - 2, order)[index - 3]
    return Series.one(order)


def ref_duality_pref(r, index, order):
    t = t_gen(order)
    u = 1 + r * t
    v = 1 + (1 + r) * t
    if index == 3:
        return u.pow_rational(F(r + 1, 2)) * v.pow_rational(F(-r, 2))
    return v.pow_rational(F(r, 4)) * u.pow_rational(F(-(r + 1), 4))


def ref_segre34_to_verlinde(s, order):
    r = s + 1
    a3 = ref_segre34_in_t(s, 3, order)
    a4 = ref_segre34_in_t(s, 4, order)
    b3 = catalog._lagrange(a3 * ref_duality_pref(r, 3, order), r, -1, "t")
    b4 = catalog._lagrange(a4 * a3.pow_rational(F(-1, 2)) * ref_duality_pref(r, 4, order),
                           r, -1, "t")
    return b3, b4


def ref_segre34_by_duality(src_rank, order):
    r = src_rank + 1
    b3, b4 = ref_segre34_to_verlinde(src_rank, order)
    a3 = (catalog._lagrange(b3.inverse(), r, -1, "t")
          * ref_duality_pref(-r, 3, order).inverse())
    a4 = (catalog._lagrange(b4, r, -1, "t") * ref_duality_pref(-r, 4, order).inverse()
          * a3.pow_rational(F(1, 2)))
    return a3, a4


def ref_verlinde34_in_t(r, order):
    t = t_gen(order)
    if r == 2:
        half = (1 + (1 + 4 * t).pow_rational(F(1, 2))) / 2
        b3 = half * (1 + t).inverse()
        b4 = ((1 + t).pow_rational(F(1, 2)) * (1 + 4 * t).pow_rational(F(1, 2))
              * half.pow_rational(F(-5, 2)))
        return b3, b4
    if r == 3:
        yy = verlinde_r3_branch(order + 1)
        y_over_t = yy.shift(-1)
        b3 = (1 + t).pow_rational(F(-3, 2)) * y_over_t.pow_rational(F(-1, 2))
        b4 = ((1 + t).pow_rational(F(3, 4)) * y_over_t.pow_rational(F(13, 4))
              * (1 + yy.truncate(order)) ** 2
              * (1 - yy.truncate(order)).inverse() * yy.derivative().inverse())
        return b3, b4
    one = Series.one(order)
    return one, one


def ref_segre_A(s, index, order):
    if index in (0, 1, 2):
        series, status = ref_segre012_in_t(s, index, order), PROVEN
    elif index in (3, 4):
        if s not in catalog.SEGRE_34_RANKS:
            raise UnknownSeriesError(
                "Segre factor %d has no known closed form at rank %d" % (index, s))
        series = ref_segre34_in_t(s, index, order)
        if s in (1, 2):
            status = PROVEN
        elif s in (-3, -4) or (s == 0 and index == 3):
            status = CONJECTURAL
        else:
            status = TRIVIAL
    else:
        raise UnknownSeriesError("Segre factor index must be 0..4, got %r" % (index,))
    return catalog.SeriesEntry("segre", index, s, status,
                               catalog._lagrange(series, s + 1, s + 1, "z"))


def ref_chern_A(s, index, order):
    if index not in (0, 1, 2):
        raise UnknownSeriesError("Chern factor index must be 0..2, got %r" % (index,))
    series = ref_segre_A(-s, index, order).series
    if index == 0:
        series = series.inverse()
    elif index == 1:
        series = series * ref_segre_A(-s, 0, order).series
    return catalog.SeriesEntry("chern", index, s, PROVEN, series)


def ref_verlinde_B(r, index, order):
    t = t_gen(order)
    if index == 1:
        series, status = 1 + t, PROVEN
    elif index == 2:
        series = (1 + t).pow_rational(F(r * r, 2)) * (1 + r * r * t).pow_rational(F(-1, 2))
        status = PROVEN
    elif index in (3, 4):
        if r not in catalog.VERLINDE_34_TWISTS:
            raise UnknownSeriesError(
                "Verlinde factor %d has no known closed form at twist %d" % (index, r))
        b3, b4 = ref_verlinde34_in_t(abs(r), order)
        if r < 0:
            b3 = b3.inverse()
        series = b3 if index == 3 else b4
        status = TRIVIAL if abs(r) <= 1 else CONJECTURAL
    else:
        raise UnknownSeriesError("Verlinde factor index must be 1..4, got %r" % (index,))
    return catalog.SeriesEntry("verlinde", index, r, status,
                               catalog._lagrange(series, 1, r * r - 1, "w"))


def ref_segre_full(s, c2, c1sq, chiO, c1K, Ksq, order):
    out = Series.one(order, "z")
    for index, e in enumerate((c2, c1sq, chiO, c1K, Ksq)):
        if e:
            out = out * ref_segre_A(s, index, order).series ** e
    return out


def ref_verlinde_full(r, chi_c1, chiO, c1K, Ksq, order):
    out = Series.one(order, "w")
    for index, e in ((1, chi_c1), (2, chiO), (4, Ksq)):
        if e:
            out = out * ref_verlinde_B(r, index, order).series ** e
    e3 = F(2 * c1K - Ksq, 2)
    if e3:
        b3 = ref_verlinde_B(r, 3, order).series
        if e3.denominator == 1:
            out = out * b3 ** int(e3)
        elif not (b3 - 1).is_zero():
            raise ValueError(
                "third-factor exponent %s is not an integer (odd K^2) and the "
                "factor at twist %d is nontrivial" % (e3, r))
    return out


def ref_mean_root_log(order, c, d):
    """log((sqrt(1+ct) + sqrt(1+dt)) / 2) with each root as exp(log(1+ct)/2), as the
    catalog built it before it wrote the roots in closed form."""
    root_c, root_d = (catalog._log1p_sum(order, (x, F(1, 2))).exp() for x in (c, d))
    return ((root_c + root_d) / 2).log()


def outcome(fn, *args):
    """repr of the result, the variable name included, or the error raised."""
    try:
        return repr(fn(*args))
    except (UnknownSeriesError, ValueError) as error:
        return "%s: %s" % (type(error).__name__, error)


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
        # the printed dictionary w = t(1-(r-1)t)^(r^2-1) / (1-rt)^(r^2), in the
        # Segre chart t, against the Enriques check's w = u(1+u)^(r^2-1) at
        # u = t/(1-rt), the Verlinde chart
        t = t_gen()
        for r in range(-3, 7):
            printed = t * (1 - (r - 1) * t) ** (r * r - 1) * (1 - r * t) ** (-r * r)
            assert verify._enriques_w_chart(r, N)[1] == printed, r

    def test_lagrange_matches_compose_with_revert(self):
        # the coefficient formula against the reversion it replaces
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
        root2 = (1 + 2 * t).pow_rational(F(1, 2))
        root6 = (1 + 6 * t).pow_rational(F(1, 2))
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
        assert in_t(e3) == (1 + t).inverse() * (1 + 2 * t).pow_rational(F(1, 2))
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
        half = (1 + (1 + 4 * t).pow_rational(F(1, 2))) / 2
        assert b3.exp() == half * (1 + t).inverse()
        assert b4.exp() == ((1 + t).pow_rational(F(1, 2)) * (1 + 4 * t).pow_rational(F(1, 2))
                            * half.pow_rational(F(-5, 2)))

    def test_reproduces_twist3_pair(self):
        t = t_gen()
        Y = verlinde_r3_branch(N + 1)
        y_over_t = Y.shift(-1)
        b3, b4 = catalog._segre34_to_verlinde(2, N)
        assert b3.exp() == (1 + t).pow_rational(F(-3, 2)) * y_over_t.pow_rational(F(-1, 2))
        assert b4.exp() == ((1 + t).pow_rational(F(3, 4)) * y_over_t.pow_rational(F(13, 4))
                      * (1 + Y.truncate(N)) ** 2 * (1 - Y.truncate(N)).inverse()
                      * Y.derivative().inverse())

    def test_trivial_at_small_twists(self):
        for src in (0, -1):
            b3, b4 = catalog._segre34_to_verlinde(src, N)
            assert b3.is_zero() and b4.is_zero()

    def test_rank0_roundtrip_gives_proven_rank_minus2(self):
        a3, a4 = catalog._segre34_by_duality(0, N)
        assert a3.is_zero() and a4.is_zero()

    def test_transport_is_involutive(self):
        # transporting the derived rank -3 factors back must return the
        # printed rank 1 pair, and likewise -4 -> 2
        for src in (1, 2):
            derived = -src - 2
            back3, back4 = catalog._segre34_by_duality(derived, N)
            assert back3.exp() == ref_segre34_in_t(src, 3, N)
            assert back4.exp() == ref_segre34_in_t(src, 4, N)

    def test_negative_rank_statuses(self):
        for s in (-3, -4):
            for i in (3, 4):
                assert segre_A(s, i, N).status == CONJECTURAL

    def test_one_branch_solve_per_transport(self, monkeypatch):
        # both transported factors come from one rank-2 branch
        calls = count_branch_solves(monkeypatch)
        for index in (3, 4):
            calls.clear()
            segre_A(-4, index, N)
            assert calls == [N + 1], index

    def test_one_branch_solve_per_assembly(self, monkeypatch):
        # the third and fourth factors of a full series share one branch
        calls = count_branch_solves(monkeypatch)
        for s in (2, -4):
            calls.clear()
            segre_full(s, 2, -1, 1, 3, 1, N)
            assert calls == [N + 1], s

    def test_one_verlinde_branch_solve_per_assembly(self, monkeypatch):
        # the third and fourth Verlinde factors at twist +-3 share one branch
        calls = count_branch_solves(monkeypatch, "verlinde_r3_branch")
        verlinde_full(3, 2, 1, 2, 2, 10)
        assert calls == [11]
        for r in (3, -3):
            calls.clear()
            verlinde_full(r, 3, 1, 5, 8, N)
            assert calls == [N + 1], r


def count_branch_solves(monkeypatch, name="segre_rank2_branch"):
    """The orders of every solve of the named branch from here on."""
    original = getattr(catalog, name)
    calls = []

    def counted(order):
        calls.append(order)
        return original(order)

    monkeypatch.setattr(catalog, name, counted)
    return calls


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
        half = (1 + (1 + 4 * t).pow_rational(F(1, 2))) / 2
        e3 = verlinde_B(2, 3, N)
        assert e3.status == CONJECTURAL
        assert in_t(e3) == half * (1 + t).inverse()
        e4 = verlinde_B(2, 4, N)
        assert in_t(e4) == ((1 + t).pow_rational(F(1, 2)) * (1 + 4 * t).pow_rational(F(1, 2))
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

    def test_verlinde_refuses_half_integer_third_exponent(self):
        # 2 c1.K - K^2 = -1: the third exponent is -1/2
        for r in (2, -2, 3, -3):
            message = ("third-factor exponent -1/2 is not an integer (odd K^2) and the "
                       "factor at twist %d is nontrivial" % r)
            with pytest.raises(ValueError) as info:
                verlinde_full(r, 3, 1, 4, 9, N)
            assert str(info.value) == message
        for r in (0, 1, -1):
            got = verlinde_full(r, 3, 1, 4, 9, N)
            assert isinstance(got, Series)
            assert got == ref_verlinde_full(r, 3, 1, 4, 9, N)

    def test_verlinde_skips_unknown_factor_on_zero_exponent(self):
        got = verlinde_full(5, 2, 1, 0, 0, N)
        b1 = verlinde_B(5, 1, N).series
        b2 = verlinde_B(5, 2, N).series
        assert got == b1 ** 2 * b2
        with pytest.raises(UnknownSeriesError):
            verlinde_full(5, 2, 1, 2, 2, N)

    def test_segre_full_is_factor_product(self):
        for s in (2, 1, 0, -4):
            for tail in ((3, 1), (3, 0), (0, 1)):
                prod = Series.one(N, "z")
                for i, e in enumerate((2, -1, 1) + tail):
                    prod = prod * segre_A(s, i, N).series ** e
                assert segre_full(s, 2, -1, 1, *tail, N) == prod, (s, tail)

    def test_segre_full_skips_unknown_factor_on_zero_exponent(self):
        got = segre_full(4, 3, 2, 2, 0, 0, N)
        prod = (segre_A(4, 0, N).series ** 3 * segre_A(4, 1, N).series ** 2
                * segre_A(4, 2, N).series ** 2)
        assert got == prod
        for tail, index in (((1, 0), 3), ((1, 1), 3), ((0, 1), 4)):
            with pytest.raises(UnknownSeriesError,
                               match="Segre factor %d has no known closed form at rank 4$"
                               % index):
                segre_full(4, 3, 2, 2, *tail, N)


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


@pytest.mark.parametrize("order", [-1, -2])
def test_negative_order_is_refused(order):
    # every factor is built from integers; a negative order must not pass as order 0
    for lookup in (lambda: segre_A(1, 2, order), lambda: segre_A(-3, 4, order),
                   lambda: chern_A(1, 1, order), lambda: verlinde_B(2, 3, order),
                   lambda: segre_full(1, 1, 1, 1, 0, 0, order),
                   lambda: segre_change_of_var(2, order)):
        with pytest.raises(ValueError):
            lookup()


class TestAgainstProductForm:
    """The log-space catalog against the product form it replaced, byte for byte."""

    @pytest.mark.parametrize("order", [0, 1, 6, 20])
    def test_factors(self, order):
        for s in range(-4, 5):
            for index in range(-1, 6):
                assert (outcome(segre_A, s, index, order)
                        == outcome(ref_segre_A, s, index, order)), (s, index)
            for index in range(4):
                assert (outcome(chern_A, s, index, order)
                        == outcome(ref_chern_A, s, index, order)), (s, index)
        for r in range(-4, 5):
            for index in range(6):
                assert (outcome(verlinde_B, r, index, order)
                        == outcome(ref_verlinde_B, r, index, order)), (r, index)

    @pytest.mark.parametrize("order", [0, 1, 6, 20])
    def test_assemblers(self, order):
        segre_exponents = [(0, 0, 0, 0, 0), (3, -2, 1, 0, 0), (40, -40, 7, 0, 0),
                           (2, -1, 1, 3, 1), (-5, 40, -3, -2, 9)]
        for s in range(-4, 5):
            for exponents in segre_exponents:
                assert (outcome(segre_full, s, *exponents, order)
                        == outcome(ref_segre_full, s, *exponents, order)), (s, exponents)
        verlinde_exponents = [(0, 0, 0, 0), (3, 1, 4, 9), (40, -2, 4, 8), (-7, 3, -5, 2),
                              (4, 2, 0, 0), (1, 1, 40, 40), (0, 0, -20, 1)]
        for r in range(-4, 5):
            for exponents in verlinde_exponents:
                assert (outcome(verlinde_full, r, *exponents, order)
                        == outcome(ref_verlinde_full, r, *exponents, order)), (r, exponents)


@given(st.integers(0, 25), st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
@example(0, 2, 6)
@example(25, 0, 4)
@example(12, 0, 0)
@example(25, -7, 0)
@settings(deadline=None, max_examples=100)
def test_mean_root_matches_the_two_exp_root(order, c, d):
    got, want = catalog._mean_root_log(order, c, d), ref_mean_root_log(order, c, d)
    assert (got.order, got.den, got.nums, got.var) == (want.order, want.den, want.nums, want.var)


MEAN_ROOT_PAIRS = [(2, 6), (0, 4)] + [
    (random.Random(seed).randint(-10 ** 9, 10 ** 9), random.Random(-seed).randint(-99, 99))
    for seed in range(1, 4)]


@pytest.mark.parametrize("c, d", MEAN_ROOT_PAIRS)
def test_mean_root_at_every_order_to_sixty(c, d):
    # the root in s = t/4, its log at scale 1, against the two-exp root in t
    for order in range(61):
        got, want = catalog._mean_root_log(order, c, d), ref_mean_root_log(order, c, d)
        assert (got.order, got.den, got.nums, got.var) == \
            (want.order, want.den, want.nums, want.var), order


@pytest.mark.parametrize("order", [-1, -5])
def test_mean_root_refuses_a_negative_order(order):
    with pytest.raises(ValueError, match="^truncation order must be >= 0$"):
        catalog._mean_root_log(order, 2, 6)


def test_no_series_power_in_the_catalog(monkeypatch):
    # every factor is a sum of logs in t: one substitution and one exp
    raised = []
    power, rational = Series.__pow__, Series.pow_rational

    def counted_power(self, e):
        raised.append(e)
        return power(self, e)

    def counted_rational(self, e):
        raised.append(e)
        return rational(self, e)

    monkeypatch.setattr(Series, "__pow__", counted_power)
    monkeypatch.setattr(Series, "pow_rational", counted_rational)
    for s in catalog.SEGRE_34_RANKS:
        for index in range(5):
            segre_A(s, index, N)
        for index in range(3):
            chern_A(s, index, N)
        segre_full(s, 3, -2, 1, 5, 9, N)
    for r in catalog.VERLINDE_34_TWISTS:
        for index in range(1, 5):
            verlinde_B(r, index, N)
        verlinde_full(r, 3, 1, -5, 8, N)
    assert raised == []
    Series.gen(N) ** 2
    assert raised == [2]
