"""Fixed-point oracle tests.

Everything here cross-checks the localization sums against independent
closed forms or combinatorial identities; no value is compared against
another output of the same code path.
"""

import random
import re
from fractions import Fraction as F
from math import comb

import pytest

from hilbseries import catalog, extraction
from hilbseries import localization as loc
from shifted_class import shifted


def test_partitions_counts():
    counts = [len(loc.partitions(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert loc.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_respect_max_part():
    assert loc.partitions(5, 2) == ((2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1))


def test_surface_factories_validate():
    # construction runs localization checks of the intersection tables
    for name in loc.surface_names():
        surface = loc.get_surface(name)
        assert surface.chi_O == 1
    assert loc.get_surface("p2").ksq == 9
    assert loc.get_surface("f1").pairing == [[0, 1], [1, -1]]


@pytest.mark.parametrize("pairing,k_dot,ksq", [([[2]], [-3], 9), ([[1]], [3], 9),
                                                ([[1]], [-3], 8)])
def test_wrong_intersection_table_raises(pairing, k_dot, ksq):
    with pytest.raises(ArithmeticError, match="disagree"):
        loc.ToricSurface("bad", [(1, 0), (0, 1), (-1, -1)], generators=[(1, 0, 0)],
                         pairing=pairing, k_dot=k_dot, ksq=ksq)


def test_unknown_surface_raises():
    with pytest.raises(KeyError):
        loc.get_surface("k3")


def test_fixed_point_counts_match_euler_numbers():
    # generating function of fixed-point counts is prod (1-q^k)^(-chi)
    p2 = loc.get_surface("p2")
    assert [len(loc.enumerate_fixed_points(p2, n)) for n in range(5)] == [1, 3, 9, 22, 51]
    quadric = loc.get_surface("p1xp1")
    assert [len(loc.enumerate_fixed_points(quadric, n)) for n in range(4)] == [1, 4, 14, 40]


def test_tangent_weight_count():
    p2 = loc.get_surface("p2")
    for n in (1, 2, 3):
        for fp in loc.enumerate_fixed_points(p2, n):
            assert len(loc.tangent_weights(fp, p2)) == 2 * n


class TestClassNumerics:
    def test_parse_and_chern_data(self):
        p2 = loc.get_surface("p2")
        cls = loc.parse_class(p2, "O(2)+O(3)")
        assert cls.rank == 2
        assert cls.c1sq == 25
        assert cls.c2 == 6
        assert cls.c1K == -15

    def test_negative_terms_whitney(self):
        quadric = loc.get_surface("p1xp1")
        cls = loc.parse_class(quadric, "O(2,1)+O(0,1)-O(1,0)")
        # c1 = (1,2): c1sq = 2*1*2 = 4; c2 of O(2,1)+O(0,1) is 2,
        # removing O(1,0) subtracts pair((1,2),(1,0)) = 2 and adds 0
        assert cls.rank == 1
        assert cls.c1 == (1, 2)
        assert cls.c1sq == 4
        assert cls.c2 == 0

    def test_parse_rejects_malformed(self):
        p2 = loc.get_surface("p2")
        with pytest.raises(ValueError):
            loc.parse_class(p2, "O(1,2)")
        with pytest.raises(ValueError):
            loc.parse_class(p2, "O(1)+junk")
        with pytest.raises(ValueError):
            loc.parse_class(p2, "")

    @pytest.mark.parametrize("spec", ["O(1)O(2)", "O(1) O(2)", "O(1)-O(2)O(3)"])
    def test_parse_refuses_juxtaposed_terms(self, spec):
        # juxtaposition would read as a product in K-theory, so it is not taken as a sum
        with pytest.raises(ValueError) as info:
            loc.parse_class(loc.get_surface("p2"), spec)
        assert str(info.value).startswith("cannot parse class spec %r at " % spec)

    def test_every_later_term_carries_its_sign(self):
        p2 = loc.get_surface("p2")
        for spec in ("O(1)+O(2)", " O(1) + O(2)", "+O(1)-O(2)", "-O(1) -O(2)"):
            assert len(loc.parse_class(p2, spec).terms) == 2, spec


class TestSurfaceLevelAnchors:
    def test_chi_of_line_bundles_on_p2(self):
        # chi(P2, O(d)) = (d+1)(d+2)/2, including negative twists
        p2 = loc.get_surface("p2")
        for d in range(-3, 4):
            cls = loc.parse_class(p2, "O(%d)" % d)
            assert loc.verlinde_chi(p2, cls, 2, 1) == (d + 1) * (d + 2) // 2

    def test_chi_riemann_roch_on_f1(self):
        hirzebruch = loc.get_surface("f1")
        for a, b in [(0, 0), (1, 0), (0, 1), (2, 3), (-1, 2)]:
            cls = loc.parse_class(hirzebruch, "O(%d,%d)" % (a, b))
            want = 1 + F(cls.c1sq - cls.c1K, 2)
            assert want.denominator == 1
            assert loc.verlinde_chi(hirzebruch, cls, 3, 1) == want

    def test_n1_segre_and_chern_of_line_bundle(self):
        # S^[1] = S: int s_2(L) = c1^2, int c_2(L) = 0
        for name, spec in [("p2", "O(2)"), ("p1xp1", "O(1,2)"), ("f1", "O(2,1)")]:
            surface = loc.get_surface(name)
            cls = loc.parse_class(surface, spec)
            assert loc.segre_integral(surface, cls, 1) == cls.c1sq
            assert loc.chern_integral(surface, cls, 1) == 0


class TestSeriesAnchors:
    def test_rank2_chern_binomial(self):
        # rank-2 bundles: sum_n z^n int c_2n = (1+z)^(c2), any surface
        p2 = loc.get_surface("p2")
        cls = loc.parse_class(p2, "O(2)+O(3)")
        for n in range(4):
            assert loc.chern_integral(p2, cls, n) == comb(6, n)

    def test_rank2_chern_binomial_off_p2(self):
        quadric = loc.get_surface("p1xp1")
        cls = loc.parse_class(quadric, "O(1,0)+O(1,1)")
        assert cls.c2 == 1
        for n in range(3):
            assert loc.chern_integral(quadric, cls, n) == comb(1, n)

    @pytest.mark.parametrize("name,spec", [("p2", "O(2)"), ("p1xp1", "O(1,2)")])
    def test_rank1_segre_closed_form(self, name, spec):
        surface = loc.get_surface(name)
        cls = loc.parse_class(surface, spec)
        closed = catalog.segre_full(1, cls.c2, cls.c1sq, surface.chi_O,
                                    cls.c1K, surface.ksq, 3)
        for n in range(4):
            assert loc.segre_integral(surface, cls, n) == closed.coefficient(n)

    def test_rank_minus_one_segre_closed_form(self):
        # -O(d): rank -1, both high factors trivial
        p2 = loc.get_surface("p2")
        cls = loc.parse_class(p2, "-O(1)")
        # c(-L) = 1/(1+l) = 1 - l + l^2, so c2 = c1(L)^2
        assert (cls.rank, cls.c2, cls.c1sq, cls.c1K) == (-1, 1, 1, 3)
        closed = catalog.segre_full(-1, 1, 1, 1, 3, 9, 3)
        for n in range(4):
            assert loc.segre_integral(p2, cls, n) == closed.coefficient(n)

    @pytest.mark.parametrize("r", [0, 1])
    def test_verlinde_small_twists(self, r):
        # twists 0, 1: pure B1^chi(L) B2^chiO series
        p2 = loc.get_surface("p2")
        cls = loc.parse_class(p2, "O(2)")
        closed = catalog.verlinde_full(r, 6, 1, 0, 0, 3)
        for n in range(4):
            assert loc.verlinde_chi(p2, cls, r, n) == closed.coefficient(n)

    def test_verlinde_twist2_even_canonical(self):
        # K^2 even makes every exponent integral; twist-2 forms are proven
        quadric = loc.get_surface("p1xp1")
        cls = loc.parse_class(quadric, "O(1,2)")
        closed = catalog.verlinde_full(2, 6, 1, cls.c1K, quadric.ksq, 3)
        for n in range(4):
            assert loc.verlinde_chi(quadric, cls, 2, n) == closed.coefficient(n)

    def test_verlinde_rejects_higher_rank_input(self):
        p2 = loc.get_surface("p2")
        with pytest.raises(ValueError):
            loc.verlinde_chi(p2, loc.parse_class(p2, "O(1)+O(2)"), 2, 1)

    @pytest.mark.parametrize("kind", ["segre", "verlinde"])
    def test_empty_batch_is_empty_after_the_draw(self, kind):
        # no class gives no values, at every order whose draw succeeds; the
        # draw still runs, so an order past the draw box (17 on p1xp1) raises
        quadric = loc.get_surface("p1xp1")
        batch = {"segre": lambda n: loc.segre_series(quadric, [], n),
                 "verlinde": lambda n: loc.verlinde_series(quadric, [], 2, n)}[kind]
        for n in (0, 1, 4):
            assert batch(n) == ()
        with pytest.raises(loc.DrawError):
            batch(17)


class TestInvariances:
    def test_lift_shift_invariance(self):
        # moving a term's lift by a global character changes no integral
        rng = random.Random(7)
        quadric = loc.get_surface("p1xp1")
        cls = loc.parse_class(quadric, "O(2,1)-O(0,1)")
        for _ in range(5):
            shift = (rng.randint(-4, 4), rng.randint(-4, 4))
            term = rng.randrange(len(cls.terms))
            moved = shifted(cls, term, shift)
            for n in (1, 2):
                assert loc.segre_integral(quadric, moved, n) == \
                    loc.segre_integral(quadric, cls, n)
                assert loc.chern_integral(quadric, moved, n) == \
                    loc.chern_integral(quadric, cls, n)

    def test_seed_independence(self):
        p2 = loc.get_surface("p2")
        cls = loc.parse_class(p2, "O(1)+O(2)")
        vals = {loc.segre_integral(p2, cls, 2, seed=s) for s in (None, 1, 99)}
        assert len(vals) == 1

    def test_ruling_swap_symmetry(self):
        # p1 x p1 has an automorphism exchanging the rulings
        quadric = loc.get_surface("p1xp1")
        for n in (1, 2):
            a = loc.segre_integral(quadric, loc.parse_class(quadric, "O(1,2)"), n)
            b = loc.segre_integral(quadric, loc.parse_class(quadric, "O(2,1)"), n)
            assert a == b

    def test_chern_segre_duality(self):
        # int c(alpha^[n]) = int s((-alpha)^[n])
        hirzebruch = loc.get_surface("f1")
        cls = loc.parse_class(hirzebruch, "O(1,1)+O(2,0)")
        neg = loc.parse_class(hirzebruch, "-O(1,1)-O(2,0)")
        for n in (1, 2):
            assert loc.chern_integral(hirzebruch, cls, n) == \
                loc.segre_integral(hirzebruch, neg, n)


# Every oracle entry point at n, on a line bundle of its surface.
ENTRY_POINTS = {
    "segre_series": lambda surface, line, n: loc.segre_series(surface, [line], n),
    "segre_integral": lambda surface, line, n: loc.segre_integral(surface, line, n),
    "chern_integral": lambda surface, line, n: loc.chern_integral(surface, line, n),
    "verlinde_series": lambda surface, line, n: loc.verlinde_series(surface, [line], 2, n),
    "verlinde_chi": lambda surface, line, n: loc.verlinde_chi(surface, line, 2, n),
    "require_draws": lambda surface, line, n: loc.require_draws(surface, n, "a test"),
    "extract_universal": lambda surface, line, n: extraction.extract_universal(1, n),
    "extract_verlinde": lambda surface, line, n: extraction.extract_verlinde(1, n),
}


class TestEntryPointInputs:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_negative_n_is_refused_before_any_chart_work(self, entry, monkeypatch):
        p2 = loc.get_surface("p2")
        line = loc.parse_class(p2, "O(1)")
        for name in loc.surface_names():  # each validates itself by a chart pass once
            loc.get_surface(name)

        def refuse(*args):
            raise AssertionError("chart work for a negative n")

        monkeypatch.setattr(loc, "_shapes", refuse)
        monkeypatch.setattr(loc, "_chart_product", refuse)
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            ENTRY_POINTS[entry](p2, line, -1)

    @pytest.mark.parametrize("spec", ["O(2,1)-O(0,1)", "O(1,0)", "O(0,1)"])
    def test_a_class_of_another_surface_is_refused_before_the_draw(self, spec, monkeypatch):
        # a class parsed on p1xp1 is not a class on f1, though both take
        # two-parameter classes; a batch is refused if any class is foreign
        quadric, hirzebruch = loc.get_surface("p1xp1"), loc.get_surface("f1")
        foreign, own = loc.parse_class(quadric, spec), loc.parse_class(hirzebruch, spec)

        def refuse(*args):
            raise AssertionError("a draw for a class of another surface")

        monkeypatch.setattr(loc, "_two_draws", refuse)
        calls = [lambda: loc.segre_series(hirzebruch, [own, foreign], 3),
                 lambda: loc.segre_integral(hirzebruch, foreign, 3),
                 lambda: loc.chern_integral(hirzebruch, foreign, 3)]
        if len(foreign.terms) == 1:
            calls += [lambda: loc.verlinde_series(hirzebruch, [own, foreign], 2, 2),
                      lambda: loc.verlinde_chi(hirzebruch, foreign, 2, 2)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(
                    "EqKClass(p1xp1, %s) is a class on p1xp1, not on f1" % spec)):
                call()
