"""Fixed-point oracle tests.

Everything here cross-checks the localization sums against independent
closed forms or combinatorial identities; no value is compared against
another output of the same code path.
"""

import random
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
    # construction checks the intersection tables through the oracle
    for name in loc.surface_names():
        surface = loc.get_surface(name)
        assert surface.chi_O == 1
    assert loc.get_surface("p2").ksq == 9
    assert loc.get_surface("f1").pairing == [[0, 1], [1, -1]]
    # one surface object per name, whatever its case
    assert loc.get_surface("P2") is loc.get_surface("p2")


# the p2 rows first, then f1's (two generators): an off-diagonal pairing, its
# diagonal swapped, its second K pairing, its K^2
@pytest.mark.parametrize("pairing,k_dot,ksq", [
    ([[2]], [-3], 9), ([[1]], [3], 9), ([[1]], [-3], 8),
    ([[0, 2], [2, -1]], [-2, -1], 8), ([[-1, 1], [1, 0]], [-2, -1], 8),
    ([[0, 1], [1, -1]], [-2, 0], 8), ([[0, 1], [1, -1]], [-2, -1], 9)])
def test_wrong_intersection_table_raises(pairing, k_dot, ksq):
    fan = loc.get_surface("p2" if len(k_dot) == 1 else "f1")
    with pytest.raises(ArithmeticError, match="disagree"):
        loc.ToricSurface("bad", fan.rays, generators=fan.generators,
                         pairing=pairing, k_dot=k_dot, ksq=ksq)


def test_unknown_surface_raises():
    with pytest.raises(KeyError, match="unknown surface 'k3'; choose from f1, p1xp1, p2"):
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

    @pytest.mark.parametrize("spec", ["O(1) ", "O(1)+O(2)\t", " O(1) - O( 2 ) \n"])
    def test_trailing_whitespace_is_ignored(self, spec):
        # whitespace is ignored before a term and around its sign, and after the last
        p2 = loc.get_surface("p2")
        assert loc.parse_class(p2, spec).spec() == loc.parse_class(p2, spec.strip()).spec()
        assert loc.parse_class(p2, "O(2) ").spec() == "O(2)"

    @pytest.mark.parametrize("spec", ["O(1_0)", "O(\u0663)", "O(\uff12)", "O(+ 1)",
                                      "O(1)+O(2_0)"])
    def test_integers_are_ascii_digits(self, spec):
        # int() alone reads "1_0" as 10, the Arabic-Indic three as 3 and a
        # fullwidth two as 2
        with pytest.raises(ValueError) as info:
            loc.parse_class(loc.get_surface("p2"), spec)
        assert str(info.value).startswith("bad integers in term ")

    @pytest.mark.parametrize("spec, start", [
        ("O(1%s)" % ("0" * 5000), "bad integers in term 'O(1000"),
        ("O(1,%s)" % ("2" * 100), "surface p2 expects 1-parameter classes, got 'O(1,222"),
        ("O(1)+%s" % ("x" * 5000), "cannot parse class spec 'O(1)+xxx")])
    def test_a_long_bad_term_is_cut_in_the_message(self, spec, start):
        # the first 80 characters (40 of an unparsed spec) of each echoed text and its
        # length, not the whole of it
        with pytest.raises(ValueError) as info:
            loc.parse_class(loc.get_surface("p2"), spec)
        message = str(info.value)
        assert message.startswith(start) and len(message) < 300
        assert "... (%d characters)" % len(spec) in message

    def test_integers_take_a_sign_and_whitespace(self):
        p2, f1 = loc.get_surface("p2"), loc.get_surface("f1")
        for spec, want in (("O( 1 )", "O(1)"), ("O(+2)", "O(2)"), ("O(-0)", "O(0)")):
            assert loc.parse_class(p2, spec).spec() == want
        assert loc.parse_class(f1, "O( 1 ,-2 )-O(0,+3)").spec() == "O(1,-2)-O(0,3)"

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
            assert loc.verlinde_chi(cls, 2, 1) == (d + 1) * (d + 2) // 2

    def test_chi_riemann_roch_on_f1(self):
        hirzebruch = loc.get_surface("f1")
        for a, b in [(0, 0), (1, 0), (0, 1), (2, 3), (-1, 2)]:
            cls = loc.parse_class(hirzebruch, "O(%d,%d)" % (a, b))
            want = 1 + F(cls.c1sq - cls.c1K, 2)
            assert want.denominator == 1
            assert loc.verlinde_chi(cls, 3, 1) == want

    def test_n1_segre_and_chern_of_line_bundle(self):
        # S^[1] = S: int s_2(L) = c1^2, int c_2(L) = 0
        for name, spec in [("p2", "O(2)"), ("p1xp1", "O(1,2)"), ("f1", "O(2,1)")]:
            surface = loc.get_surface(name)
            cls = loc.parse_class(surface, spec)
            assert loc.segre_integral(cls, 1) == cls.c1sq
            assert loc.chern_integral(cls, 1) == 0


class TestSeriesAnchors:
    def test_rank2_chern_binomial(self):
        # rank-2 bundles: sum_n z^n int c_2n = (1+z)^(c2), any surface
        p2 = loc.get_surface("p2")
        cls = loc.parse_class(p2, "O(2)+O(3)")
        for n in range(4):
            assert loc.chern_integral(cls, n) == comb(6, n)

    def test_rank2_chern_binomial_off_p2(self):
        quadric = loc.get_surface("p1xp1")
        cls = loc.parse_class(quadric, "O(1,0)+O(1,1)")
        assert cls.c2 == 1
        for n in range(3):
            assert loc.chern_integral(cls, n) == comb(1, n)

    @pytest.mark.parametrize("name,spec", [("p2", "O(2)"), ("p1xp1", "O(1,2)")])
    def test_rank1_segre_closed_form(self, name, spec):
        surface = loc.get_surface(name)
        cls = loc.parse_class(surface, spec)
        closed = catalog.segre_full(1, cls.c2, cls.c1sq, surface.chi_O,
                                    cls.c1K, surface.ksq, 3)
        for n in range(4):
            assert loc.segre_integral(cls, n) == closed.coefficient(n)

    def test_rank_minus_one_segre_closed_form(self):
        # -O(d): rank -1, both high factors trivial
        p2 = loc.get_surface("p2")
        cls = loc.parse_class(p2, "-O(1)")
        # c(-L) = 1/(1+l) = 1 - l + l^2, so c2 = c1(L)^2
        assert (cls.rank, cls.c2, cls.c1sq, cls.c1K) == (-1, 1, 1, 3)
        closed = catalog.segre_full(-1, 1, 1, 1, 3, 9, 3)
        for n in range(4):
            assert loc.segre_integral(cls, n) == closed.coefficient(n)

    @pytest.mark.parametrize("r", [0, 1])
    def test_verlinde_small_twists(self, r):
        # twists 0, 1: pure B1^chi(L) B2^chiO series
        p2 = loc.get_surface("p2")
        cls = loc.parse_class(p2, "O(2)")
        closed = catalog.verlinde_full(r, 6, 1, 0, 0, 3)
        for n in range(4):
            assert loc.verlinde_chi(cls, r, n) == closed.coefficient(n)

    def test_verlinde_twist2_even_canonical(self):
        # K^2 even makes every exponent integral; twist-2 forms are proven
        quadric = loc.get_surface("p1xp1")
        cls = loc.parse_class(quadric, "O(1,2)")
        closed = catalog.verlinde_full(2, 6, 1, cls.c1K, quadric.ksq, 3)
        for n in range(4):
            assert loc.verlinde_chi(cls, 2, n) == closed.coefficient(n)

    @pytest.mark.parametrize("name, spec, r", [("p1xp1", "O(1,0)", -3), ("p1xp1", "O(1,0)", 3),
                                               ("f1", "O(1,1)", -2), ("p2", "O(1)", 1)])
    def test_deep_verlinde_series_is_the_catalog(self, name, spec, r):
        # the oracle through n = 12, its Todd exps at M_24 = 2^24 3^12 5^6 7^4 11^2
        # 13^2 17 19 23, against the closed form; chi(L) by Riemann-Roch
        surface = loc.get_surface(name)
        line = loc.parse_class(surface, spec)
        chi = surface.chi_O + (line.c1sq - line.c1K) // 2
        closed = catalog.verlinde_full(r, chi, surface.chi_O, line.c1K, surface.ksq, 12)
        assert loc.verlinde_series([line], r, 12) == \
            (tuple(closed.coefficient(n) for n in range(13)),)

    def test_verlinde_rejects_higher_rank_input(self):
        p2 = loc.get_surface("p2")
        with pytest.raises(ValueError):
            loc.verlinde_chi(loc.parse_class(p2, "O(1)+O(2)"), 2, 1)

    @pytest.mark.parametrize("kind", ["segre", "verlinde"])
    def test_empty_batch_is_empty_after_the_draw(self, kind, monkeypatch):
        # no class gives no values at every n >= 0, with no directions taken
        # and no shape table built
        batch = {"segre": lambda classes, n: loc.segre_series(classes, n),
                 "verlinde": lambda classes, n: loc.verlinde_series(classes, 2, n)}[kind]
        monkeypatch.setattr(loc, "_directions", refuse_call)
        monkeypatch.setattr(loc, "_shapes", refuse_call)
        for n in (0, 1, 4, 17, 25, 40):
            assert batch([], n) == ()


# pairs of directions generic for S^[2] on p2, beside the oracle's own
DIRECTION_PAIRS = [[(2, 5), (-3, 7)], [(1, -4), (6, 1)]]


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
                assert loc.segre_integral(moved, n) == \
                    loc.segre_integral(cls, n)
                assert loc.chern_integral(moved, n) == \
                    loc.chern_integral(cls, n)

    def test_seed_independence(self, monkeypatch):
        # the oracle's two directions and two other generic pairs give one value
        p2 = loc.get_surface("p2")
        cls = loc.parse_class(p2, "O(1)+O(2)")
        vals = {loc.segre_integral(cls, 2)}
        for pair in DIRECTION_PAIRS:
            monkeypatch.setattr(loc, "_directions", lambda n, pair=pair: pair)
            vals.add(loc.segre_integral(cls, 2))
        assert len(vals) == 1

    def test_ruling_swap_symmetry(self):
        # p1 x p1 has an automorphism exchanging the rulings
        quadric = loc.get_surface("p1xp1")
        for n in (1, 2):
            a = loc.segre_integral(loc.parse_class(quadric, "O(1,2)"), n)
            b = loc.segre_integral(loc.parse_class(quadric, "O(2,1)"), n)
            assert a == b

    def test_chern_segre_duality(self):
        # int c(alpha^[n]) = int s((-alpha)^[n])
        hirzebruch = loc.get_surface("f1")
        cls = loc.parse_class(hirzebruch, "O(1,1)+O(2,0)")
        neg = loc.parse_class(hirzebruch, "-O(1,1)-O(2,0)")
        for n in (1, 2):
            assert loc.chern_integral(cls, n) == \
                loc.segre_integral(neg, n)


def refuse_call(*args):
    raise AssertionError("a call that should not happen")


# Every oracle entry point at n, on a line bundle.
ENTRY_POINTS = {
    "segre_series": lambda line, n: loc.segre_series([line], n),
    "segre_integral": lambda line, n: loc.segre_integral(line, n),
    "chern_integral": lambda line, n: loc.chern_integral(line, n),
    "verlinde_series": lambda line, n: loc.verlinde_series([line], 2, n),
    "verlinde_chi": lambda line, n: loc.verlinde_chi(line, 2, n),
    "extract_universal": lambda line, n: extraction.extract_universal(1, n),
    "extract_verlinde": lambda line, n: extraction.extract_verlinde(1, n),
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
            ENTRY_POINTS[entry](line, -1)

    @pytest.mark.parametrize("spec", ["O(2,1)-O(0,1)", "O(1,0)", "O(0,1)"])
    def test_a_batch_reads_each_class_on_its_own_surface(self, spec):
        # a class parsed on p1xp1 and one parsed on f1 from one spec are two
        # classes; a batch of both gives each the closed form of its surface
        hirzebruch, quadric = loc.get_surface("f1"), loc.get_surface("p1xp1")
        classes = [loc.parse_class(hirzebruch, spec), loc.parse_class(quadric, spec)]
        order = 3
        segre = [catalog.segre_full(c.rank, c.c2, c.c1sq, c.surface.chi_O, c.c1K,
                                    c.surface.ksq, order) for c in classes]
        assert loc.segre_series(classes, order) == tuple(
            tuple(closed.coefficient(n) for n in range(order + 1)) for closed in segre)
        chern = [catalog.segre_full(-c.rank, c.c1sq - c.c2, c.c1sq, c.surface.chi_O, -c.c1K,
                                    c.surface.ksq, order) for c in classes]
        for c, closed in zip(classes, chern):
            assert loc.chern_integral(c, order) == closed.coefficient(order)
        if len(classes[0].terms) == 1:
            verlinde = [catalog.verlinde_full(2, 1 + (c.c1sq - c.c1K) // 2, c.surface.chi_O,
                                              c.c1K, c.surface.ksq, order) for c in classes]
            assert loc.verlinde_series(classes, 2, order) == tuple(
                tuple(closed.coefficient(n) for n in range(order + 1)) for closed in verlinde)


# A class per surface, in an order that interleaves them.
SPANNING = [("p1xp1", "O(2,1)-O(0,1)"), ("p2", "O(1)"), ("f1", "O(1,1)"), ("p2", "O(2)-O(1)"),
            ("f1", "O(0,1)"), ("p1xp1", "O(1,0)"), ("p2", "O(-1)")]


class TestBatchesSpanningSurfaces:
    @pytest.mark.parametrize("kind", ["segre", "verlinde"])
    def test_a_batch_is_each_surface_alone_and_each_class_alone(self, kind):
        classes = [loc.parse_class(loc.get_surface(name), spec) for name, spec in SPANNING]
        if kind == "verlinde":
            classes = [c for c in classes if len(c.terms) == 1]
        run = {"segre": lambda batch: loc.segre_series(batch, 4),
               "verlinde": lambda batch: loc.verlinde_series(batch, 3, 4)}[kind]
        together = run(classes)
        assert together == tuple(run([c])[0] for c in classes)
        assert len({c.surface for c in classes}) == 3
        for surface in {c.surface for c in classes}:
            alone = run([c for c in classes if c.surface is surface])
            assert alone == tuple(v for c, v in zip(classes, together) if c.surface is surface)
