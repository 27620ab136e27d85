"""Integer oracle kernels against the Series-product formulation they replace.

The reference functions below are the earlier kernels, written with
truncated power series over Fraction: one Series product per weight.
Every comparison is exact equality, at a fixed direction and through the
public entry points with their character draws.
"""

import time
from fractions import Fraction as F
from functools import lru_cache

import pytest

from hilbseries import localization as loc
from hilbseries.series import Series


def ref_integral_at(surface, kclass, n, q, chern):
    total = F(0)
    order = 2 * n
    for fp in loc.enumerate_fixed_points(surface, n):
        denom = 1
        for weight in loc.tangent_weights(fp, surface):
            denom *= loc._spec_nonzero(weight, q)
        numer = Series.one(order, "u")
        for sign, char in loc.taut_weights(kclass, fp):
            k = loc._dot(char, q)
            inverted = (sign > 0) if not chern else (sign < 0)
            if inverted:
                factor = Series([(-k) ** j for j in range(order + 1)], order, "u")
            else:
                factor = Series([1, k], order, "u")
            numer = numer * factor
        total += numer.coefficient(order) / denom
    return total


@lru_cache(maxsize=None)
def _ref_unit_ratio_inverse(k, order):
    # 1 / [ (1 - (1+e)^(-k)) / (k e) ]
    e = Series.gen(order + 1, "e")
    num = 1 - (1 + e) ** (-k)
    return (num.shift(-1) / k).inverse()


def ref_euler_sum(point_data, order):
    total = Series.zero(order, "e")
    e = Series.gen(order, "e")
    for a, ks in point_data:
        prod = (1 + e) ** a
        scalar = 1
        for k in ks:
            prod = prod * _ref_unit_ratio_inverse(k, order)
            scalar *= k
        total = total + prod / scalar
    for j in range(order):
        if total.coefficient(j) != 0:
            raise ArithmeticError("surviving pole at order %d" % (j - order))
    value = total.coefficient(order)
    if value.denominator != 1:
        raise ArithmeticError("Euler characteristic %s is not an integer" % value)
    return int(value)


def outcome(fn, *args):
    """The value of fn(*args), or the name of the exception it raised."""
    try:
        return fn(*args)
    except (loc._BadDraw, ArithmeticError) as exc:
        return type(exc).__name__


CLASSES = {
    "p2": ["O(2)+O(-1)-O(1)", "-O(1)-O(2)+O(0)", "O(3)-O(1)"],
    "p1xp1": ["O(2,1)+O(0,1)-O(1,0)", "-O(1,1)+O(2,-1)", "O(1,2)-O(0,1)-O(1,-1)"],
    "f1": ["O(1,1)-O(2,0)", "-O(0,1)+O(1,-1)+O(2,1)", "O(-1,2)-O(1,1)"],
}
DIRECTIONS = [(2, 5), (-3, 7), (1, -4), (6, 1), (1, 1)]  # (1, 1) kills weights


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_integral_at_fixed_directions(name):
    surface = loc.get_surface(name)
    for spec in CLASSES[name]:
        kclass = loc.parse_class(surface, spec)
        for n in range(4):
            for q in DIRECTIONS:
                for chern in (False, True):
                    args = (surface, kclass, n, q, chern)
                    assert outcome(loc._integral_at, *args) == \
                        outcome(ref_integral_at, *args), (spec, n, q, chern)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_euler_sum_fixed_directions(name):
    surface = loc.get_surface(name)
    gens = len(surface.generators)
    for n in range(4):
        fps = loc.enumerate_fixed_points(surface, n)
        for r in range(-3, 4):
            kclass = loc.EqKClass(surface, [(1, tuple([r % 3 - 1] * gens))])
            for q in DIRECTIONS[r % 2::2]:
                try:
                    data = loc._euler_data(surface, kclass, r, fps, q)
                except loc._BadDraw:
                    continue
                assert loc._euler_sum(data, 2 * n) == ref_euler_sum(data, 2 * n), (n, r, q)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_segre_and_chern_through_draws(name, monkeypatch):
    surface = loc.get_surface(name)
    cases = [(loc.parse_class(surface, spec), n, seed)
             for spec in CLASSES[name] for n in range(4) for seed in (None, 3, 41)]
    new = [(loc.segre_integral(surface, c, n, seed), loc.chern_integral(surface, c, n, seed))
           for c, n, seed in cases]
    monkeypatch.setattr(loc, "_integral_at", ref_integral_at)
    old = [(loc.segre_integral(surface, c, n, seed), loc.chern_integral(surface, c, n, seed))
           for c, n, seed in cases]
    assert new == old


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_verlinde_through_draws(name, monkeypatch):
    surface = loc.get_surface(name)
    gens = len(surface.generators)
    cases = [(loc.EqKClass(surface, [(1, tuple((d + j) % 4 - 1 for j in range(gens)))]),
              r, n, seed)
             for d, r in enumerate(range(-3, 4)) for n, seed in enumerate((None, 17, 5, 17))]
    new = [loc.verlinde_chi(surface, c, r, n, seed) for c, r, n, seed in cases]
    monkeypatch.setattr(loc, "_euler_sum", ref_euler_sum)
    old = [loc.verlinde_chi(surface, c, r, n, seed) for c, r, n, seed in cases]
    assert new == old


class TestChecksStillFire:
    def test_uncancelled_pole_raises(self):
        with pytest.raises(ArithmeticError, match="pole"):
            loc._euler_sum([(0, [1, 1])], 2)
        with pytest.raises(ArithmeticError):
            ref_euler_sum([(0, [1, 1])], 2)

    def test_non_integer_result_raises(self):
        # the e^-1 poles 1/2 and -1/2 cancel; the constant term is 1/2
        data = [(0, [2]), (1, [-2])]
        with pytest.raises(ArithmeticError, match="not an integer"):
            loc._euler_sum(data, 1)
        with pytest.raises(ArithmeticError, match="not an integer"):
            ref_euler_sum(data, 1)

    def test_integer_result_passes(self):
        # same points with equal a: the constant term is 1
        assert loc._euler_sum([(1, [2]), (1, [-2])], 1) == 1 == \
            ref_euler_sum([(1, [2]), (1, [-2])], 1)


class TestDrawHelper:
    def test_every_direction_rejected_raises_quickly(self):
        tried = []

        def reject(q):
            tried.append(q)
            raise loc._BadDraw

        started = time.perf_counter()
        with pytest.raises(loc.DrawError):
            loc._at_two_directions(reject, 5, "a test")
        assert time.perf_counter() - started < 2
        assert len(tried) == len(set(tried)) == 288

    def test_one_usable_direction_raises(self):
        def only_one(q):
            if q != (2, 5):
                raise loc._BadDraw
            return 0

        with pytest.raises(loc.DrawError):
            loc._at_two_directions(only_one, None, "a test")

    def test_rejected_directions_keep_the_stream(self):
        # rejecting a direction never shifts which later ones are drawn
        first = []
        loc._at_two_directions(lambda q: first.append(q) or 0, 9, "a test")
        tried = []

        def reject_first(q):
            tried.append(q)
            if q == first[0]:
                raise loc._BadDraw
            return 0

        loc._at_two_directions(reject_first, 9, "a test")
        assert tried[:2] == first

    def test_disagreement_is_not_a_draw_error(self):
        with pytest.raises(ArithmeticError, match="disagree") as info:
            loc._at_two_directions(lambda q: q, 1, "a test")
        assert not isinstance(info.value, loc.DrawError)
