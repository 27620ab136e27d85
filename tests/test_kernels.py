"""Integer oracle kernels against the Series-product formulation they replace.

The reference kernels below are written with truncated power series over
Fraction: one Series product per weight, one class at a time.
ref_euler_data is the box walk the Verlinde sum used before its records
came from the tautological class of L + (r-1) O, and ref_records is the
specialization of each class on its own, through taut_weights, that the
batched records replace.  Every comparison is exact equality, at a fixed
direction and through the public entry points with their character draws.
"""

import time
from fractions import Fraction as F
from functools import lru_cache

import pytest

from hilbseries import localization as loc
from hilbseries.series import Series


def ref_segre_top(records, order, chern=False):
    total = F(0)
    for ks, weights in records:
        denom = 1
        for k in ks:
            denom *= k
        numer = Series.one(order, "u")
        for sign, k in weights:
            inverted = (sign > 0) if not chern else (sign < 0)
            if inverted:
                factor = Series([(-k) ** j for j in range(order + 1)], order, "u")
            else:
                factor = Series([1, k], order, "u")
            numer = numer * factor
        total += numer.coefficient(order) / denom
    return total


def ref_records(surface, kclass, fps, q):
    """One class's records: tangent weights and taut_weights, each dotted with q."""
    for fp in fps:
        yield ([loc._spec_nonzero(w, q) for w in loc.tangent_weights(fp, surface)],
               [(sign, loc._dot(char, q)) for sign, char in loc.taut_weights(kclass, fp)])


def single(records):
    """The records of a one-class batch, in the one-class shape the references read."""
    return ((ks, weights) for ks, (weights,) in records)


def ref_batch(ref):
    """A batched kernel that applies a one-class reference kernel to each class."""
    def kernel(records, order, count):
        records = list(records)
        return [ref([(ks, weights[index]) for ks, weights in records], order)
                for index in range(count)]
    return kernel


def ref_euler_data(surface, kclass, r, fps, q):
    """Per-point (a, tangent weights) of the Verlinde sum, by a walk over the boxes."""
    lifts = kclass.lifts[0]
    data = []
    for fp in fps:
        ks = [loc._spec_nonzero(w, q) for w in loc.tangent_weights(fp, surface)]
        a = 0
        for index, lam in enumerate(fp):
            _, _, u1, u2 = surface.charts[index]
            m_spec = loc._dot(lifts[index], q)
            box_spec = loc._dot(u1, q)
            row_spec = loc._dot(u2, q)
            for row, part in enumerate(lam):
                for col in range(part):
                    a += m_spec + r * (col * box_spec + row * row_spec)
        data.append((a, ks))
    return data


@lru_cache(maxsize=None)
def _ref_unit_ratio_inverse(k, order):
    # 1 / [ (1 - (1+e)^(-k)) / (k e) ]
    e = Series.gen(order + 1, "e")
    num = 1 - (1 + e) ** (-k)
    return (num.shift(-1) / k).inverse()


def ref_euler_sum(records, order):
    total = Series.zero(order, "e")
    e = Series.gen(order, "e")
    for ks, weights in records:
        prod = (1 + e) ** sum(sign * k for sign, k in weights)
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


def negated(kclass):
    return loc.EqKClass(kclass.surface, [(-sign, coeffs) for sign, coeffs in kclass.terms])


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_integral_at_fixed_directions(name):
    surface = loc.get_surface(name)
    for spec in CLASSES[name]:
        kclass = loc.parse_class(surface, spec)
        for n in range(4):
            fps = loc.enumerate_fixed_points(surface, n)
            for q in DIRECTIONS:
                for chern in (False, True):
                    # the Chern class of E is the Segre class of -E
                    new_class = negated(kclass) if chern else kclass
                    assert outcome(loc._segre_top, loc._records(surface, [new_class], fps, q),
                                   2 * n, 1) == \
                        outcome(lambda *a: [ref_segre_top(*a)],
                                single(loc._records(surface, [kclass], fps, q)), 2 * n,
                                chern), (spec, n, q, chern)


def exponents(records):
    return [(sum(sign * k for sign, k in weights), ks) for ks, (weights,) in records]


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_record_exponent_is_the_box_walk(name):
    surface = loc.get_surface(name)
    gens = len(surface.generators)
    for n in range(4):
        fps = loc.enumerate_fixed_points(surface, n)
        for r in range(-3, 4):
            for degree in range(-1, 2):
                kclass = loc.EqKClass(surface, [(1, tuple([degree] * gens))])
                for q in DIRECTIONS:
                    records = loc._records(surface, [loc._twisted_class(kclass, r)], fps, q)
                    assert outcome(exponents, records) == \
                        outcome(ref_euler_data, surface, kclass, r, fps, q), (n, r, degree, q)


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
                    data = list(loc._records(surface, [loc._twisted_class(kclass, r)], fps, q))
                except loc._BadDraw:
                    continue
                assert loc._euler_sum(data, 2 * n, 1) == [ref_euler_sum(single(data), 2 * n)], \
                    (n, r, q)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_segre_and_chern_through_draws(name, monkeypatch):
    surface = loc.get_surface(name)
    cases = [(loc.parse_class(surface, spec), n, seed)
             for spec in CLASSES[name] for n in range(4) for seed in (None, 3, 41)]
    new = [(loc.segre_integral(surface, c, n, seed), loc.chern_integral(surface, c, n, seed))
           for c, n, seed in cases]
    monkeypatch.setattr(loc, "_segre_top", ref_batch(ref_segre_top))
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
    monkeypatch.setattr(loc, "_euler_sum", ref_batch(ref_euler_sum))
    old = [loc.verlinde_chi(surface, c, r, n, seed) for c, r, n, seed in cases]
    assert new == old


@pytest.mark.parametrize("oracle, args", [
    (loc.segre_integral, ("O(2)+O(-1)-O(1)", 3)),
    (loc.chern_integral, ("O(2)+O(-1)-O(1)", 3)),
    (loc.verlinde_chi, ("O(1)", -2, 3)),
])
def test_one_fixed_point_enumeration_per_call(oracle, args, monkeypatch):
    surface = loc.get_surface("p2")
    original = loc.enumerate_fixed_points
    calls = []

    def counted(*a):
        calls.append(a)
        return original(*a)

    monkeypatch.setattr(loc, "enumerate_fixed_points", counted)
    oracle(surface, loc.parse_class(surface, args[0]), *args[1:])
    assert len(calls) == 1


def shifted_classes(surface):
    """CLASSES of the surface, each also with its terms' lifts moved."""
    out = []
    for spec in CLASSES[surface.name]:
        kclass = loc.parse_class(surface, spec)
        out.append(kclass)
        out.append(loc.EqKClass(surface, kclass.terms,
                                [(3 * i - 2, 5 - 2 * i) for i in range(len(kclass.terms))]))
    return out


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_shared_specialization_is_taut_weights(name):
    surface = loc.get_surface(name)
    classes = shifted_classes(surface)
    for n in range(4):
        fps = loc.enumerate_fixed_points(surface, n)
        for q in DIRECTIONS:
            if not loc._hook_generic(surface, n, q):
                continue
            records = list(loc._records(surface, classes, fps, q))
            assert len(records) == len(fps)
            for fp, (ks, class_weights) in zip(fps, records):
                assert ks == [loc._dot(w, q) for w in loc.tangent_weights(fp, surface)]
                assert len(class_weights) == len(classes)
                for kclass, weights in zip(classes, class_weights):
                    old = [(sign, loc._dot(c, q)) for sign, c in loc.taut_weights(kclass, fp)]
                    assert sorted(weights) == sorted(old), (kclass, n, q, fp)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_batches_equal_the_references_class_by_class(name, monkeypatch):
    surface = loc.get_surface(name)
    gens = len(surface.generators)
    classes = shifted_classes(surface)
    lines = [loc.EqKClass(surface, [(1, tuple((d + j) % 4 - 1 for j in range(gens)))],
                          [(d - 1, 2 - d)])
             for d in range(4)]
    cases = list(enumerate((None, 3, 41, 3)))
    segre = [loc.segre_integrals(surface, classes, n, seed) for n, seed in cases]
    chis = [loc.verlinde_chis(surface, lines, r, n, seed) for n, seed in cases
            for r in range(-3, 4)]
    monkeypatch.setattr(loc, "_segre_top", ref_batch(ref_segre_top))
    monkeypatch.setattr(loc, "_euler_sum", ref_batch(ref_euler_sum))
    assert segre == [tuple(loc.segre_integral(surface, c, n, seed) for c in classes)
                     for n, seed in cases]
    assert chis == [tuple(loc.verlinde_chi(surface, c, r, n, seed) for c in lines)
                    for n, seed in cases for r in range(-3, 4)]


class TestChecksStillFire:
    def test_uncancelled_pole_raises(self):
        with pytest.raises(ArithmeticError, match="pole"):
            loc._euler_sum([([1, 1], [[]])], 2, 1)
        with pytest.raises(ArithmeticError):
            ref_euler_sum([([1, 1], [])], 2)

    def test_non_integer_result_raises(self):
        # the e^-1 poles 1/2 and -1/2 cancel; the constant term is 1/2
        data = [([2], [[]]), ([-2], [[(1, 1)]])]
        with pytest.raises(ArithmeticError, match="not an integer"):
            loc._euler_sum(data, 1, 1)
        with pytest.raises(ArithmeticError, match="not an integer"):
            ref_euler_sum(single(data), 1)

    def test_integer_result_passes(self):
        # same points with equal a: the constant term is 1
        data = [([2], [[(1, 1)]]), ([-2], [[(1, 1)]])]
        assert loc._euler_sum(data, 1, 1) == [1] == [ref_euler_sum(single(data), 1)]


    def test_checks_run_per_class(self):
        # the second class of each batch fails its check, the first passes
        data = [([2], [[(1, 1)], []]), ([-2], [[(1, 1)], [(1, 1)]])]
        assert loc._euler_sum(data, 1, 1) == [1]
        with pytest.raises(ArithmeticError, match="not an integer"):
            loc._euler_sum(data, 1, 2)
        # chi(O) of P2 from its three charts at q = (2, 5), and a weight
        # at one chart only, which leaves a pole
        data = [([-2, -5], [[], [(1, 1)]]), ([-3, 2], [[], []]), ([5, 3], [[], []])]
        assert loc._euler_sum(data, 2, 1) == [1]
        with pytest.raises(ArithmeticError, match="pole"):
            loc._euler_sum(data, 2, 2)


class TestHookScan:
    """Directions are screened by hook length before any fixed point is built."""

    # (surface, first n at which no direction of the box is generic)
    DEAD_FROM = [("p2", 25), ("p1xp1", 17), ("f1", 17)]

    @pytest.mark.parametrize("name, dead_from", DEAD_FROM)
    def test_dead_box_raises_before_enumerating(self, name, dead_from, monkeypatch):
        surface = loc.get_surface(name)

        def refuse(*args):
            raise AssertionError("fixed points enumerated for n beyond the draw box")

        monkeypatch.setattr(loc, "enumerate_fixed_points", refuse)
        line = loc.EqKClass(surface, [(1, (1,) + (0,) * (len(surface.generators) - 1))])
        oracles = [lambda n: loc.segre_integral(surface, line, n),
                   lambda n: loc.chern_integral(surface, line, n),
                   lambda n: loc.verlinde_chi(surface, line, 2, n)]
        started = time.perf_counter()
        for n in range(max(17, dead_from), 31):
            with pytest.raises(loc.DrawError) as info:
                oracles[n % 3](n)
            assert str(info.value).startswith(
                "fewer than two of the 288 directions in [-9, 9]^2 are generic for ")
        assert time.perf_counter() - started < 10
        assert not any(loc._hook_generic(surface, dead_from, q) for q in loc._DIRECTIONS)
        assert sum(loc._hook_generic(surface, dead_from - 1, q) for q in loc._DIRECTIONS) >= 2

    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_hook_generic_is_what_records_accept(self, name):
        surface = loc.get_surface(name)
        for n in range(7):
            fps = loc.enumerate_fixed_points(surface, n)
            for q in loc._DIRECTIONS:
                try:
                    for _ in loc._records(surface, [], fps, q):
                        pass
                except loc._BadDraw:
                    accepted = False
                else:
                    accepted = True
                assert loc._hook_generic(surface, n, q) == accepted, (n, q)


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
