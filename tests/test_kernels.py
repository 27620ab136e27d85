"""The chart-factorized oracle against the per-point path, and that path
against the Series-product formulation it replaced.

Two references live here.  The per-point path (point_records, point_sum,
point_segre_top, point_euler_sum) enumerates the fixed points of S^[n]
and sums an integer kernel over them, as the oracle did before it became
a product over charts; the chart pass must equal it exactly, for every
n <= 6.  Below it, the ref_* kernels are written with truncated power
series over Fraction, one Series product per weight and one class at a
time; ref_euler_data is the box walk the Verlinde sum used before its
records came from the tautological class of L + (r-1) O, and
ref_euler_term is the binomial Euler term in e = e^u - 1 that the
Hirzebruch-Riemann-Roch term in u replaced; the chart pass must give the
same values with either.  ref_segre_term, the Segre term over every box of
a partition, and ref_times, the triple-loop chart product, are what the
parent walk and the packed product replaced; the chart pass and _times
must equal them exactly; ref_power_euler_term, whose power sums step by k
at every j, is what the steps by k^2 replaced; ref_class_euler_term, one
exp_numerators per class of a batch, is what the batch's one exp per
partition and the row scaling x -> x e^(delta u) of every further class
replaced.  The references build the Verlinde class as twisted_class does,
a rank-r class with |r-1| trivial terms, and the Chern class as the
negated class, where the oracle passes one trivial term of weight r-1 and
negates the weights of signed_lifts() itself.  Most classes here are
ShiftedClass test doubles (tests/shifted_class.py), whose lifts are moved
by global characters, which changes no value.  Every comparison is exact
equality, at a fixed direction and through the public entry points with
their character draws.
"""

import random
import re
import time
from fractions import Fraction as F
from functools import lru_cache
from math import comb, lcm, prod
from operator import mul

import pytest

from hilbseries import extraction, localization as loc
from hilbseries.series import Series, exp_numerators
from shifted_class import ShiftedClass, shifts_of


class ZeroWeight(ArithmeticError):
    """A direction zeroes a tangent weight of a fixed point."""


def spec_nonzero(char, q):
    """The integer weight char.q, which must not vanish at a usable direction."""
    k = loc._dot(char, q)
    if k == 0:
        raise ZeroWeight
    return k


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
    (_, lifts), = kclass.signed_lifts()
    data = []
    for fp in fps:
        ks = [spec_nonzero(w, q) for w in loc.tangent_weights(fp, surface)]
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


def ref_euler_term(ks, class_weights, degree):
    """Per class, e^len(ks) (1+e)^a / prod_k (1-(1+e)^(-k)) to e^degree, a = sum sign * k:
    the binomial Euler term in e = e^u - 1 that the HRR term replaced.

    With P_m(e) = ((1+e)^m - 1)/e this is (-1)^#{k<0} (1+e)^A / Q(e),
    Q = prod P_|k|, A = a + sum of the positive k.  Its coefficients are
    d_j / Q_0^(j+1) with d_j = Q_0^j C(A, j) - sum_{i=1..j} Q_i Q_0^(i-1) d_(j-i);
    returned over the one denominator Q_0^(degree+1), as the chart pass reads terms.
    It reads each class as its list of (sign, k); run it under the chart pass's
    contract through weight_lists.
    """
    shift = sum(k for k in ks if k > 0)
    sign = -1 if sum(1 for k in ks if k < 0) % 2 else 1
    denom = [1] + [0] * degree
    for k in ks:
        p = [comb(abs(k), i + 1) for i in range(min(abs(k), degree + 1))]
        for j in range(degree, -1, -1):
            denom[j] = sum(map(mul, p, denom[j::-1]))
    q0 = denom[0]
    scaled = [denom[i] * q0 ** (i - 1) for i in range(1, degree + 1)]
    out = []
    for weights in class_weights:
        exponent = sum(s * k for s, k in weights) + shift
        numer, d = 1, []
        for j in range(degree + 1):
            if j:
                numer = numer * (exponent - j + 1) // j
            d.append(numer * q0 ** j - sum(map(mul, scaled, reversed(d))))
        out.append([sign * v * q0 ** (degree - j) for j, v in enumerate(d)])
    return q0 ** (degree + 1), out


def weight_lists(kernel):
    """A kernel under the contract term(ks, boxes, lifts, degree, parent) from one that
    reads each class as its list of (weight, m + box), term by term and box by box;
    the parent's numerators are not read."""
    def term(ks, boxes, lifts, degree, parent):
        return kernel(ks, [[(w, m + box) for w, m in class_lifts for box in boxes]
                           for class_lifts in lifts], degree)
    return term


def ref_segre_term(ks, boxes, lifts, degree):
    """Per class, prod (1+ku)^(-sign) / prod ks to u^degree over k = m + box, from 1
    over every box: the Segre term the parent walk replaced."""
    out = []
    for class_lifts in lifts:
        c = [1] + [0] * degree
        for sign, m in class_lifts:
            for k in (m + box for box in boxes):
                if sign > 0:
                    for j in range(1, degree + 1):  # divide by 1 + k u
                        c[j] -= k * c[j - 1]
                else:
                    for j in range(degree, 0, -1):  # multiply by 1 + k u
                        c[j] += k * c[j - 1]
        out.append(c)
    return prod(ks), out


def ref_power_euler_term(ks, boxes, lifts, degree, parent):
    """The HRR Euler term with p_j = sum k^j built for every j <= degree, odd j >= 3
    too, where tau_j = 0: the per-j power loop the steps by k^2 replaced."""
    d, tau, den = loc._todd_log(degree)
    exponent, powers = [0], ks
    for t in tau[1:]:
        exponent.append(t and t * sum(powers))
        powers = list(map(mul, powers, ks))
    exponent.append(0)  # a_1 exists at degree 0 too
    linear = exponent[1]
    size, total = len(boxes), sum(boxes)
    out = []
    for class_lifts in lifts:
        exponent[1] = linear + d * sum(w * (size * m + total) for w, m in class_lifts)
        out.append(exp_numerators(exponent, d, degree))
    return prod(ks) * den, out


def ref_class_euler_term(ks, boxes, lifts, degree, parent):
    """Per class, e^(au) prod td(ku) / prod ks to u^degree, one full exp_numerators each,
    a = sum weight (|lambda| m + B): the per-class Euler term that one exp per partition
    for the whole batch, and the row scaling of every further class, replaced."""
    d, tau, den = loc._todd_log(degree)
    exponent = [0] * (degree + 2)  # a_1 exists at degree 0 too
    powers = squares = list(map(mul, ks, ks))
    for j in range(2, degree + 1, 2):  # tau_j = 0 at odd j >= 3
        exponent[j] = tau[j] * sum(powers)
        powers = list(map(mul, powers, squares))
    linear = degree and tau[1] * sum(ks)
    size, total = len(boxes), sum(boxes)
    out = []
    for class_lifts in lifts:
        exponent[1] = linear + d * sum(w * (size * m + total) for w, m in class_lifts)
        out.append(exp_numerators(exponent, d, degree))
    return prod(ks) * den, out


def ref_scaled(rows, moves):
    """Per move, row n of ``rows`` times exp_numerators([0, n move], 1, degree), the
    integers degree! (n move)^k / k!, by the triple loop: the row scaling that one
    packed product per row replaced."""
    degree = len(rows[0]) - 1
    return [[ref_times([row], [exp_numerators([0, n * move], 1, degree)])[0]
             for n, row in enumerate(rows)] for move in moves]


def every_box(kernel):
    """A kernel under the chart pass's contract that ignores the parent's numerators."""
    return lambda ks, boxes, lifts, degree, parent: kernel(ks, boxes, lifts, degree)


def ref_times(a, b):
    """The product of two series in x of lists in u, truncated as they are, by the
    triple loop the packed product replaced."""
    out = []
    for n, width in enumerate(map(len, a)):
        row = [0] * width
        for i in range(n + 1):
            p, r = a[i], b[n - i]
            for j in range(width):
                row[j] += sum(map(mul, p[:j + 1], reversed(r[:j + 1])))
        out.append(row)
    return out


def twisted_class(kclass, r):
    """L + (r-1) O, of rank r, for the line bundle L of kclass: |r-1| trivial terms."""
    extra = abs(r - 1)
    trivial = (1 if r > 1 else -1, (0,) * len(kclass.surface.generators))
    return ShiftedClass(kclass.surface, kclass.terms + [trivial] * extra,
                        shifts_of(kclass) + [(0, 0)] * extra)


# The per-point path: the fixed-point sum the chart pass replaced, kept as
# its differential reference.  It enumerates the fixed points of S^[n],
# specializes each once per direction for a batch of classes, and sums an
# integer kernel over the points.

def point_records(surface, kclasses, fps, q):
    """Each fixed point at direction q: its tangent weights and, per class,
    its signed tautological weights (the order of taut_weights)."""
    steps = [(loc._dot(u1, q), loc._dot(u2, q)) for _, _, u1, u2 in surface.charts]
    terms = [[(sign, [loc._dot(m, q) for m in lifts]) for sign, lifts in kclass.signed_lifts()]
             for kclass in kclasses]
    for fp in fps:
        ks = [spec_nonzero(w, q) for w in loc.tangent_weights(fp, surface)]
        boxes = [(index, col * across + row * up)
                 for index, (lam, (across, up)) in enumerate(zip(fp, steps))
                 for row, part in enumerate(lam) for col in range(part)]
        yield ks, [[(sign, lift[index] + box) for sign, lift in class_terms
                    for index, box in boxes] for class_terms in terms]


def point_sum(kernel, surface, kclasses, n, seed, whats):
    """Per class, kernel(records, 2n, len(kclasses)) agreed at the two drawn directions."""
    draws = loc._two_draws(surface, n, seed)
    fps = loc.enumerate_fixed_points(surface, n)
    first, second = (kernel(point_records(surface, kclasses, fps, q), 2 * n, len(kclasses))
                     for q in draws)
    return tuple(loc._agreed(draws, name, a, b) for name, a, b in zip(whats, first, second))


def point_segre_top(records, order, count):
    """Per class, the sum over points of [u^order] prod (1+ku)^(-sign) / prod ks."""
    totals = [F(0)] * count
    for ks, class_weights in records:
        denom = prod(ks)
        for index, weights in enumerate(class_weights):
            c = [1] + [0] * order
            for sign, k in weights:
                if sign > 0:
                    for j in range(1, order + 1):  # divide by 1 + k u
                        c[j] -= k * c[j - 1]
                else:
                    for j in range(order, 0, -1):  # multiply by 1 + k u
                        c[j] += k * c[j - 1]
            totals[index] += F(c[order], denom)
    return totals


def point_euler_sum(records, order, count):
    """Per class, the sum of (1+e)^a / prod_k (1-(1+e)^(-k)) over points, as an integer.

    Each point's term times e^len(ks) is (-1)^#{k<0} (1+e)^A / prod P_|k|(e)
    with P_m(e) = ((1+e)^m - 1)/e and A = a + sum of the positive k; its
    coefficients are d_j / Q_0^(j+1), and the points are added over the
    lcm of their Q_0.  The poles must cancel and the result be an integer.
    """
    totals = [[0] * (order + 1) for _ in range(count)]
    scale = 1
    for ks, class_weights in records:
        shift = sum(k for k in ks if k > 0)
        negative = sum(1 for k in ks if k < 0) % 2
        denom = [1] + [0] * order
        for k in ks:
            p = [comb(abs(k), i + 1) for i in range(min(abs(k), order + 1))]
            for j in range(order, -1, -1):
                denom[j] = sum(map(mul, p, denom[j::-1]))
        q0 = denom[0]
        scaled = [denom[i] * q0 ** (i - 1) for i in range(1, order + 1)]
        grown = lcm(scale, q0)
        if grown != scale:
            ratio = grown // scale
            totals = [[t * ratio ** (j + 1) for j, t in enumerate(total)] for total in totals]
            scale = grown
        factor = scale // q0
        q0_powers = [q0 ** j for j in range(order + 1)]
        powers = [(-1) ** negative * factor ** (j + 1) for j in range(order + 1)]
        for total, weights in zip(totals, class_weights):
            exponent = sum(sign * k for sign, k in weights) + shift
            numer = 1
            d = []
            for j in range(order + 1):
                if j:
                    numer = numer * (exponent - j + 1) // j
                d.append(numer * q0_powers[j] - sum(map(mul, scaled, reversed(d))))
                total[j] += d[j] * powers[j]
    values = []
    for total in totals:
        for j in range(order):
            if total[j] != 0:
                raise ArithmeticError(
                    "fixed-point sum has a surviving pole coefficient at order %d" % (j - order))
        value = F(total[order], scale ** (order + 1))
        if value.denominator != 1:
            raise ArithmeticError("Euler characteristic %s is not an integer" % value)
        values.append(int(value))
    return values


def outcome(fn, *args):
    """The value of fn(*args), "zero weight" if the direction zeroes a tangent
    weight (points or charts), or the name of the exception it raised."""
    try:
        return fn(*args)
    except ZeroWeight:
        return "zero weight"
    except ArithmeticError as exc:
        return "zero weight" if "zeroes a tangent weight" in str(exc) else type(exc).__name__


def at_n(batch, n):
    """Row n of each class's values from a batch entry run to order n."""
    return tuple(values[n] for values in batch)


CLASSES = {
    "p2": ["O(2)+O(-1)-O(1)", "-O(1)-O(2)+O(0)", "O(3)-O(1)"],
    "p1xp1": ["O(2,1)+O(0,1)-O(1,0)", "-O(1,1)+O(2,-1)", "O(1,2)-O(0,1)-O(1,-1)"],
    "f1": ["O(1,1)-O(2,0)", "-O(0,1)+O(1,-1)+O(2,1)", "O(-1,2)-O(1,1)"],
}
DIRECTIONS = [(2, 5), (-3, 7), (1, -4), (6, 1), (1, 1)]  # (1, 1) kills weights


def negated(kclass):
    return ShiftedClass(kclass.surface, [(-sign, coeffs) for sign, coeffs in kclass.terms],
                        shifts_of(kclass))


def chart_values(read, surface, classes, order, q, term):
    """Per class, the values n = 0..order of the chart product at direction q."""
    lifts = [c.signed_lifts() for c in classes]
    return [read(*c) for c in loc._chart_product(surface, lifts, order, q, term,
                                                  loc._shapes(order))]


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
                    point = outcome(point_segre_top, point_records(surface, [new_class], fps, q),
                                    2 * n, 1)
                    assert point == \
                        outcome(lambda *a: [ref_segre_top(*a)],
                                single(point_records(surface, [kclass], fps, q)), 2 * n,
                                chern), (spec, n, q, chern)
                    chart = outcome(chart_values, loc._values, surface, [new_class],
                                    n, q, loc._segre_term)
                    if isinstance(point, str):
                        assert chart == point, (spec, n, q, chern)
                    else:
                        assert chart[0][n] == point[0], (spec, n, q, chern)


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
                    records = point_records(surface, [twisted_class(kclass, r)], fps, q)
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
            twisted = twisted_class(kclass, r)
            for q in DIRECTIONS[r % 2::2]:
                try:
                    data = list(point_records(surface, [twisted], fps, q))
                except ZeroWeight:
                    continue
                value = point_euler_sum(data, 2 * n, 1)
                assert value == [ref_euler_sum(single(data), 2 * n)], (n, r, q)
                chart = chart_values(loc._values, surface, [twisted], n, q,
                                     loc._euler_term)
                assert chart[0][n] == value[0], (n, r, q)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_hrr_term_is_the_binomial_term(name):
    # the chart pass read in u (HRR) and in e = e^u - 1 gives the same values,
    # poles and errors: every twist, one pass each since a batch shares its
    # twist, at each direction's top generic order <= 8 (so every n up to it),
    # at orders 0 and 1 (ToricSurface._validate reads chi(O) at order 1), and
    # one 3-class batch
    surface = loc.get_surface(name)
    gens = len(surface.generators)
    twisted = [twisted_class(loc.EqKClass(surface, [(1, tuple([r % 3 - 1] * gens))]), r)
               for r in range(-3, 4)]
    batch = [twisted_class(c, 2) for c in shifted_lines(surface)[:3]]
    cases = [([c], order, q) for q in DIRECTIONS
             for order in {0, 1, max(n for n in range(9) if loc._hook_generic(surface, n, q))}
             for c in twisted]
    for classes, order, q in cases + [(batch, 4, (2, 5))]:
        hrr, ref = (outcome(chart_values, loc._values, surface, classes, order, q, term)
                    for term in (loc._euler_term, weight_lists(ref_euler_term)))
        assert hrr == ref, (q, order, len(classes))
    assert loc._values(*loc._chart_product(surface, [[]], 1, (2, 5), loc._euler_term,
                                           loc._shapes(1))[0]) == (1, surface.chi_O)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_trivial_term_of_weight_r_minus_1_is_the_twisted_class(name):
    # the oracle's Verlinde class, L and one trivial term of weight r-1, against
    # the rank-r class with |r-1| unit trivial terms, at fixed directions: every
    # line alone, and the lines of one twist as one batch, which reads the first
    # line's weights and scales the others' rows
    surface = loc.get_surface(name)
    zero = ((0, 0),) * len(surface.charts)
    lines = shifted_lines(surface)
    for r in range(-3, 4):
        lifts = [line.signed_lifts() + [(r - 1, zero)] for line in lines]
        for q in DIRECTIONS:
            alone = [outcome(lambda: [loc._values(*c) for c in loc._chart_product(
                surface, [one], 4, q, loc._euler_term, loc._shapes(4))]) for one in lifts]
            twisted = [outcome(chart_values, loc._values, surface,
                               [twisted_class(line, r)], 4, q, loc._euler_term)
                       for line in lines]
            assert alone == twisted, (r, q)
            batch = outcome(lambda: [loc._values(*c) for c in loc._chart_product(
                surface, lifts, 4, q, loc._euler_term, loc._shapes(4))])
            failed = [c for c in alone if isinstance(c, str)]
            assert batch == (failed[0] if failed else [c for c, in alone]), (r, q)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_segre_and_chern_through_draws(name):
    surface = loc.get_surface(name)
    cases = [(loc.parse_class(surface, spec), n, seed)
             for spec in CLASSES[name] for n in range(4) for seed in (None, 3, 41)]
    new = [(loc.segre_integral(c, n, seed), loc.chern_integral(c, n, seed))
           for c, n, seed in cases]
    kernel = ref_batch(ref_segre_top)
    old = [(point_sum(kernel, surface, [c], n, seed, [repr(c)])[0],
            point_sum(kernel, surface, [negated(c)], n, seed, [repr(c)])[0])
           for c, n, seed in cases]
    assert new == old


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_verlinde_through_draws(name):
    surface = loc.get_surface(name)
    gens = len(surface.generators)
    cases = [(loc.EqKClass(surface, [(1, tuple((d + j) % 4 - 1 for j in range(gens)))]),
              r, n, seed)
             for d, r in enumerate(range(-3, 4)) for n, seed in enumerate((None, 17, 5, 17))]
    new = [loc.verlinde_chi(c, r, n, seed) for c, r, n, seed in cases]
    old = [point_sum(ref_batch(ref_euler_sum), surface, [twisted_class(c, r)], n, seed,
                     [repr(c)])[0] for c, r, n, seed in cases]
    assert new == old


@pytest.mark.parametrize("oracle, args", [
    (loc.segre_integral, ("O(2)+O(-1)-O(1)", 3)),
    (loc.chern_integral, ("O(2)+O(-1)-O(1)", 3)),
    (loc.verlinde_chi, ("O(1)", -2, 3)),
])
def test_one_chart_pass_per_call(oracle, args, monkeypatch):
    surface = loc.get_surface("p2")
    original = loc._chart_pass
    calls = []

    def counted(*a):
        calls.append(a)
        return original(*a)

    def refuse(*args):
        raise AssertionError("a fixed point was enumerated")

    monkeypatch.setattr(loc, "_chart_pass", counted)
    monkeypatch.setattr(loc, "enumerate_fixed_points", refuse)
    oracle(loc.parse_class(surface, args[0]), *args[1:])
    assert len(calls) == 1


def test_no_series_in_the_chart_pass(monkeypatch):
    # the tau table, once per degree, is the oracle's only Series computation
    surface = loc.get_surface("p2")
    loc._todd_log(8)
    built = []
    original, original_over = Series.__init__, Series._over.__func__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    def counted_over(cls, *args):
        # operation results are built here, not by __init__
        built.append(args)
        return original_over(cls, *args)

    monkeypatch.setattr(Series, "__init__", counted)
    monkeypatch.setattr(Series, "_over", classmethod(counted_over))
    loc.verlinde_series([loc.parse_class(surface, "O(1)")], 2, 4)
    loc.segre_series([loc.parse_class(surface, "O(2)+O(-1)-O(1)")], 4)
    assert built == []
    Series([1], 4)
    assert len(built) == 1
    Series.one(4) * Series.one(4)
    assert len(built) == 4


def test_the_oracle_builds_no_class(monkeypatch):
    # classes reach the chart pass as signed lifts: no negated Chern class
    # and no twisted Verlinde class
    surface = loc.get_surface("p1xp1")
    kclass = loc.parse_class(surface, "O(2,1)+O(0,1)-O(1,0)")
    line = loc.parse_class(surface, "O(1,0)")
    built = []
    original = loc.EqKClass.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(loc.EqKClass, "__init__", counted)
    loc.segre_series([kclass, line], 3)
    loc.chern_integral(kclass, 3)
    for r in (-2, 0, 1, 3):
        loc.verlinde_series([line], r, 3)
    assert built == []
    loc.EqKClass(surface, kclass.terms)
    assert len(built) == 1


def shifted_classes(surface):
    """CLASSES of the surface, each also with its terms' lifts moved."""
    out = []
    for spec in CLASSES[surface.name]:
        kclass = loc.parse_class(surface, spec)
        out.append(kclass)
        out.append(ShiftedClass(surface, kclass.terms,
                                [(3 * i - 2, 5 - 2 * i) for i in range(len(kclass.terms))]))
    return out


def shifted_lines(surface):
    """Four line bundles with moved lifts."""
    gens = len(surface.generators)
    return [ShiftedClass(surface, [(1, tuple((d + j) % 4 - 1 for j in range(gens)))],
                         [(d - 1, 2 - d)])
            for d in range(4)]


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_shared_specialization_is_taut_weights(name):
    surface = loc.get_surface(name)
    classes = shifted_classes(surface)
    for n in range(4):
        fps = loc.enumerate_fixed_points(surface, n)
        for q in DIRECTIONS:
            if not loc._hook_generic(surface, n, q):
                continue
            records = list(point_records(surface, classes, fps, q))
            assert len(records) == len(fps)
            for fp, (ks, class_weights) in zip(fps, records):
                assert ks == [loc._dot(w, q) for w in loc.tangent_weights(fp, surface)]
                assert len(class_weights) == len(classes)
                for kclass, weights in zip(classes, class_weights):
                    old = [(sign, loc._dot(c, q))
                           for sign, c in loc.taut_weights(kclass.signed_lifts(), fp, surface)]
                    assert sorted(weights) == sorted(old), (kclass, n, q, fp)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_batches_equal_the_references_class_by_class(name):
    surface = loc.get_surface(name)
    classes = shifted_classes(surface)
    lines = shifted_lines(surface)
    cases = list(enumerate((None, 3, 41, 3)))
    segre = [at_n(loc.segre_series(classes, n, seed), n) for n, seed in cases]
    chis = [at_n(loc.verlinde_series(lines, r, n, seed), n) for n, seed in cases
            for r in range(-3, 4)]
    segre_ref, euler_ref = ref_batch(ref_segre_top), ref_batch(ref_euler_sum)
    assert segre == [tuple(point_sum(segre_ref, surface, [c], n, seed, [repr(c)])[0]
                           for c in classes)
                     for n, seed in cases]
    assert chis == [tuple(point_sum(euler_ref, surface, [twisted_class(c, r)], n, seed,
                                    [repr(c)])[0] for c in lines)
                    for n, seed in cases for r in range(-3, 4)]


# The chart pass against the per-point path, exactly, for every n <= 6.
CHART_ORDER = 6


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_chart_pass_is_the_point_sum_segre(name):
    surface = loc.get_surface(name)
    # every mixed-sign class, with and without shifts, twisted by O(t, ..., t)
    classes = [ShiftedClass(surface, [(sign, tuple(c + t for c in coeffs))
                                      for sign, coeffs in kclass.terms], shifts_of(kclass))
               for kclass in shifted_classes(surface) for t in range(-3, 4)]
    whats = [repr(c) for c in classes]
    chart = loc.segre_series(classes, CHART_ORDER, 7)
    point = [point_sum(point_segre_top, surface, classes, n, 7, whats)
             for n in range(CHART_ORDER + 1)]
    assert chart == tuple(zip(*point))
    # Chern through its own entry point, at the top n, on the untwisted classes
    classes = shifted_classes(surface)
    chern = [loc.chern_integral(c, CHART_ORDER, 7) for c in classes]
    assert chern == list(point_sum(point_segre_top, surface, [negated(c) for c in classes],
                                   CHART_ORDER, 7, [repr(c) for c in classes]))


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_chart_pass_is_the_point_sum_verlinde(name):
    surface = loc.get_surface(name)
    lines = shifted_lines(surface)
    twists = range(-3, 4)
    chart = [values for r in twists
             for values in loc.verlinde_series(lines, r, CHART_ORDER, 11)]
    # one point sum per n for every twist at once
    twisted = [twisted_class(c, r) for r in twists for c in lines]
    point = [point_sum(point_euler_sum, surface, twisted, n, 11, [repr(c) for c in twisted])
             for n in range(CHART_ORDER + 1)]
    assert chart == list(zip(*point))


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_batch_rows_are_the_single_n_calls(name):
    surface = loc.get_surface(name)
    classes = shifted_classes(surface)
    lines = shifted_lines(surface)
    order = 5
    assert loc.segre_series(classes, order, 3) == \
        tuple(zip(*(at_n(loc.segre_series(classes, n, 3), n)
                    for n in range(order + 1))))
    for r in (-2, 0, 3):
        assert loc.verlinde_series(lines, r, order, 3) == \
            tuple(zip(*(at_n(loc.verlinde_series(lines, r, n, 3), n)
                        for n in range(order + 1)))), r


@pytest.mark.parametrize("r, order", [(3, 8), (-2, 6), (2, 10), (0, 5), (1, 7), (-3, 6)])
def test_verlinde_batch_is_each_line_alone(r, order):
    # one exp per partition for a batch, its further lines by row scaling,
    # against each line alone, which scales nothing, and against the chart pass
    # with one dense exp per class: the default Verlinde panel, one batch over
    # its three surfaces
    lines = extraction.default_panel("verlinde", r).rows
    batch = loc.verlinde_series(lines, r, order)
    assert batch == tuple(loc.verlinde_series([line], r, order)[0] for line in lines), (r, order)
    assert batch == loc._chart_pass(
        ref_class_euler_term,
        [(line.surface, line.signed_lifts() + [(r - 1, ((0, 0),) * len(line.surface.charts))])
         for line in lines], order, None,
        ["chi of %r at twist %d" % (line, r) for line in lines]), (r, order)


def test_euler_batch_of_two_twists_raises():
    # the batch's rows are scaled from its first class, which holds only when
    # every class has that class's weight sum r
    p2 = loc.get_surface("p2")
    line = loc.parse_class(p2, "O(1)")
    with pytest.raises(ValueError, match="share their weight sum r"):
        chart_values(loc._values, p2, [twisted_class(line, 2), twisted_class(line, 3)],
                     2, (2, 5), loc._euler_term)
    alone = chart_values(loc._values, p2, [twisted_class(line, 2)], 2, (2, 5),
                         loc._euler_term)
    assert chart_values(loc._values, p2, [twisted_class(line, 2)] * 2, 2, (2, 5),
                        loc._euler_term) == alone * 2 == [(1, 3, 0)] * 2


def test_one_todd_exp_per_partition(monkeypatch):
    # a Verlinde batch runs one Todd exp per partition, chart and direction,
    # whatever its size (3 classes ran 126 exps, one per class); each further
    # class scales at most rows n = 1..N of each chart per direction, and a
    # one-class pass scales none
    p2 = loc.get_surface("p2")
    lines = [loc.parse_class(p2, spec) for spec in ("O(1)", "O(0)", "O(2)")]
    todd, scaled = [], []
    original_todd, original_scaled = loc.exp_numerators, loc._scaled
    monkeypatch.setattr(loc, "exp_numerators", lambda *a: todd.append(a) or original_todd(*a))
    monkeypatch.setattr(loc, "_scaled", lambda rows, moves: scaled.append(
        (len(rows) - 1) * len(moves)) or original_scaled(rows, moves))
    order = 3
    partitions = sum(len(loc.partitions(k)) for k in range(order + 1))
    for batch in (lines, lines[:1]):
        todd.clear()
        scaled.clear()
        loc.verlinde_series(batch, 2, order)
        assert len(todd) == len(p2.charts) * partitions * 2 == 42, len(batch)
        assert sum(scaled) <= (len(batch) - 1) * order * len(p2.charts) * 2, len(batch)
    assert scaled == []


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_parent_walk_is_the_full_box_term(name):
    # each partition's Segre term from its parent's and the new box against the
    # term over every box: the same chart product, or the same error, at every
    # direction and order <= 8, for mixed-sign classes and their negations
    surface = loc.get_surface(name)
    classes = shifted_classes(surface)
    lifts = [[(sign * w, lift) for w, lift in c.signed_lifts()]
             for c in classes for sign in (1, -1)]
    for q in DIRECTIONS:
        for order in range(9):
            walked, full = (outcome(loc._chart_product, surface, lifts, order, q, term,
                                    loc._shapes(order))
                            for term in (loc._segre_term, every_box(ref_segre_term)))
            assert walked == full, (q, order)


def test_square_steps_are_the_power_loop():
    # tau_j = 0 at odd j >= 3: the term from steps by k^2 against the term from
    # every power, on random signed weights, boxes and classes, degrees 0..16;
    # the kernel reads a batch's first class only, so each class is run first
    rng = random.Random(16)
    for degree in range(17):
        for _ in range(6):
            ks = [rng.choice((-1, 1)) * rng.randint(1, 40) for _ in range(rng.randint(0, 12))]
            boxes = [rng.randint(-30, 30) for _ in range(rng.randint(0, 6))]
            lifts = [[(rng.randint(-3, 3), rng.randint(-20, 20))
                      for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(1, 3))]
            assert loc._euler_term(ks, boxes, lifts, degree, None) == \
                loc._euler_term(ks, boxes, lifts[:1], degree, None), (degree, ks, boxes, lifts)
            for c in lifts:
                assert loc._euler_term(ks, boxes, [c], degree, None) == \
                    ref_power_euler_term(ks, boxes, [c], degree, None), (degree, ks, boxes, c)


@pytest.mark.parametrize("order", [0, 1, 4, 7])
def test_one_shape_table_per_pass(order, monkeypatch):
    # both directions of a pass, and every chart, read one table: one
    # _hook_coefficients call per partition of size <= order
    surface = loc.get_surface("p1xp1")
    kclass, line = (loc.parse_class(surface, spec) for spec in ("O(1,0)-O(0,1)", "O(1,1)"))
    calls = []
    original = loc._hook_coefficients
    monkeypatch.setattr(loc, "_hook_coefficients", lambda lam: calls.append(lam) or original(lam))
    partitions = sum(len(loc.partitions(k)) for k in range(order + 1))
    for run in (lambda: loc.segre_series([kclass], order),
                lambda: loc.verlinde_series([line], 2, order)):
        calls.clear()
        run()
        assert len(calls) == partitions, order


def test_packed_times_is_the_triple_loop():
    rng = random.Random(15)

    def rows(count, width, bits):
        return [[rng.randint(-(1 << bits), 1 << bits) for _ in range(width)]
                for _ in range(count)]

    cases = [(rows(count, width, bits_a), rows(count, width, bits_b))
             for count, width in ((1, 1), (1, 7), (4, 1), (6, 11), (9, 17))
             for bits_a, bits_b in ((0, 0), (3, 60), (57, 36), (230, 201), (300, 1))]
    zeros = [[0] * 5 for _ in range(3)]
    cases += [(zeros, zeros), (zeros, rows(3, 5, 220)), (rows(3, 5, 220), zeros),
              ([[-(1 << 250)] * 4] * 3, [[-(1 << 210)] * 4] * 3),
              ([[1 << 250, -(1 << 250)] * 3] * 2, [[1 << 205] * 6] * 2)]
    for a, b in cases:
        assert loc._times(a, b) == ref_times(a, b), (a, b)


def test_packed_scaling_is_the_row_product():
    # signed rows of 0..300 bits, moves of either sign and 0, widths 1..21
    rng = random.Random(21)
    for count, width in ((1, 1), (2, 3), (4, 7), (6, 11), (11, 21)):
        for bits in (0, 3, 64, 300):
            rows = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(width)]
                    for _ in range(count)]
            for moves in ([0], [1], [-1, 9, 0], [rng.randint(-120, 120) for _ in range(4)]):
                assert loc._scaled(rows, moves) == ref_scaled(rows, moves), \
                    (count, width, bits, moves)
    zeros = [[0] * 5 for _ in range(3)]
    assert loc._scaled(zeros, [7, -3]) == ref_scaled(zeros, [7, -3]) == [zeros, zeros]


class TestChecksStillFire:
    def test_uncancelled_pole_raises(self):
        with pytest.raises(ArithmeticError, match="pole"):
            point_euler_sum([([1, 1], [[]])], 2, 1)
        with pytest.raises(ArithmeticError):
            ref_euler_sum([([1, 1], [])], 2)
        # x^1 u^0 is a pole of the chart product
        with pytest.raises(ArithmeticError, match="pole coefficient at order -2"):
            loc._values([[1, 0, 0], [1, 0, 0]], 1)

    def test_non_integer_result_raises(self):
        # the e^-1 poles 1/2 and -1/2 cancel; the constant term is 1/2
        data = [([2], [[]]), ([-2], [[(1, 1)]])]
        with pytest.raises(ArithmeticError, match="not an integer"):
            point_euler_sum(data, 1, 1)
        with pytest.raises(ArithmeticError, match="not an integer"):
            ref_euler_sum(single(data), 1)
        with pytest.raises(ArithmeticError, match="not an integer"):
            loc._values([[1, 5, 5], [0, 0, 3]], 2)

    def test_integer_result_passes(self):
        # same points with equal a: the constant term is 1
        data = [([2], [[(1, 1)]]), ([-2], [[(1, 1)]])]
        assert point_euler_sum(data, 1, 1) == [1] == [ref_euler_sum(single(data), 1)]
        assert loc._values([[18, 7, 7], [0, 0, 36]], 18) == (1, 2)

    @pytest.mark.parametrize("broken, match", [
        ("pole", "pole coefficient at order -2"), ("halved", "not an integer")])
    def test_every_kind_is_read_with_both_checks(self, broken, match, monkeypatch):
        # Segre and Chern values are read like Euler characteristics: at both
        # directions, a chart product with x^1 u^0 = 1 (a pole) or with every
        # value halved (1/2 at n = 0) raises instead of returning the values
        p2 = loc.get_surface("p2")
        kclass, line = loc.parse_class(p2, "O(2)+O(-1)-O(1)"), loc.parse_class(p2, "O(1)")
        original = loc._chart_product

        def wrapped(*args):
            out = []
            for rows, den in original(*args):
                if broken == "pole":
                    rows = [list(row) for row in rows]
                    rows[1][0] += den
                    out.append((rows, den))
                else:
                    out.append((rows, 2 * den))
            return out

        monkeypatch.setattr(loc, "_chart_product", wrapped)
        for call in (lambda: loc.segre_series([kclass, line], 3),
                     lambda: loc.chern_integral(kclass, 3),
                     lambda: loc.verlinde_series([line], 2, 3)):
            with pytest.raises(ArithmeticError, match=match):
                call()

    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_every_value_is_an_int(self, name):
        surface = loc.get_surface(name)
        classes = [loc.parse_class(surface, spec) for spec in CLASSES[name]]
        lines = shifted_lines(surface)
        values = [v for series in loc.segre_series(classes, 3) for v in series]
        values += [loc.chern_integral(c, n) for c in classes for n in range(4)]
        values += [v for r in (-2, 0, 3) for series in loc.verlinde_series(lines, r, 3)
                   for v in series]
        assert [type(v) for v in values] == [int] * len(values)

    def test_checks_run_per_class(self):
        # the second class of each batch fails its check, the first passes
        data = [([2], [[(1, 1)], []]), ([-2], [[(1, 1)], [(1, 1)]])]
        assert point_euler_sum(data, 1, 1) == [1]
        with pytest.raises(ArithmeticError, match="not an integer"):
            point_euler_sum(data, 1, 2)
        # chi(O) of P2 from its three charts at q = (2, 5), and a weight
        # at one chart only, which leaves a pole
        data = [([-2, -5], [[], [(1, 1)]]), ([-3, 2], [[], []]), ([5, 3], [[], []])]
        assert point_euler_sum(data, 2, 1) == [1]
        with pytest.raises(ArithmeticError, match="pole"):
            point_euler_sum(data, 2, 2)

    def test_chart_checks_run_per_class(self, monkeypatch):
        # a row scaling that doubles the second class's chart rows off x^0, as
        # doubling its terms off the empty partition did, breaks that class's
        # sum and no other
        p2 = loc.get_surface("p2")
        line = loc.parse_class(p2, "O(1)")
        original = loc._scaled

        def broken(rows, moves):
            return [[head] + [[2 * c for c in row] for row in rest]
                    for head, *rest in original(rows, moves)]

        value = at_n(loc.verlinde_series([line], 2, 4), 4)
        monkeypatch.setattr(loc, "_scaled", broken)
        assert at_n(loc.verlinde_series([line], 2, 4), 4) == value == (6,)
        with pytest.raises(ArithmeticError, match="pole|not an integer"):
            loc.verlinde_series([line, line], 2, 4)


    def test_directions_are_compared_per_class(self, monkeypatch):
        # a product whose second class depends on the direction
        p2 = loc.get_surface("p2")
        first, second = (loc.parse_class(p2, spec) for spec in ("O(1)", "O(2)-O(1)"))
        original = loc._chart_product

        def skewed(surface, classes, order, q, term, shapes):
            out = original(surface, classes, order, q, term, shapes)
            if len(out) > 1:
                rows, den = out[1]
                rows[order][2 * order] += q[0] * den
            return out

        monkeypatch.setattr(loc, "_chart_product", skewed)
        assert at_n(loc.segre_series([first], 2), 2) == (loc.segre_integral(first, 2),)
        with pytest.raises(ArithmeticError, match="disagree on " + re.escape(repr(second))):
            loc.segre_series([first, second], 2)


class TestHookScan:
    """Directions are screened by hook length before any chart is specialized."""

    # (surface, first n at which no direction of the box is generic)
    DEAD_FROM = [("p2", 25), ("p1xp1", 17), ("f1", 17)]

    @pytest.mark.parametrize("name, dead_from", DEAD_FROM)
    def test_dead_box_raises_before_enumerating(self, name, dead_from, monkeypatch):
        surface = loc.get_surface(name)

        def refuse(*args):
            raise AssertionError("charts specialized for n beyond the draw box")

        monkeypatch.setattr(loc, "_chart_product", refuse)
        monkeypatch.setattr(loc, "enumerate_fixed_points", refuse)
        line = loc.EqKClass(surface, [(1, (1,) + (0,) * (len(surface.generators) - 1))])
        oracles = [lambda n: loc.segre_integral(line, n),
                   lambda n: loc.chern_integral(line, n),
                   lambda n: loc.verlinde_chi(line, 2, n)]
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
        # the chart pass specializes every partition of size <= n per chart
        surface = loc.get_surface(name)
        for n in range(7):
            for q in loc._DIRECTIONS:
                try:
                    loc._chart_product(surface, [], n, q, loc._segre_term, loc._shapes(n))
                except ArithmeticError:
                    accepted = False
                else:
                    accepted = True
                assert loc._hook_generic(surface, n, q) == accepted, (n, q)

    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_the_chart_pass_accepts_what_the_points_accept(self, name):
        # a direction zeroes a weight of a chart partition of size <= n
        # exactly when it zeroes a weight of a fixed point of S^[n]
        surface = loc.get_surface(name)
        for n in range(5):
            fps = loc.enumerate_fixed_points(surface, n)
            for q in loc._DIRECTIONS:
                verdicts = []
                for attempt in (lambda: loc._chart_product(surface, [], n, q, loc._segre_term,
                                                           loc._shapes(n)),
                                lambda: list(point_records(surface, [], fps, q))):
                    try:
                        attempt()
                    except ArithmeticError:
                        verdicts.append(False)
                    else:
                        verdicts.append(True)
                assert verdicts[0] == verdicts[1], (n, q)


class TestDrawHelper:
    # The first two hook-generic directions of the seeded stream, as the
    # draw loop has always drawn them: draws stay deterministic from the seed.
    PINNED = [
        ("p2", 0, None, [(-7, -9), (7, 8)]),
        ("p2", 1, None, [(-7, -9), (7, 8)]),
        ("p2", 12, 123456, [(-4, -9), (-9, 7)]),
        ("p1xp1", 16, None, [(-9, -8), (9, -8)]),
        ("p1xp1", 16, 3, [(-8, -9), (-9, -8)]),
        ("p1xp1", 16, 5, [(9, 8), (-8, 9)]),
        ("f1", 5, 41, [(-2, -9), (-5, 1)]),
        ("f1", 16, 17, [(-9, -8), (8, 9)]),
    ]

    @pytest.mark.parametrize("name, n, seed, draws", PINNED)
    def test_draw_stream_is_pinned(self, name, n, seed, draws):
        assert loc._two_draws(loc.get_surface(name), n, seed) == draws

    def test_every_direction_rejected_raises_quickly(self, monkeypatch):
        tried = []

        def reject(surface, n, q):
            tried.append(q)
            return False

        p2 = loc.get_surface("p2")
        monkeypatch.setattr(loc, "_hook_generic", reject)
        started = time.perf_counter()
        with pytest.raises(loc.DrawError):
            loc._two_draws(p2, 1, 5)
        assert time.perf_counter() - started < 2
        assert len(tried) == len(set(tried)) == 288

    def test_one_usable_direction_raises(self, monkeypatch):
        p2 = loc.get_surface("p2")
        monkeypatch.setattr(loc, "_hook_generic", lambda surface, n, q: q == (2, 5))
        with pytest.raises(loc.DrawError):
            loc._two_draws(p2, 1, None)

    def test_rejected_directions_keep_the_stream(self, monkeypatch):
        # rejecting a direction never shifts which later ones are drawn
        p2 = loc.get_surface("p2")
        monkeypatch.setattr(loc, "_hook_generic", lambda surface, n, q: True)
        first = loc._two_draws(p2, 1, 9)
        tried = []

        def reject_first(surface, n, q):
            tried.append(q)
            return q != first[0]

        monkeypatch.setattr(loc, "_hook_generic", reject_first)
        draws = loc._two_draws(p2, 1, 9)
        assert tried[:2] == first
        assert draws == tried[1:3]

    def test_disagreement_is_not_a_draw_error(self):
        draws = loc._two_draws(loc.get_surface("p2"), 1, 1)
        with pytest.raises(ArithmeticError, match="disagree") as info:
            loc._agreed(draws, "a test", *draws)
        assert not isinstance(info.value, loc.DrawError)
