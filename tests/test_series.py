"""Core series arithmetic, checked against independent slow routes."""

from __future__ import annotations

import fractions
import random
from fractions import Fraction as F
from math import factorial, gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbseries import (
    BranchError,
    CompositionError,
    ConstantTermError,
    OrderMismatchError,
    ReversionError,
    Series,
    solve_algebraic,
)
from hilbseries.series import _least_cover, as_fraction, exp_numerators, pow_numerators

ORDER = 8


def binomial_pow(a, e, order):
    """(1 + x)^e as the direct binomial sum, x = a - 1; independent of exp/log."""
    x = a - 1
    assert x.coeffs[0] == 0
    out = Series.zero(order, a.var)
    term = Series.one(order, a.var)
    coeff = F(1)
    for k in range(order + 1):
        out = out + coeff * term
        term = term * x
        coeff = coeff * (F(e) - k) / (k + 1)
    return out

def revert_undetermined(a):
    """Reversion by solving for one unknown coefficient at a time."""
    n = a.order
    b = [F(0), 1 / a.coeffs[1]] + [F(0)] * (n - 1)
    for k in range(2, n + 1):
        got = a.compose(Series(b[: k + 1] + [F(0)] * (n - k), n, a.var)).coeffs[k]
        b[k] = -got / a.coeffs[1]
    return Series(b, n, a.var)

def rand_series(rng, order, const=None):
    c = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order + 1)]
    if const is not None:
        c[0] = F(const)
    return Series(c, order)


def ref_inverse(a):
    """The Fraction-loop inverse that the integer recurrence replaced."""
    c = a.coeffs
    inv0 = F(1) / c[0]
    out = [inv0]
    for n in range(1, a.order + 1):
        acc = F(0)
        for k in range(1, n + 1):
            if c[k]:
                acc += c[k] * out[n - k]
        out.append(-inv0 * acc)
    return tuple(out)

def ref_exp(a):
    """The Fraction-loop exp that the integer recurrence replaced."""
    n, c = a.order, a.coeffs
    out = [F(1)] + [F(0)] * n
    for m in range(n):
        acc = F(0)
        for k in range(m + 1):
            if c[k + 1]:
                acc += (k + 1) * c[k + 1] * out[m - k]
        out[m + 1] = acc / (m + 1)
    return tuple(out)

def ref_pow(a, e):
    """Integer powers by repeated squaring, as __pow__ computed them before it ran
    Miller's recurrence."""
    if not isinstance(e, int):
        raise TypeError("use pow_rational for non-integer exponents")
    if e < 0:
        return ref_pow(a.inverse(), -e)
    out, base = Series.one(a.order, a.var), a
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out

def ref_integral(a):
    """Antiderivative with constant term 0, the order one higher: the Series.integral
    that log read before it ran its own recurrence."""
    m = lcm(*range(1, a.order + 2))
    return Series._over(a.den * m, [0] + [x * (m // k) for k, x in enumerate(a.nums, 1)],
                        a.var)

def ref_log(a):
    """log a as the integral of a'/a, the derivative times the inverse, as Series.log
    computed it before."""
    if a.nums[0] != a.den:
        raise ConstantTermError("log needs constant term 1, got %s" % a.coefficient(0))
    if a.order == 0:
        return Series.zero(0, a.var)
    return ref_integral(a.derivative() * a.truncate(a.order - 1).inverse())

def ref_pow_rational(a, e):
    """a^e as exp(e log a), as pow_rational computed it before."""
    if a.nums[0] != a.den:
        raise ConstantTermError("rational power needs constant term 1, got %s"
                                % a.coefficient(0))
    return (ref_log(a) * e).exp()

def ref_compose(a, inner):
    """Horner's rule over Series products and sums, as compose computed it before."""
    if not isinstance(inner, Series):
        raise TypeError("compose expects a Series")
    a._require_same_order(inner)
    if inner.nums[0]:
        raise CompositionError("inner series has constant term %s, expected 0"
                               % inner.coefficient(0))
    out = Series.zero(a.order, inner.var)
    for x in reversed(a.nums):
        out = out * inner + x
    return out / a.den

def outcome(fn):
    """The raw result, or the type and message of the error raised."""
    try:
        return raw(fn())
    except Exception as error:
        return type(error), str(error)

def ref_exp_numerators(a, d, order):
    """The integer exp recurrence with the weights (k+1) a_(k+1) rebuilt for every m,
    as exp_numerators computed them before it built them once."""
    e = [factorial(order) * d ** order]
    for m in range(order):
        total = sum(map(mul, map(mul, range(1, m + 2), a[1:m + 2]), reversed(e)))
        e.append(total // ((m + 1) * d))
    return e

def ref_solve_algebraic(relation, order, var="t"):
    """The Newton solve over Series that the integer coefficient recurrence
    replaced: each step doubles the number of settled coefficients."""
    rel = {k: as_fraction(v) for k, v in relation.items() if v}
    if rel.get((0, 0), F(0)) != 0:
        raise BranchError("P(0,0) must vanish for a branch through the origin")
    if rel.get((1, 0), F(0)) == 0:
        raise BranchError("dP/dy(0,0) vanishes: branch through the origin is not simple")
    ydeg = max(i for i, _ in rel)

    def row(i, weight=1):
        c = [F(0)] * (order + 1)
        for (a, j), v in rel.items():
            if a == i and j <= order:
                c[j] += weight * v
        return Series(c, order, var)

    p = [row(i) for i in range(ydeg + 1)]
    dp = [row(i, weight=i) for i in range(1, ydeg + 1)]

    def horner(cols, y):
        out = Series.zero(order, var)
        for c in reversed(cols):
            out = out * y + c
        return out

    y = Series.zero(order, var)
    for _ in range(order.bit_length() + 3):
        r = horner(p, y)
        if r.is_zero():
            return y
        y = y - r * horner(dp, y).inverse()
    if horner(p, y).is_zero():
        return y
    raise BranchError("Newton failed to reach a root to the requested order")


def ref_revert(a):
    """The Newton reversion over Series that the branch recurrence replaced."""
    n = a.order
    x = Series.gen(n, a.var)
    # the derivative zero-padded back to order n: its junk top coefficient is
    # always multiplied by a series of valuation >= 1 below
    slope = a.derivative()
    da = Series._over(slope.den, slope.nums + (0,), a.var)
    b = x * a.den / a.nums[1]
    for _ in range(n.bit_length() + 2):
        err = a.compose(b) - x
        if err.is_zero():
            return b
        b = b - err * da.compose(b).inverse()
    raise ReversionError("Newton reversion failed to converge")


def ref_revert_scaled(a):
    """The reversion that read sum_i a_i y^i = D t through solve_algebraic as it
    stands, y = c Y(t/c^2) with c the numerator of a_1, before a_1 was divided out."""
    if a.order < 1 or a.nums[0] or not a.nums[1]:
        raise ReversionError("reversion needs a(0) = 0 and a'(0) != 0 at order >= 1")
    relation = {(i, 0): x for i, x in enumerate(a.nums) if x}
    relation[0, 1] = -a.den
    return solve_algebraic(relation, a.order, a.var)


def random_relation(rng):
    """P(y, t) with rational coefficients, y-degree <= 5, t-degree <= 3, a
    simple branch through the origin and dP/dy(0,0) not a unit."""
    while True:
        slope = F(rng.randint(-6, 6), rng.randint(1, 4))
        if slope not in (0, 1, -1):
            break
    rel = {(1, 0): slope}
    for _ in range(rng.randint(1, 6)):
        key = rng.randint(0, 5), rng.randint(0, 3)
        if key not in ((0, 0), (1, 0)):
            rel[key] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return rel


def raw(series):
    return series.order, series.den, series.nums, series.var


def sparse_series(rng, order, const):
    """Random rationals, about half of them zero, with a given constant term."""
    c = [F(rng.choice((0, rng.randint(-40, 40))), rng.randint(1, 12))
         for _ in range(order + 1)]
    c[0] = F(const)
    return Series(c, order)


@st.composite
def wide_series(draw, order=None, head="any"):
    """Orders 0..25, numerators up to 40 digits over one denominator that is 1 or up to
    40 digits, about a third of them zero; head "unit" sets the constant term to 1,
    "zero" clears the first 1..3 coefficients."""
    if order is None:
        order = draw(st.integers(0, 25))
    den = draw(st.one_of(st.just(1), st.integers(1, 10 ** 40)))
    big = st.integers(-10 ** 40, 10 ** 40)
    nums = draw(st.lists(st.one_of(st.just(0), big, st.integers(-9, 9)),
                         min_size=order + 1, max_size=order + 1))
    if head == "unit":
        nums[0] = den
    elif head == "zero":
        v = draw(st.integers(1, 3))
        nums[:v] = [0] * min(v, order + 1)
    return Series([F(x, den) for x in nums], order)

heads = st.sampled_from(["any", "unit", "zero"])


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)

def unit_series(order=6):
    return st.lists(small_fractions, min_size=order + 1, max_size=order + 1).map(
        lambda c: Series([F(1)] + c[1:], order))

def novanish_series(order=6):
    return st.lists(small_fractions, min_size=order + 1, max_size=order + 1).map(
        lambda c: Series([F(0)] + c[1:], order))


class TestArithmetic:
    def test_product_anchor(self):
        t = Series.gen(3)
        assert (1 + t) * (1 - t) == Series([1, 0, -1, 0], 3)

    def test_product_matches_fraction_schoolbook(self):
        # the earlier product: one Fraction multiply-add per coefficient pair
        rng = random.Random(11)
        for order in range(13):
            for _ in range(5):
                a, b = ([F(rng.choice((0, rng.randint(-10**6, 10**6))), rng.randint(1, 10**4))
                         for _ in range(order + 1)] for _ in range(2))
                want = [F(0)] * (order + 1)
                for i in range(order + 1):
                    for j in range(order + 1 - i):
                        want[i + j] += a[i] * b[j]
                got = Series(a, order) * Series(b, order)
                assert list(got.coeffs) == want

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            Series.gen(3) * Series.gen(4)
        with pytest.raises(OrderMismatchError):
            Series.gen(3) + Series.gen(2)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Series([0.5], 1)
        with pytest.raises(TypeError):
            Series.gen(2) * 0.5

    def test_scalar_ops(self):
        t = Series.gen(2)
        assert 2 * t - t == t
        assert (1 + t) - 1 == t
        assert t / 2 == Series([0, F(1, 2), 0], 2)
        assert 1 / (1 - t) == Series([1, 1, 1], 2)

    def test_integer_powers(self):
        t = Series.gen(4)
        assert (1 + t) ** 3 == Series([1, 3, 3, 1, 0], 4)
        assert (1 + t) ** -1 == Series([1, -1, 1, -1, 1], 4)
        assert (1 + t) ** 0 == Series.one(4)

    def test_inverse_matches_fraction_loop(self):
        rng = random.Random(41)
        for order in range(41):
            for const in (1, -1, F(3, 7), -5, F(-9, 2)):
                a = sparse_series(rng, order, const)
                got = a.inverse()
                assert got.coeffs == ref_inverse(a)
                assert all(type(c) is F for c in got.coeffs)

    def test_inverse_of_a_polynomial_with_gaps(self):
        t = Series.gen(40)
        a = 2 - 3 * t ** 5 + F(1, 3) * t ** 17
        assert a.inverse().coeffs == ref_inverse(a)

    def test_inverse_needs_nonzero_constant(self):
        with pytest.raises(ConstantTermError):
            Series.gen(3).inverse()

    def test_shift(self):
        t = Series.gen(5)
        y = t - 6 * t ** 2
        assert y.shift(-1) == Series([1, -6, 0, 0, 0], 4)
        assert y.shift(1).order == 6
        with pytest.raises(ConstantTermError):
            (1 + t).shift(-1)

    def test_truncate_never_extends(self):
        with pytest.raises(ValueError):
            Series.gen(3).truncate(4)

    @pytest.mark.parametrize("order", [-1, -2])
    def test_negative_order_is_refused(self, order):
        for build in (Series.zero, Series.one, Series.gen, Series.gen(3).truncate,
                      lambda order: Series([], order)):
            with pytest.raises(ValueError, match="order must be >= 0"):
                build(order)


THIRD = F(1, 3)

def operation_results(a, b, y):
    """Every arithmetic operation once, on units a and b and on y with y(0) = 0."""
    return [a * b, a + b, a - b, -a, a.inverse(), a.log(), y.exp(), a.pow_rational(THIRD),
            a.truncate(3), y.shift(-1), a.shift(2), a.derivative(), a ** 5, y ** 3, a ** -2,
            a * THIRD, 2 * a, a / 3, 1 + a, THIRD - a, y.compose(y), y.revert()]


class TestRepresentation:
    """A series is integer numerators over one positive denominator, in lowest terms."""

    def test_arithmetic_builds_no_fraction(self, monkeypatch):
        rng = random.Random(14)
        a, b = rand_series(rng, 12, const=1), rand_series(rng, 12, const=F(-3, 5))
        y = rand_series(rng, 12, const=0)
        y = y + Series.gen(12) - y.coefficient(1) * Series.gen(12)  # y'(0) = 1
        built = []
        original = fractions.Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", counted)
        results = operation_results(a, b, y)
        assert results[0] == a * b and a != b and a != 1
        assert built == []
        results[0].coefficient(3)
        assert len(built) == 1

    @given(unit_series(), small_fractions.filter(bool), novanish_series())
    @settings(deadline=None, max_examples=40)
    def test_results_are_in_lowest_terms(self, a, c, y):
        b = a * c
        if y.coefficient(1) == 0:
            y = y + Series.gen(y.order)
        for out in operation_results(a, b, y):
            assert out.den > 0 and gcd(out.den, *out.nums) == 1
            assert out.coeffs == tuple(F(x, out.den) for x in out.nums)
            # the public constructor lands on the same integers
            again = Series(list(out.coeffs), out.order)
            assert (again.den, again.nums) == (out.den, out.nums)

    @given(unit_series(), unit_series(), novanish_series(), small_fractions.filter(bool))
    @settings(deadline=None, max_examples=40)
    def test_equality_is_coefficientwise(self, a, b, c, k):
        u = a * k  # a unit whose constant term need not be 1
        assert (a * b) * c == a * (b * c)
        assert u * u.inverse() == 1 and u * u.inverse() == Series.one(u.order)
        assert (a + c) - c == a and a - a == Series.zero(a.order)
        assert (u * c) / u == c
        for x, z in ((a, b), (a * b, b * a), (a + c, c + a), (u, a)):
            assert (x == z) == (x.coeffs == z.coeffs)


class TestAsFraction:
    """Coercion contract: Fraction passes through, int and 'p/q' convert, float is refused."""

    FLOAT_OPS = [
        lambda t: Series([F(1), 0.5], 2),
        lambda t: t + 0.5,
        lambda t: 0.5 + t,
        lambda t: t - 0.5,
        lambda t: 0.5 - t,
        lambda t: 0.5 * t,
        lambda t: t / 0.5,
        lambda t: 0.5 / (1 + t),
    ]

    @pytest.mark.parametrize("op", FLOAT_OPS)
    def test_float_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(Series.gen(2))

    def test_float_never_compares_equal(self):
        one = Series.one(2)
        with pytest.raises(TypeError):
            as_fraction(1.0)
        assert one.__eq__(1.0) is NotImplemented
        assert not one == 1.0
        assert one != 1.0

    def test_fraction_passes_through_unchanged(self):
        x = F(-7, 3)
        assert as_fraction(x) is x
        assert Series([x, 1], 1).coeffs[0] is x

    def test_ints_and_strings_convert(self):
        t = Series.gen(2)
        a = Series(["1/2", 3, "-4"], 2)
        assert a.coeffs == (F(1, 2), F(3), F(-4))
        assert all(type(c) is F for c in a.coeffs)
        assert t * "2/3" == Series([0, F(2, 3), 0], 2)
        assert t + "1/3" == Series([F(1, 3), 1, 0], 2)
        assert t / "3" == Series([0, F(1, 3), 0], 2)
        assert Series.one(2) == "1" and Series.one(2) == 1
        assert as_fraction("5/10") == F(1, 2) and as_fraction(4) == F(4)


class TestTranscendental:
    def test_sqrt_anchor(self):
        t = Series.gen(2)
        assert (1 + 2 * t).pow_rational(F(1, 2)) == Series([1, 1, F(-1, 2)], 2)

    def test_pow_rational_matches_binomial_sum(self):
        rng = random.Random(7)
        for _ in range(20):
            a = rand_series(rng, ORDER, const=1)
            e = F(rng.randint(-7, 7), rng.randint(1, 5))
            assert a.pow_rational(e) == binomial_pow(a, e, ORDER)

    def test_pow_rational_matches_integer_power(self):
        rng = random.Random(8)
        for _ in range(10):
            a = rand_series(rng, 6, const=1)
            for e in (-2, 3):
                assert a.pow_rational(e) == a ** e

    @given(unit_series())
    @settings(deadline=None, max_examples=40)
    def test_exp_log_round_trip(self, a):
        assert a.log().exp() == a

    @given(novanish_series())
    @settings(deadline=None, max_examples=40)
    def test_log_exp_round_trip(self, a):
        assert a.exp().log() == a

    @given(unit_series(), unit_series())
    @settings(deadline=None, max_examples=40)
    def test_log_turns_products_into_sums(self, a, b):
        assert (a * b).log() == a.log() + b.log()

    def test_power_addition_law(self):
        rng = random.Random(9)
        for _ in range(10):
            a = rand_series(rng, 6, const=1)
            p = F(rng.randint(-5, 5), rng.randint(1, 4))
            q = F(rng.randint(-5, 5), rng.randint(1, 4))
            assert a.pow_rational(p) * a.pow_rational(q) == a.pow_rational(p + q)

    def test_exp_matches_fraction_loop(self):
        rng = random.Random(42)
        for order in range(41):
            for _ in range(3):
                a = sparse_series(rng, order, 0)
                got = a.exp()
                assert got.coeffs == ref_exp(a)
                assert all(type(c) is F for c in got.coeffs)
        assert Series.zero(40).exp() == Series.one(40)

    def test_exp_numerators_match_the_per_m_weights(self):
        # dense, zero-heavy and all-negative exponents, as long as the order
        # reads (Series.exp) and one longer (the Euler kernel)
        rng = random.Random(16)
        draws = [lambda: rng.randint(-10 ** 6, 10 ** 6),
                 lambda: rng.choice((0, 0, 0, rng.randint(-99, 99))),
                 lambda: -rng.randint(1, 10 ** 4)]
        for order in range(41):
            for draw in draws:
                for extra in (1, 2):
                    a = [draw() for _ in range(order + extra)]
                    d = rng.randint(1, 50)
                    e0 = factorial(order) * d ** order
                    assert exp_numerators(a, d, order, e0) == ref_exp_numerators(a, d, order), \
                        (order, a, d)

    def test_domain_errors(self):
        t = Series.gen(3)
        with pytest.raises(ConstantTermError):
            (2 + t).log()
        with pytest.raises(ConstantTermError):
            (1 + t).exp()
        with pytest.raises(ConstantTermError):
            (2 + t).pow_rational(F(1, 2))


class TestRecurrencesMatchReferences:
    """Powers, logs and compositions each run one integer recurrence; every result and
    every error, its type and message, equals that of the Series chain it replaced."""

    @given(wide_series(head=heads), st.one_of(st.integers(-8, 64), st.sampled_from([0, -1, 1])))
    @example(Series.gen(3), 0)
    @example(Series.gen(3), -1)
    @example(Series.zero(4), 2)
    @example(Series.gen(5) ** 2, 3)
    @settings(deadline=None, max_examples=150)
    def test_power(self, a, e):
        assert outcome(lambda: a ** e) == outcome(lambda: ref_pow(a, e))

    @given(wide_series(head=st.sampled_from(["unit", "unit", "unit", "any"])),
           st.fractions(min_value=-40, max_value=40, max_denominator=6))
    @example(Series.one(0), F(1, 2))
    @example(Series([1, 2], 1), F(0))
    @settings(deadline=None, max_examples=150)
    def test_rational_power(self, a, e):
        assert outcome(lambda: a.pow_rational(e)) == outcome(lambda: ref_pow_rational(a, e))

    @given(wide_series(head=st.sampled_from(["unit", "unit", "unit", "any"])))
    @example(Series.one(0))
    @example(Series([2, 1], 1))
    @settings(deadline=None, max_examples=150)
    def test_log(self, a):
        assert outcome(a.log) == outcome(lambda: ref_log(a))

    @given(st.integers(0, 25).flatmap(
        lambda n: st.tuples(wide_series(n, heads), wide_series(n, st.sampled_from(
            ["zero", "zero", "zero", "any"])))))
    @settings(deadline=None, max_examples=150)
    def test_compose(self, pair):
        a, inner = pair
        assert outcome(lambda: a.compose(inner)) == outcome(lambda: ref_compose(a, inner))

    def test_error_paths(self):
        t = Series.gen(3)
        cases = [(lambda: t ** -2, ConstantTermError,
                  "cannot invert a series in t with zero constant term"),
                 (lambda: t ** F(1, 2), TypeError, "use pow_rational for non-integer exponents"),
                 (lambda: (2 + t).pow_rational(F(1, 3)), ConstantTermError,
                  "rational power needs constant term 1, got 2"),
                 (lambda: (1 + t).pow_rational(0.5), TypeError,
                  "float coefficients are not allowed; pass Fraction, int or 'p/q'"),
                 (lambda: (2 + t).log(), ConstantTermError, "log needs constant term 1, got 2"),
                 (lambda: t.compose(1 + t), CompositionError,
                  "inner series has constant term 1, expected 0"),
                 (lambda: t.compose(Series.gen(4)), OrderMismatchError,
                  "order mismatch: 3 (t) vs 4 (t); truncate explicitly"),
                 (lambda: t.compose(2), TypeError, "compose expects a Series")]
        refs = [lambda: ref_pow(t, -2), lambda: ref_pow(t, F(1, 2)),
                lambda: ref_pow_rational(2 + t, F(1, 3)), lambda: ref_pow_rational(1 + t, 0.5),
                lambda: ref_log(2 + t), lambda: ref_compose(t, 1 + t),
                lambda: ref_compose(t, Series.gen(4)), lambda: ref_compose(t, 2)]
        for (fn, kind, message), ref in zip(cases, refs):
            with pytest.raises(kind) as info:
                fn()
            assert str(info.value) == message
            assert outcome(fn) == outcome(ref)

    def test_each_builds_one_series(self, monkeypatch):
        # one integer pass and one Series._over each, no chain of Series operations
        rng = random.Random(36)
        a, y = rand_series(rng, 12, const=1), rand_series(rng, 12, const=0)
        built = []
        over = Series._over.__func__

        def counted(cls, den, nums, var):
            built.append(len(nums))
            return over(cls, den, nums, var)

        monkeypatch.setattr(Series, "_over", classmethod(counted))
        for fn in (lambda: a ** 7, lambda: a ** -3, lambda: y ** 2, lambda: a ** 0,
                   lambda: y ** 13, lambda: a.pow_rational(F(-5, 6)), a.log,
                   lambda: a.compose(y)):
            built.clear()
            fn()
            assert built == [13]

    def test_pow_numerators_remainder_raises(self):
        # 1 does not clear (1 + x)^(1/2) past x^0
        assert pow_numerators([1, 1], 1, 2, 2, 8) == [8, 4, -1]
        with pytest.raises(ArithmeticError, match=r"S_0 = 1 does not clear \[x\^1\]"):
            pow_numerators([1, 1], 1, 2, 2, 1)


def ref_exp_full_scale(a):
    """Series.exp at the scale it ran before it read the derivative's denominator:
    the exp recurrence over E_0 = order! d^order, d the series' own denominator."""
    if a.nums[0]:
        raise ConstantTermError("exp needs constant term 0, got %s" % a.coefficient(0))
    e = ref_exp_numerators(a.nums, a.den, a.order)
    return Series._over(e[0], e, a.var)


@st.composite
def log_like_series(draw):
    """The integral of a series with integer numerators over a small denominator, as a
    log substituted by Lagrange-Buermann is: its own denominator carries lcm(1..order)
    and its derivative's does not."""
    order = draw(st.integers(0, 40))
    delta = draw(st.sampled_from([1, 2, 3, 4, 12, 10 ** 20 + 39]))
    c = draw(st.lists(st.one_of(st.just(0), st.integers(-10 ** 30, 10 ** 30)),
                      min_size=order, max_size=order))
    return Series([0] + [F(x, k * delta) for k, x in enumerate(c, 1)], order)


class TestExpScale:
    """Series.exp at the derivative's denominator against the full-scale exp."""

    @given(st.one_of(log_like_series(), wide_series(head=st.sampled_from(["zero", "any"])),
                     novanish_series(), novanish_series(0)))
    @example(Series.zero(0))
    @example(Series.zero(30))
    @example(Series([0, F(1, 10 ** 40 + 7)], 1))
    @example(Series.one(3).log())
    @example((1 + Series.gen(25)).log())
    @settings(deadline=None, max_examples=200)
    def test_exp_is_the_full_scale_exp(self, a):
        assert outcome(a.exp) == outcome(lambda: ref_exp_full_scale(a))

    def test_catalog_logs(self):
        # a substituted factor log and a sum of them, as the catalog's holders exp them
        from hilbseries import catalog
        for order in (0, 1, 7, 30):
            logs = catalog._SegreLogs(1, order)
            for log in (logs[0][1], logs[3][1], logs[4][1], 3 * logs[1][1] - logs[2][1] / 2):
                assert raw(log.exp()) == raw(ref_exp_full_scale(log)), order

    def test_default_scale_is_order_factorial_times_delta_power(self):
        # a = x/6 + x^2/4 + x^3/3: a' = (1 + 3x + 6x^2)/6, so delta = 6, and E_0 = 3! 6^3
        a = [0, 2, 3, 4]
        assert exp_numerators(a, 12, 3)[0] == factorial(3) * 6 ** 3
        assert exp_numerators(a, 12, 3, factorial(3) * 12 ** 3) == \
            [8 * x for x in exp_numerators(a, 12, 3)]
        assert exp_numerators([0], 5, 0) == [1]

    def test_exp_numerators_remainder_raises(self):
        # exp(x) = 1 + x + x^2/2: E_0 = 1 clears x^1 but not x^2, at any d that scales x
        assert exp_numerators([0, 1], 1, 2) == [2, 2, 1]
        with pytest.raises(ArithmeticError, match=r"E_0 = 1 does not clear \[x\^2\]"):
            exp_numerators([0, 1], 1, 2, 1)
        with pytest.raises(ArithmeticError, match=r"E_0 = 1 does not clear \[x\^2\]"):
            exp_numerators([0, 7], 7, 2, 1)
        # delta = 3 at d = 6: one power of 3 short of 2! 3^2
        with pytest.raises(ArithmeticError, match=r"E_0 = 6 does not clear \[x\^2\]"):
            exp_numerators([0, 2], 6, 2, 6)


class TestCalculus:
    def test_derivative_drops_order(self):
        t = Series.gen(3)
        d = (t ** 2).derivative()
        assert d == Series([0, 2, 0], 2) and d.order == 2

    def test_integral_then_derivative(self):
        # the antiderivative the log reference reads
        rng = random.Random(10)
        a = rand_series(rng, 6)
        assert ref_integral(a).derivative() == a

    def test_leibniz(self):
        rng = random.Random(11)
        for _ in range(10):
            a, b = rand_series(rng, 6), rand_series(rng, 6)
            lhs = (a * b).derivative()
            rhs = a.derivative() * b.truncate(5) + a.truncate(5) * b.derivative()
            assert lhs == rhs


class TestComposition:
    def test_geometric_composition(self):
        geo = Series([1] * 7, 6)  # 1/(1-t)
        b = Series.gen(6) * 2
        expect = Series([2 ** k for k in range(7)], 6)
        assert geo.compose(b) == expect

    def test_inner_constant_term_rejected(self):
        a = Series.gen(3)
        with pytest.raises(CompositionError):
            a.compose(1 + a)

    def test_revert_anchor(self):
        t = Series.gen(3)
        z = t * (1 + 2 * t) ** 2
        assert z.revert() == Series([0, 1, -4, 28], 3)

    def test_revert_matches_undetermined_coefficients(self):
        rng = random.Random(12)
        for _ in range(15):
            a = rand_series(rng, ORDER, const=0)
            while a.coeffs[1] == 0:
                a = rand_series(rng, ORDER, const=0)
            assert a.revert() == revert_undetermined(a)

    def test_revert_matches_newton(self):
        rng = random.Random(18)
        for order in range(1, 21):
            for _ in range(4):
                a = rand_series(rng, order, const=0)
                if not a.nums[1]:
                    a = a + Series.gen(order)
                assert raw(a.revert()) == raw(ref_revert(a)), a

    @given(novanish_series())
    @settings(deadline=None, max_examples=40)
    def test_revert_round_trips_both_ways(self, a):
        if a.coeffs[1] == 0:
            return
        b = a.revert()
        ident = Series.gen(a.order)
        assert a.compose(b) == ident
        assert b.compose(a) == ident

    @given(wide_series(), st.one_of(
        st.integers(-9, 9), st.integers(-10 ** 40, 10 ** 40),
        st.sampled_from([2 ** 44, -6 ** 20, 12 ** 15, -(30 ** 12), 7 ** 9 * 2])))
    @example(Series.one(0), 1)
    @example(Series.gen(1), 0)
    @example(Series([0, F(1, 2 ** 44), F(1, 3), 5], 3), 2 ** 44)
    @settings(deadline=None, max_examples=150)
    def test_revert_matches_the_scaled_revert(self, a, a1):
        # a_1 = 0 and order 0 raise the same error; a non-monic or negative a_1 and
        # numerators over a large denominator give the same series
        nums = [0] + list(a.nums[1:])
        if a.order:
            nums[1] = a1
        a = Series._over(a.den, nums, a.var)
        assert outcome(a.revert) == outcome(lambda: ref_revert_scaled(a))

    @given(st.lists(st.tuples(st.integers(1, 10 ** 6), st.integers(1, 6)), max_size=6))
    def test_least_cover_clears_every_pair(self, pairs):
        mu = _least_cover(pairs)
        assert all(mu ** k % d == 0 for d, k in pairs)
        assert lcm(1, *(d for d, _ in pairs)) % mu == 0

    def test_revert_contract(self):
        t = Series.gen(4)
        with pytest.raises(ReversionError):
            (1 + t).revert()
        with pytest.raises(ReversionError):
            (t ** 2).revert()


class TestSolveAlgebraic:
    # y (1+y)^2 (1+3t) = t (1-y)(1-y^3), the simple branch through 0
    QUARTIC = {(0, 1): -1, (1, 0): 1, (1, 1): 4, (2, 0): 2,
               (2, 1): 6, (3, 0): 1, (3, 1): 4, (4, 1): -1}

    def test_branch_anchor(self):
        y = solve_algebraic(self.QUARTIC, 5)
        assert y == Series([0, 1, -6, 41, -314, 2630], 5)

    def test_agrees_with_reversion_route(self):
        # independent route: expand the rational map u(y) = y(1+y)^2/((1-y)(1-y^3)),
        # revert it, then substitute u = t/(1+3t)
        n = 10
        yv = Series.gen(n, "y")
        u_of_y = yv * (1 + yv) ** 2 * ((1 - yv) * (1 - yv ** 3)).inverse()
        y_of_u = u_of_y.revert()
        t = Series.gen(n)
        u_of_t = t * (1 + 3 * t).inverse()
        assert solve_algebraic(self.QUARTIC, n) == y_of_u.compose(u_of_t)

    def test_residual_is_zero(self):
        n = 12
        y = solve_algebraic(self.QUARTIC, n)
        t = Series.gen(n)
        lhs = y * (1 + y) ** 2 * (1 + 3 * t)
        rhs = t * (1 - y) * (1 - y ** 3)
        assert lhs == rhs

    @pytest.mark.parametrize("relation", [QUARTIC, {(0, 1): -1, (1, 0): 1, (1, 1): 1,
                                                    (2, 0): 2, (3, 0): 1, (3, 1): 1,
                                                    (4, 1): -1}], ids=["rank2", "twist3"])
    def test_catalog_relations_match_newton(self, relation):
        for order in range(61):
            assert raw(solve_algebraic(relation, order)) == \
                raw(ref_solve_algebraic(relation, order)), order

    def test_random_relations_match_newton(self):
        # the reference at order 25 read at every lower order by truncation, and
        # once in full at a drawn order
        rng = random.Random(18)
        for _ in range(300):
            relation = random_relation(rng)
            ref = ref_solve_algebraic(relation, 25, "s")
            for order in range(26):
                got = solve_algebraic(relation, order, "s")
                assert raw(got) == raw(ref.truncate(order)), (relation, order)
            order = rng.randint(0, 25)
            assert raw(solve_algebraic(relation, order)) == \
                raw(ref_solve_algebraic(relation, order)), (relation, order)

    def test_string_coefficients_and_explicit_zeros(self):
        relation = {(0, 0): "0", (0, 1): "-1/2", (1, 0): "3", (2, 1): F(0), (2, 0): "5/7"}
        assert raw(solve_algebraic(relation, 12)) == raw(ref_solve_algebraic(relation, 12))

    def test_degenerate_branches_rejected(self):
        with pytest.raises(BranchError):
            solve_algebraic({(0, 0): 1, (1, 0): 1}, 4)
        with pytest.raises(BranchError):
            solve_algebraic({(2, 0): 1, (0, 1): -1}, 4)
