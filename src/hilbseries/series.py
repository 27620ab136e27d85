"""Truncated power series with exact rational coefficients.

Every series carries an explicit truncation order: a :class:`Series` of
order ``n`` stands for a power series known modulo ``x^(n+1)``.  It is
stored as integer numerators ``nums[0..n]`` over one positive
denominator ``den``, in lowest terms (``gcd(den, *nums) == 1``), so
equal series store equal integers.  Arithmetic reads and writes those
integers only; ``coefficient`` and ``coeffs`` build the
`fractions.Fraction` values on request.  Floats are rejected so nothing
ever leaves exact arithmetic.  Inverse, exp, log, integer and rational powers
and composition each run one coefficient recurrence on the numerators, in
integers, and build one series at the end: exp by `exp_numerators`, scaled by the
denominator of the exponent's derivative, powers by Miller's recurrence,
`pow_numerators`, log by a L' = a', and composition by Horner's rule on integer
rows.  `solve_algebraic` reads a branch's coefficients one by one off a linear
recurrence in integers.

Binary operations insist that both operands carry the same truncation
order.  Silently taking the minimum hides bookkeeping bugs in long
computations, so precision drops only at explicit ``truncate`` calls.
Compositional structure follows the same discipline: ``compose`` and
``revert`` demand the substituted series vanish at the origin, rational
powers demand constant term 1, and violations raise typed errors instead
of producing garbage coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul

__all__ = [
    "Series",
    "SeriesError",
    "OrderMismatchError",
    "ConstantTermError",
    "CompositionError",
    "ReversionError",
    "BranchError",
    "exp_numerators",
    "pow_numerators",
    "solve_algebraic",
]


class SeriesError(ValueError):
    """Base class for truncated-series contract violations."""


class OrderMismatchError(SeriesError):
    """Binary operation attempted on series of different truncation orders."""


class ConstantTermError(SeriesError):
    """Constant term violates the precondition of the requested operation."""


class CompositionError(SeriesError):
    """Inner series of a composition has a nonzero constant term."""


class ReversionError(SeriesError):
    """Series cannot be reverted: needs a(0) = 0 and a'(0) != 0."""


class BranchError(SeriesError):
    """Algebraic equation has no unique simple series branch through the origin."""


def as_fraction(x):
    """Coerce x to Fraction, rejecting floats to keep arithmetic exact."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("float coefficients are not allowed; pass Fraction, int or 'p/q'")
    return Fraction(x)


def _ratio(x):
    """(numerator, denominator) of an exact scalar; ints and Fractions build nothing."""
    x = x if isinstance(x, (int, Fraction)) else as_fraction(x)
    return x.numerator, x.denominator


class Series:
    """A power series truncated at a fixed order, over exact rationals.

    >>> t = Series.gen(3)
    >>> (1 + 2 * t).pow_rational(Fraction(1, 2)).truncate(2)
    1 + t - 1/2*t^2 + O(t^3)

    Instances are treated as immutable.  Coefficient k is ``nums[k] / den``.
    The variable name is carried along for readable errors and printing;
    it does not participate in equality.
    """

    def __init__(self, coeffs, order=None, var="t"):
        coeffs = [as_fraction(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) > order + 1:
            raise ValueError("got %d coefficients but order %d allows at most %d"
                             % (len(coeffs), order, order + 1))
        coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        self.coeffs = tuple(coeffs)  # as given; operation results build theirs on first read
        # the lcm of reduced denominators leaves the numerators coprime to it
        self.den = lcm(*(c.denominator for c in coeffs))
        self.nums = tuple(c.numerator * (self.den // c.denominator) for c in coeffs)
        self.order = order
        self.var = var

    @classmethod
    def _over(cls, den, nums, var):
        """The series sum_k nums[k]/den var^k, in lowest terms with den > 0."""
        if not nums:
            raise ValueError("truncation order must be >= 0")
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        out = cls.__new__(cls)
        out.den = den // g
        out.nums = tuple(x // g for x in nums) if g != 1 else tuple(nums)
        out.order = len(out.nums) - 1
        out.var = var
        return out

    @cached_property
    def coeffs(self):
        return tuple(Fraction(x, self.den) for x in self.nums)

    @classmethod
    def zero(cls, order, var="t"):
        return cls._over(1, [0] * (order + 1), var)

    @classmethod
    def one(cls, order, var="t"):
        return cls._over(1, [int(k == 0) for k in range(order + 1)], var)

    @classmethod
    def gen(cls, order, var="t"):
        """The variable itself, truncated at ``order``."""
        return cls._over(1, [int(k == 1) for k in range(order + 1)], var)

    def coefficient(self, n):
        """Coefficient of var^n; n must not exceed the truncation order."""
        if not 0 <= n <= self.order:
            raise IndexError("coefficient %d of a series of order %d" % (n, self.order))
        return Fraction(self.nums[n], self.den)

    def is_zero(self):
        return not any(self.nums)

    def truncate(self, order):
        """Drop coefficients above ``order``; extension is never allowed."""
        if order > self.order:
            raise ValueError("cannot extend a series of order %d to order %d"
                             % (self.order, order))
        return Series._over(self.den, self.nums[:max(order + 1, 0)], self.var)

    def shift(self, k):
        """Multiply by var**k.  Negative k demands the low coefficients vanish.

        The truncation order moves with the shift, so dividing out an
        explicit zero (for instance forming y/t from y with y(0) = 0)
        costs one order of precision, visibly.
        """
        if k >= 0:
            return Series._over(self.den, (0,) * k + self.nums, self.var)
        if self.order + k < 0:
            raise ValueError("shift below order 0")
        if any(self.nums[:-k]):
            raise ConstantTermError("cannot divide by %s^%d: low-order terms present"
                                    % (self.var, -k))
        return Series._over(self.den, self.nums[-k:], self.var)

    def _require_same_order(self, other):
        if self.order != other.order:
            raise OrderMismatchError(
                "order mismatch: %d (%s) vs %d (%s); truncate explicitly"
                % (self.order, self.var, other.order, other.var))

    # arithmetic; scalars act as constant series of the same order

    def __add__(self, other):
        if isinstance(other, Series):
            self._require_same_order(other)
            da, db = self.den, other.den
            return Series._over(da * db, [a * db + b * da for a, b in zip(self.nums, other.nums)],
                                self.var)
        p, q = _ratio(other)
        return self + Series._over(q, [p] + [0] * self.order, self.var)

    __radd__ = __add__

    def __neg__(self):
        return Series._over(self.den, [-a for a in self.nums], self.var)

    def __sub__(self, other):
        return -(-self + other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            p, q = _ratio(other)
            return Series._over(q * self.den, [p * a for a in self.nums], self.var)
        self._require_same_order(other)
        n = self.order
        a, b = self.nums, other.nums[::-1]
        out = [sum(map(mul, a[:k + 1], b[n - k:])) for k in range(n + 1)]
        return Series._over(self.den * other.den, out, self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.inverse()
        p, q = _ratio(other)
        if not p:
            raise ZeroDivisionError("series divided by zero")
        return Series._over(p * self.den, [q * a for a in self.nums], self.var)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        """Integer powers, by one pass of ``pow_numerators``; rational exponents go
        through pow_rational.  With a = t^v b and b(0) != 0, a^e = t^(ve) b^e; a
        negative power needs a(0) != 0."""
        if not isinstance(e, int):
            raise TypeError("use pow_rational for non-integer exponents")
        n, a = self.order, self.nums
        if e == 0:
            return Series.one(n, self.var)
        if e < 0 and not a[0]:
            raise ConstantTermError("cannot invert a series in %s with zero constant term"
                                    % self.var)
        v = next((k for k, x in enumerate(a) if x), n + 1)
        if v * e > n:
            return Series.zero(n, self.var)
        m = n - v * e
        if e > 0:  # the powers of the integer numerators are integers
            out = pow_numerators(a[v:v + m + 1], e, 1, m, a[v] ** e)
            return Series._over(self.den ** e, [0] * (v * e) + out, self.var)
        # a_0^(n-e) a^e has integer coefficients to x^n
        out = pow_numerators(a, e, 1, n, a[0] ** n)
        return Series._over(a[0] ** (n - e), [x * self.den ** -e for x in out], self.var)

    def inverse(self):
        """Multiplicative inverse; the constant term must be nonzero."""
        if not self.nums[0]:
            raise ConstantTermError("cannot invert a series in %s with zero constant term"
                                    % self.var)
        # a = A/D, so 1/a = D/A; [x^n] 1/A = B_n / A_0^(n+1) with B_0 = 1 and
        # B_n = -sum_(k=1..n) A_k A_0^(k-1) B_(n-k), all integers
        n, a = self.order, self.nums
        powers = [a[0] ** k for k in range(n + 2)]
        c = list(map(mul, a[1:], powers))
        b = [1]
        for _ in range(n):
            b.append(-sum(map(mul, c, reversed(b))))
        return Series._over(powers[-1], [self.den * x * powers[n - k] for k, x in enumerate(b)],
                            self.var)

    def derivative(self):
        """Formal derivative; the truncation order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate a series of order 0")
        return Series._over(self.den, [k * self.nums[k] for k in range(1, self.order + 1)],
                            self.var)

    def log(self):
        """Series logarithm L, requires constant term 1: a L' = a' on the numerators a
        over D gives D k l_k = k a_k - sum_(0<j<k) a_j (k-j) l_(k-j), and k D^order l_k
        is an integer, so one pass writes L over lcm(1..order) D^order."""
        if self.nums[0] != self.den:
            raise ConstantTermError("log needs constant term 1, got %s" % self.coefficient(0))
        n, a, d = self.order, self.nums, self.den
        scale = d ** n
        m = [0]  # m_k = k D^n l_k
        for k in range(1, n + 1):
            q, rem = divmod(k * a[k] * scale - sum(map(mul, a[1:k], m[:0:-1])), d)
            if rem:
                raise ArithmeticError("D^%d does not clear [x^%d] of the log" % (n, k))
            m.append(q)
        den = lcm(*range(1, n + 1))
        return Series._over(den * scale, [0] + [x * (den // k) for k, x in enumerate(m[1:], 1)],
                            self.var)

    def exp(self):
        """Series exponential; requires constant term 0.  One pass of ``exp_numerators``
        at its default scale, set by the derivative's denominator: a log substituted by
        Lagrange-Buermann carries lcm(1..order) in its own denominator but not there."""
        if self.nums[0]:
            raise ConstantTermError("exp needs constant term 0, got %s" % self.coefficient(0))
        e = exp_numerators(self.nums, self.den, self.order)
        return Series._over(e[0], e, self.var)

    def pow_rational(self, e):
        """Rational power a^(p/q), by one pass of ``pow_numerators``; the constant term
        must be 1.  Each step divides by k q D, so q^n n! D^n clears every coefficient."""
        if self.nums[0] != self.den:
            raise ConstantTermError("rational power needs constant term 1, got %s"
                                    % self.coefficient(0))
        p, q = _ratio(e)
        n = self.order
        out = pow_numerators(self.nums, p, q, n, q ** n * factorial(n) * self.den ** n)
        return Series._over(out[0], out, self.var)

    def compose(self, inner):
        """Substitute ``inner`` for the variable; inner constant term must be 0.

        Horner on integer rows: with self = a/D and inner = b/E, out = out b + a_k E^(n-k)
        from k = n down gives sum_k a_k b^k E^(n-k) over D E^n.  The row of step k is later
        multiplied by b^k, of valuation >= k, so it is kept to x^(n-k) only."""
        if not isinstance(inner, Series):
            raise TypeError("compose expects a Series")
        self._require_same_order(inner)
        if inner.nums[0]:
            raise CompositionError("inner series has constant term %s, expected 0"
                                   % inner.coefficient(0))
        n, a, b = self.order, self.nums, inner.nums
        out, scale = [a[n]], 1
        for k in range(n - 1, -1, -1):
            scale *= inner.den
            out = [a[k] * scale] + [sum(map(mul, b[1:c + 1], out[c - 1::-1]))
                                    for c in range(1, n - k + 1)]
        return Series._over(self.den * scale, out, inner.var)

    def revert(self):
        """Compositional inverse b with self(b(x)) = x: the branch through the
        origin of self(y) = x, read by ``solve_algebraic``.

        With b_i = a_i / a_1 and mu = ``_least_cover`` of the pairs (den b_i, i - 1),
        y = mu Y(x / (a_1 mu)) turns self(y) = x into Y + sum_(i>=2) b_i mu^(i-1) Y^i = T,
        with integer coefficients, whose root Y_n = y_n a_1^n mu^(n-1) stays near the
        size of y_n.

        Requires a(0) = 0 and a'(0) != 0.  The result lives in the same
        variable name; callers relabel if they care.
        """
        if self.order < 1 or self.nums[0] or not self.nums[1]:
            raise ReversionError("reversion needs a(0) = 0 and a'(0) != 0 at order >= 1")
        n, a, a1 = self.order, self.nums, self.nums[1]
        mu = _least_cover([(abs(a1) // gcd(a1, x), i - 1) for i, x in enumerate(a) if i > 1])
        relation = {(i, 0): x * mu ** (i - 1) // a1 for i, x in enumerate(a) if x}
        relation[0, 1] = -1
        y = solve_algebraic(relation, n, self.var).nums  # over 1, since T has coefficient 1
        g = gcd(a1, self.den)
        p, q = a1 // g * mu, self.den // g
        # y_k = mu Y_k / (a_1 mu)^k, over (a_1's reduced numerator mu)^n
        return Series._over(p ** n, [x * mu * q ** k * p ** (n - k) for k, x in enumerate(y)],
                            self.var)

    def __eq__(self, other):
        if isinstance(other, Series):
            return (self.order, self.den, self.nums) == (other.order, other.den, other.nums)
        try:
            p, q = _ratio(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.nums[0] * q == p * self.den and not any(self.nums[1:])

    __hash__ = None

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
                continue
            unit = self.var if k == 1 else "%s^%d" % (self.var, k)
            if c == 1:
                terms.append("+ " + unit)
            elif c == -1:
                terms.append("- " + unit)
            elif c > 0:
                terms.append("+ %s*%s" % (c, unit))
            else:
                terms.append("- %s*%s" % (-c, unit))
        if not terms:
            body = "0"
        else:
            body = " ".join(terms)
            if body.startswith("+ "):
                body = body[2:]
        return "%s + O(%s^%d)" % (body, self.var, self.order + 1)


def exp_numerators(a, d, order, e0=None):
    """E_0..E_order with exp(sum_k a_k x^k / d) = sum_m E_m x^m / E_0, E_0 = e0, which
    must clear every coefficient to x^order.  a_0 is not read.  With b_k = (k+1) a_(k+1)
    and g = gcd(d, b_0, ..., b_(order-1)), delta = d / g is the denominator of the
    exponent's derivative, and e' = a' e gives (m+1) delta E_(m+1) = sum_(k<=m) (b_k / g)
    E_(m-k), so by induction m! delta^m [x^m] exp is an integer: order! delta^order, the
    default e0, clears every coefficient.  A remainder in the division means e0 does
    not clear [x^(m+1)] and raises ArithmeticError."""
    b = list(map(mul, range(1, order + 1), a[1:order + 1]))
    g = gcd(d, *b)
    if g != 1:
        d, b = d // g, [x // g for x in b]
    if e0 is None:
        e0 = factorial(order) * d ** order
    e = [e0]
    for m in range(order):
        q, rem = divmod(sum(map(mul, b, reversed(e))), (m + 1) * d)
        if rem:
            raise ArithmeticError("E_0 = %d does not clear [x^%d] of the exp" % (e0, m + 1))
        e.append(q)
    return e


def pow_numerators(a, p, q, order, e0):
    """S_0..S_order with (sum_k a_k x^k / a_0)^(p/q) = sum_k S_k x^k / S_0, S_0 = e0, which
    must clear every coefficient to x^order; a_0 != 0 and q > 0.  P = a^e has a P' = e a' P,
    J.C.P. Miller's recurrence: k q a_0 S_k = sum_(0<j<=k) ((p+q) j - k q) a_j S_(k-j).  A
    remainder in that division means e0 does not clear [x^k] and raises ArithmeticError."""
    a = a[:max((k for k, x in enumerate(a[:order + 1]) if x), default=0) + 1]  # a binomial reads 2
    b = list(map(mul, range(order + 1), a))  # j a_j
    s = [e0]
    for k in range(1, order + 1):
        low = s[::-1]  # S_(k-1), ..., S_0
        total = (p + q) * sum(map(mul, b[1:k + 1], low)) - k * q * sum(map(mul, a[1:k + 1], low))
        quo, rem = divmod(total, k * q * a[0])
        if rem:
            raise ArithmeticError("S_0 = %d does not clear [x^%d] of the power" % (e0, k))
        s.append(quo)
    return s


def _least_cover(pairs):
    """The least mu with d | mu^k for every (d, k >= 1) in pairs, among the products of
    powers of a coprime base of the d's, which gcds alone find: no d is factored."""
    base, todo = [], [d for d, _ in pairs if d > 1]
    while todo:  # each split lowers the product of base and todo, so this ends
        x = todo.pop()
        for i, e in enumerate(base):
            g = gcd(x, e)
            if g > 1:
                del base[i]
                todo += [z for z in (x // g, e // g, g) if z > 1]
                break
        else:
            base.append(x)
    mu = 1
    for e in base:
        need = 0
        for d, k in pairs:
            v = 0
            while d % e == 0:
                d, v = d // e, v + 1
            need = max(need, -(-v // k))
        mu *= e ** need
    return mu


def solve_algebraic(relation, order, var="t"):
    """Unique series root y with y(0) = 0 of a polynomial P(y, t) = 0.

    ``relation`` maps (i, j) to the rational coefficient of y^i t^j.  The
    branch through the origin must be simple: P(0,0) = 0 and c = dP/dy(0,0)
    nonzero.  Then [t^n] P(y, t) = 0 is linear in y_n, whose other terms
    read y_1..y_(n-1) only, through running coefficient lists of y^2, y^3,
    ...  With P's denominators cleared, y = c Y(t/c^2) has integer
    coefficients Y_n.  The residual is rechecked before returning.
    """
    rel = {k: _ratio(v) for k, v in relation.items()}
    rel = {k: (p, q) for k, (p, q) in rel.items() if p}
    if (0, 0) in rel:
        raise BranchError("P(0,0) must vanish for a branch through the origin")
    if (1, 0) not in rel:
        raise BranchError("dP/dy(0,0) vanishes: branch through the origin is not simple")
    m = lcm(*(q for _, q in rel.values()))
    c = rel[1, 0][0] * (m // rel[1, 0][1])
    # m P(c Y, c^2 s) / c^2: integer coefficients m c_ij c^(i+2j-2), that of Y alone 1
    rows = [[0] * (order + 1) for _ in range(max(i for i, _ in rel) + 1)]
    for (i, j), (p, q) in rel.items():
        if j <= order:
            rows[i][j] = p * (m // q) * c ** (i + 2 * j - 1) // c
    powers = [[int(n == 0) for n in range(order + 1)]] + [[0] * (order + 1) for _ in rows[1:]]
    y = powers[1]  # Y, then Y^2, Y^3, ...: [s^n] Y^i reads Y_1..Y_(n-i+1)
    terms = [(row[j], powers[i], j) for i, row in enumerate(rows)
             for j in range(order + 1) if row[j] and (i, j) != (1, 0)]
    for n in range(1, order + 1):
        for low, high in zip(powers[1:n], powers[2:n + 1]):  # Y^i is O(s^i)
            high[n] = sum(map(mul, y[1:n], low[n - 1:0:-1]))
        y[n] = -sum(a * power[n - j] for a, power, j in terms if j <= n)
    residual = rows[-1]
    for row in reversed(rows[:-1]):
        residual = [sum(map(mul, residual[:k], y[k:0:-1])) + a for k, a in enumerate(row)]
    if any(residual):
        raise BranchError("the coefficient recurrence left a nonzero residual")  # pragma: no cover
    return Series._over(c ** (2 * order), [x * c ** (2 * (order - n) + 1) for n, x in enumerate(y)],
                        var)
