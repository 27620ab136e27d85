"""Equivariant fixed-point oracle on toric surfaces.

Computes tautological Segre and Chern integrals over Hilbert schemes of
points, and holomorphic Euler characteristics of tautological line
bundles, by localization at torus-fixed points, in exact arithmetic in
the two torus characters.

Conventions (fixed once, validated by anchors in the test suite): at the
chart of a smooth cone spanned by rays v, v' the coordinate characters
u1, u2 are the dual basis (so the lattice-point generating function of a
polytope is the sum of vertex terms x^m / prod(1 - x^(u_i))), tangent
characters are -u1, -u2, and the equivariant lift of O(sum d_i D_i) is
the character m with <m, v_i> = -d_i.  A box in column c, row s of a
partition carries the monomial character c u1 + s u2.

A fixed point of S^[n] is one partition (monomial ideal) per chart, of
total size n, and its tangent and tautological weights are the union of
per-chart weights.  Both integrands are products over those weights, so
the sum over the fixed points of S^[n] is [x^n] of the product over the
charts of sum_lambda x^|lambda| g(lambda), |lambda| <= N, and no fixed
point is ever built.  g is a series in u over the tangent weights, read
at u^2n: the Segre class prod (1+ku)^(-sign) (Chern is Segre of the
negated class), or by Hirzebruch-Riemann-Roch ch(det) td = e^(au) prod
td(ku) (Verlinde: det of L + (r-1) O, L and one trivial term of weight
r-1).  A class enters as its surface, its terms' weights and per-chart
lifts (EqKClass.signed_lifts).  One chart pass serves every n <= N and a
batch of classes on any of the surfaces, one chart product per surface
(segre_series, verlinde_series), whose kernels are prepared once per
chart and direction.  Each partition comes after its parent, itself
without the last box of its last row, and its Segre term is the parent's
times that box's factors.  The Euler exponent is a = |lambda| m + r B, B
the sum of the boxes, so a Verlinde batch on one surface, whose classes
share r, runs one Todd exp per partition, at E_0 = M_2N, Hirzebruch's
denominator of the Todd polynomial T_2N, which clears every coefficient
and which a remainder check enforces: a class whose lift at a chart is
delta more than the first's has the first's chart sum at x -> x e^(delta
u).  The chart sums are multiplied with each u-row packed into one
integer.

Two closed-form directions serve every request (_directions): q = (1, B)
and (1, B + 1), B = max(n, 2), which keep every tangent weight of every
fixed point of S^[n] nonzero on these surfaces; a direction that zeroes
one raises in _chart_product.  Values are computed at both directions and
must agree, and one integer read serves every kind (_values): each
coefficient below u^2n is a pole that must cancel, and the integral must
be an integer.  Any violation raises, loudly, instead of returning data.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction as F
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from operator import lshift, mul

from .series import Series

__all__ = [
    "EqKClass",
    "ToricSurface",
    "chern_integral",
    "enumerate_fixed_points",
    "get_surface",
    "parse_class",
    "parse_int",
    "partitions",
    "segre_integral",
    "segre_series",
    "surface_names",
    "tangent_weights",
    "taut_weights",
    "verlinde_chi",
    "verlinde_series",
]

def _dot(vec, q):
    return vec[0] * q[0] + vec[1] * q[1]


def _vadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _vscale(c, a):
    return (c * a[0], c * a[1])


@lru_cache(maxsize=None)
def partitions(n, max_part=None):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for head in range(max_part, 0, -1):
        for tail in partitions(n - head, head):
            out.append((head,) + tail)
    return tuple(out)


class ToricSurface:
    """A smooth projective toric surface given by its cyclically ordered fan.

    ``generators`` expresses a basis of line-bundle classes in ray
    divisors; ``pairing`` is their intersection matrix, ``k_dot`` their
    intersections with the canonical class.  At construction these, chi_O
    and ``ksq`` are checked through the chart pass at n = 1, by
    Riemann-Roch and Noether's formula (_validate).
    """

    def __init__(self, name, rays, generators, pairing, k_dot, ksq):
        self.name = name
        self.rays = [tuple(v) for v in rays]
        self.generators = [tuple(g) for g in generators]
        self.pairing = [list(row) for row in pairing]
        self.k_dot = list(k_dot)
        self.ksq = ksq
        self.chi_O = 1
        self.charts = []
        count = len(self.rays)
        for i in range(count):
            v = self.rays[i]
            w = self.rays[(i + 1) % count]
            det = v[0] * w[1] - v[1] * w[0]
            if det not in (1, -1):
                raise ValueError("cone (%s, %s) is not smooth" % (v, w))
            u1 = (det * w[1], -det * w[0])
            u2 = (-det * v[1], det * v[0])
            self.charts.append((i, (i + 1) % count, u1, u2))
        self._validate()

    def lift(self, coeffs):
        """Per-chart characters of O(sum coeffs_g G_g); <m, v_i> = -d_i."""
        d = [0] * len(self.rays)
        for c, gen in zip(coeffs, self.generators):
            for i, gi in enumerate(gen):
                d[i] += c * gi
        out = []
        for i, j, u1, u2 in self.charts:
            out.append(_vadd(_vscale(-d[i], u1), _vscale(-d[j], u2)))
        return tuple(out)

    def tangent_chars(self, chart_index):
        _, _, u1, u2 = self.charts[chart_index]
        return _vscale(-1, u1), _vscale(-1, u2)

    def pair(self, a, b):
        return sum(a[i] * self.pairing[i][j] * b[j]
                   for i in range(len(a)) for j in range(len(b)))

    def _validate(self):
        """Check the tables through the chart pass at n = 1, where S^[1] = S: the Segre
        integral of O(G_i) and O(G_i + G_j), i < j, is c1^2, and twice its chi is
        2 chi(O) + c1^2 - c1.K (Riemann-Roch); with Noether's 12 chi(O) = K^2 + e, e
        one fixed point per chart, these fix every entry of the tables given chi_O."""
        zero = (0,) * len(self.generators)
        units = [zero] + [zero[:i] + (1,) + zero[i + 1:] for i in range(len(zero))]
        classes = [EqKClass(self, [(1, tuple(map(sum, zip(a, b))))])
                   for a, b in itertools.combinations(units, 2)]
        found = [(s[1], 2 * chi[1]) for s, chi in
                 zip(segre_series(classes, 1), verlinde_series(classes, 1, 1))]
        tables = [(c.c1sq, 2 * self.chi_O + c.c1sq - c.c1K) for c in classes]
        if found != tables or 12 * self.chi_O != self.ksq + len(self.charts):
            raise ArithmeticError("%s: localized (c1^2, 2 chi) %s of %s and Noether's "
                                  "12 chi(O) = K^2 + %d disagree with the tables"
                                  % (self.name, found, classes, len(self.charts)))

    def __repr__(self):
        return "ToricSurface(%r)" % self.name


def _directions(n):
    """The oracle's two directions for S^[n]: (1, B) and (1, B + 1), B = max(n, 2).

    Any direction that keeps every tangent weight nonzero gives the same exact
    integral, so no search is needed.  On p2, p1xp1 and f1 every tangent
    character pairs with (1, B) to +-1, +-B or +-(B +- 1), so no hook relation
    (a + 1) x = l y or a x = (l + 1) y with a + l + 1 <= n holds once B >= n;
    B = 1 fails on p2 at n = 1, hence the max.  _chart_pass evaluates at
    both and compares them with _agreed.
    """
    b = max(n, 2)
    return [(1, b), (1, b + 1)]


def _agreed(directions, what, first, second):
    if first != second:
        raise ArithmeticError(
            "directions %s disagree on %s: %s vs %s" % (directions, what, first, second))
    return first


# name: (rays, generators, pairing, k_dot, ksq)
_FANS = {
    "p2": ([(1, 0), (0, 1), (-1, -1)], [(1, 0, 0)], [[1]], [-3], 9),
    "p1xp1": ([(1, 0), (0, 1), (-1, 0), (0, -1)], [(1, 0, 0, 0), (0, 1, 0, 0)],
              [[0, 1], [1, 0]], [-2, -2], 8),
    # generators: the fiber class and the exceptional (-1)-curve
    "f1": ([(1, 0), (0, 1), (-1, 1), (0, -1)], [(1, 0, 0, 0), (0, 1, 0, 0)],
           [[0, 1], [1, -1]], [-2, -1], 8),
}


@lru_cache(maxsize=None)
def _surface(name):
    return ToricSurface(name, *_FANS[name])


def surface_names():
    return sorted(_FANS)


def get_surface(name):
    try:
        return _surface(name.lower())
    except KeyError:
        raise KeyError("unknown surface %r; choose from %s"
                       % (name, ", ".join(surface_names())))


class EqKClass:
    """Signed sum of equivariantly lifted line bundles on a toric surface.

    Terms are (sign, generator coefficients); Chern data of the K-theory
    class is accumulated by the Whitney formula term by term.
    """

    def __init__(self, surface, terms):
        if not terms:
            raise ValueError("a class needs at least one term")
        self.surface = surface
        self.terms = [(1 if sign >= 0 else -1, tuple(coeffs)) for sign, coeffs in terms]
        gens = len(surface.generators)
        c1 = [0] * gens
        c2 = 0
        for sign, coeffs in self.terms:
            if sign > 0:
                c2 += surface.pair(c1, coeffs)
                c1 = [a + b for a, b in zip(c1, coeffs)]
            else:
                c1 = [a - b for a, b in zip(c1, coeffs)]
                c2 += -surface.pair(c1, coeffs)
        self.rank = sum(sign for sign, _ in self.terms)
        self.c1 = tuple(c1)
        self.c1sq = surface.pair(c1, c1)
        self.c2 = c2
        self.c1K = sum(a * k for a, k in zip(c1, surface.k_dot))

    def signed_lifts(self):
        """Per term (its sign, its per-chart lift): the class as the chart pass reads it."""
        return [(sign, self.surface.lift(coeffs)) for sign, coeffs in self.terms]

    def spec(self):
        """The parseable form of this class, inverse to parse_class."""
        parts = []
        for i, (sign, coeffs) in enumerate(self.terms):
            text = "O(%s)" % ",".join(str(c) for c in coeffs)
            if sign < 0:
                parts.append("-" + text)
            elif i:
                parts.append("+" + text)
            else:
                parts.append(text)
        return "".join(parts)

    def __repr__(self):
        return "EqKClass(%s, %s)" % (self.surface.name, self.spec())


_TERM_RE = re.compile(r"\s*([+-]?)\s*O\(([^()]*)\)")
_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_int(text):
    """The integer ``text`` spells: an optional sign and ASCII digits, whitespace
    around them ignored.  Anything else raises ValueError, also what int() alone
    reads, such as "1_0" or non-ASCII digits."""
    if not _INT_RE.fullmatch(text):
        raise ValueError("invalid integer %r" % text)
    return int(text)


def _echo(text):
    """repr(text) for an error message; past 80 characters only its first 80 and its
    length, so a huge bad term or value cannot flood it."""
    if len(text) <= 80:
        return repr(text)
    return "%r... (%d characters)" % (text[:80], len(text))


def parse_class(surface, text):
    """Parse a signed line-bundle sum like "O(2,1)+O(0,1)-O(1,0)"; later terms need a
    sign.  Whitespace around terms, signs and integers is ignored; an integer
    is an optional sign and ASCII digits."""
    terms = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        match = _TERM_RE.match(text, pos)
        if match is None or terms and not match.group(1):
            raise ValueError("cannot parse class spec %s at %s" % (_echo(text), _echo(text[pos:])))
        sign = -1 if match.group(1) == "-" else 1
        try:
            coeffs = tuple(map(parse_int, match.group(2).split(",")))
        except ValueError:  # also more digits than int() reads
            raise ValueError("bad integers in term %s" % _echo(match.group(0)))
        if len(coeffs) != len(surface.generators):
            raise ValueError("surface %s expects %d-parameter classes, got %s"
                             % (surface.name, len(surface.generators), _echo(match.group(0))))
        terms.append((sign, coeffs))
        pos = match.end()
    return EqKClass(surface, terms)


def enumerate_fixed_points(surface, n):
    """All tuples of partitions of total size n, one per chart."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [fp for sizes in itertools.product(range(n + 1), repeat=len(surface.charts))
            if sum(sizes) == n for fp in itertools.product(*map(partitions, sizes))]


def _hook_coefficients(lam):
    """Per box of lam, row by row, the coefficients (a, b) of its two tangent
    weights a chi1 + b chi2: (arm+1, -leg) and (-arm, leg+1)."""
    out = []
    for row, part in enumerate(lam):
        for col in range(part):
            arm, leg = part - col - 1, sum(1 for below in lam[row + 1:] if below > col)
            out.extend(((arm + 1, -leg), (-arm, leg + 1)))
    return out


def tangent_weights(fp, surface):
    """The 2n tangent characters of the Hilbert scheme at a fixed point."""
    out = []
    for index, lam in enumerate(fp):
        chi1, chi2 = surface.tangent_chars(index)
        for a, b in _hook_coefficients(lam):
            weight = _vadd(_vscale(a, chi1), _vscale(b, chi2))
            if weight == (0, 0):
                raise ArithmeticError("zero tangent weight: chart data is wrong")
            out.append(weight)
    return out


def taut_weights(lifts, fp, surface):
    """Weighted fiber characters of the tautological class at a fixed point.

    ``lifts`` is a class as signed_lifts gives it.  Each term contributes,
    for every box in column c row s of the chart's partition, its weight
    and its lift character plus c u1 + s u2.  The oracle specializes the
    same weights chart by chart in _chart_product; this is the plain form
    the tests compare it with.
    """
    boxes = []
    for index, lam in enumerate(fp):
        _, _, u1, u2 = surface.charts[index]
        for row, part in enumerate(lam):
            for col in range(part):
                boxes.append((index, _vadd(_vscale(col, u1), _vscale(row, u2))))
    return [(weight, _vadd(lift[index], box)) for weight, lift in lifts for index, box in boxes]


@lru_cache(maxsize=None)
def _hook_pairs(order):
    """The distinct _hook_coefficients of the partitions of size <= order: arm + leg < order."""
    return tuple(pair for arm in range(order) for leg in range(order - arm)
                 for pair in ((arm + 1, -leg), (-arm, leg + 1)))


def _segre_term(x, y, lifts, degree):
    """The Segre step: per class, prod (1+ku)^(-sign) / prod ks to u^degree over k = m +
    box, as (den, numerators), the parent's times the new box's factors, or 1 (parent
    None).  Each distinct m enters at its net sign, so cancelling terms cost nothing."""
    nets = []
    for class_lifts in lifts:
        net = {}
        for sign, m in class_lifts:
            net[m] = net.get(m, 0) + sign
        nets.append([(1 if mult > 0 else -1, m) for m, mult in net.items()
                     for _ in range(abs(mult))])

    def step(ks, box, size, box_sum, parent):
        if parent is None:
            return prod(ks), [[1] + [0] * degree for _ in nets]
        out = []
        for c, net in zip(parent, nets):
            c = list(c)
            for sign, m in net:
                k = m + box
                if sign > 0:
                    for j in range(1, degree + 1):  # divide by 1 + k u
                        c[j] -= k * c[j - 1]
                else:
                    for j in range(degree, 0, -1):  # multiply by 1 + k u
                        c[j] += k * c[j - 1]
            out.append(c)
        return prod(ks), out
    return step


@lru_cache(maxsize=None)
def _todd_log(degree):
    """(D, [D tau_j], M) for tau = log(x / (1 - e^-x)) = x/2 - x^2/24 + x^4/2880 - ... to
    x^degree, and M = prod p^floor(degree / (p - 1)) over the primes p <= degree + 1:
    Hirzebruch's denominator M_degree of the Todd polynomial T_degree, which every
    M_j, j <= degree, divides; the E_0 of the Todd exp (_todd_exp)."""
    tau = -Series([F((-1) ** j, factorial(j + 1)) for j in range(degree + 1)]).log()
    primes = [p for p in range(2, degree + 2) if all(p % f for f in range(2, p))]
    return tau.den, tau.nums, prod(p ** (degree // (p - 1)) for p in primes)


def _todd_exp(weights, degree):
    """todd(ks, a1) = exp_numerators([0, a1, tau_2 p_2, ...], D, degree, M_degree), p_j =
    sum k^j, for at most ``degree`` ks of ``weights``: as tau_j = 0 at odd
    j >= 3, it reads b_0 = a1 and the odd b_k only, and p_2j from packed geometric sums
    k^2 + k^4 2^s + ... in s-bit slots that hold degree max|k|^degree."""
    d, tau, scale = _todd_log(degree)
    odd = [j * tau[j] for j in range(2, degree + 1, 2)]
    s = max(1, (degree * max(map(abs, weights), default=0) ** degree).bit_length())
    shifts, mask = range(0, s * len(odd), s), (1 << s) - 1
    powers = {k: k * k * ((k * k << s) ** len(odd) - 1) // ((k * k << s) - 1) for k in weights}

    def todd(ks, a1):
        packed = sum(map(powers.__getitem__, ks))
        b, e = [c * (packed >> shift & mask) for c, shift in zip(odd, shifts)], [scale]
        for m, divisor in enumerate(range(d, d * degree + 1, d)):  # (m + 1) D
            q, rem = divmod(a1 * e[m] + sum(map(mul, b, e[m - 1::-2] if m else ())), divisor)
            if rem:
                raise ArithmeticError("E_0 = %d does not clear [u^%d] of the Todd exp"
                                      % (scale, m + 1))
            e.append(q)
        return e
    return todd


def _euler_term(x, y, lifts, degree):
    """The Euler step: e^(au) prod td(ku) / prod ks to u^degree, as (denominator,
    [numerators]), for the batch's first class (_chart_product scales the rest); a =
    |lambda| m + r B, B the box sum, r and m those of the class's weights and weights
    times lifts: |lambda| m_L + r B for L + (r-1) O.  The denominator is prod ks
    M_degree: [u^j] is the degree-j part of ch td of a sum of line bundles, whose
    denominator divides M_j, as i! | M_i and M_i M_(j-i) | M_j."""
    d, tau, scale = _todd_log(degree)
    r, m = sum(w for w, _ in lifts[0]), sum(w * m for w, m in lifts[0])
    half = degree and tau[1]
    todd = _todd_exp({a * x + b * y for a, b in _hook_pairs(degree // 2)}, degree)

    def step(ks, box, size, box_sum, parent):
        return prod(ks) * scale, [todd(ks, half * sum(ks) + d * (size * m + r * box_sum))]
    return step


def _scaled(rows, moves):
    """Per move t, ``rows`` with row n times degree! e^(n t u), to u^degree: the chart
    sums of the classes whose lifts are ``moves`` more than the first's.  Each row and
    each exp is packed (_slots), the exp by Horner over the integers degree!/k!."""
    width = len(rows[0])
    unit = [factorial(width - 1) // factorial(k) for k in range(width)]
    most = (len(rows) - 1) * max(map(abs, moves))
    shifts, unpack = _slots(width * max(map(abs, itertools.chain(*rows)))
                            * max(c * most ** k for k, c in enumerate(unit)), width)

    def exp(t):  # sum_k unit_k t^k 2^(s k)
        e, step = 0, t << shifts.step
        for c in reversed(unit):
            e = e * step + c
        return e
    packed = [sum(map(lshift, row, shifts)) for row in rows]
    return [[unpack(p * exp(n * move)) for n, p in enumerate(packed)] for move in moves]


def _lowest(rows, den):
    g = gcd(den, *itertools.chain(*rows))
    return [[c // g for c in row] for row in rows], den // g


def _slots(bound, width):
    """(shifts, unpack) for a row of ``width`` integers packed into one in s-bit slots,
    sum(map(lshift, row, shifts)), with 2^(s-1) > bound: unpack reads the low ``width``
    slots of a product of packed rows whose coefficients ``bound`` bounds."""
    s = bound.bit_length() + 1
    shifts = range(0, s * width, s)
    half, mask, top = 1 << (s - 1), (1 << s) - 1, (1 << (s * width)) - 1
    bias = sum(half << shift for shift in shifts)  # makes every slot >= 0

    def unpack(v):
        v = (v + bias) & top
        return [(v >> shift & mask) - half for shift in shifts]
    return shifts, unpack


def _times(a, b):
    """The product of two series in x of rows in u of one width, truncated as they are.
    With each row packed (_slots), rows * width * max|a| * max|b| bounding every
    coefficient, x-row n is one sum of integer products."""
    rows, width = len(a), len(a[0])
    shifts, unpack = _slots(rows * width * max(map(abs, itertools.chain(*a)))
                            * max(map(abs, itertools.chain(*b))), width)
    packed_a, packed_b = ([sum(map(lshift, row, shifts)) for row in x] for x in (a, b))
    return [unpack(sum(map(mul, packed_a[:n + 1], reversed(packed_b[:n + 1]))))
            for n in range(rows)]


def _shapes(order):
    """Per partition of size at most ``order``, by size, so after its parent (itself
    without the last box of its last row): (size, hooks as indices into _hook_pairs,
    new cell (col, row), the sums of its cells' cols and rows, the parent's index or
    None).  Built once per pass, for both directions."""
    index = {pair: i for i, pair in enumerate(_hook_pairs(order))}
    shapes, where = [], {}
    for lam in (lam for size in range(order + 1) for lam in partitions(size)):
        where[lam] = len(shapes)
        parent = lam[:-1] + (lam[-1] - 1,) * (lam[-1] > 1) if lam else None
        shapes.append((sum(lam), tuple(index[hook] for hook in _hook_coefficients(lam)),
                       (lam[-1] - 1, len(lam) - 1) if lam else (0, 0),
                       (sum(p * (p - 1) // 2 for p in lam), sum(map(mul, range(len(lam)), lam))),
                       where.get(parent)))
    return shapes


def _chart_product(surface, classes, order, q, term, shapes):
    """Per class, prod over charts of sum_lambda x^|lambda| term(lambda) at direction q.

    ``classes`` holds each class as signed_lifts gives it.  At a chart, tangent characters
    (x, y) = -u1.q, -u2.q, each pair (a, b) of _hook_pairs gets its weight a x + b y (0
    raises), and term(x, y, each class's (weight, lift.q), degree) is the step that each
    partition of ``shapes`` = _shapes(order) calls with its tangent weights, -c x - s y
    of its new cell (c, s), its size, that of all its cells and its parent's numerators
    (or None), for (den, numerators per class).  The Euler term gives the first class's
    only: a class of its batch whose sum of weight * lift.q is delta more has its rows
    times e^(n delta u) (_scaled).  Each chart's sums are put in lowest terms.  Returns
    (rows, den) per class, rows[n][j] for j <= 2 order.
    """
    degree, product = 2 * order, None
    for index in range(len(surface.charts)):
        x, y = (_dot(chi, q) for chi in surface.tangent_chars(index))
        weights = [a * x + b * y for a, b in _hook_pairs(order)]
        if 0 in weights:
            raise ArithmeticError("direction %s zeroes a tangent weight" % (q,))
        lifts = [[(w, _dot(lift[index], q)) for w, lift in c] for c in classes]
        step, terms = term(x, y, lifts, degree), []
        for size, hooks, (col, row), (cols, rows), parent in shapes:
            terms.append((size, step([weights[i] for i in hooks], -col * x - row * y, size,
                                     -cols * x - rows * y,
                                     None if parent is None else terms[parent][1][1])))
        chart_den = lcm(*(d for _, (d, _) in terms))
        chart = [[[0] * (degree + 1) for _ in range(order + 1)] for _ in terms[0][1][1]]
        for size, (d, numerators) in terms:
            factor = chart_den // d
            for series, c in zip(chart, numerators):
                series[size] = [a + b * factor for a, b in zip(series[size], c)]
        chart = [_lowest(series, chart_den) for series in chart]
        if len(chart) < len(lifts):  # the Euler term gave the first class's sums only
            if len({sum(w for w, _ in c) for c in lifts}) > 1:
                raise ValueError("the classes of an Euler batch must share their weight sum r")
            moves = [sum(w * m for w, m in c) for c in lifts]
            chart += [_lowest(rows, chart[0][1] * factorial(degree)) for rows in
                      _scaled(chart[0][0], [move - moves[0] for move in moves[1:]])]
        product = chart if product is None else [
            (_times(a, b), da * db) for (a, da), (b, db) in zip(product, chart)]
    return product


def _values(rows, den):
    """Per n, [x^n u^2n] / den of a chart product, the integral over S^[n]: every lower
    power of u is a pole, which must cancel, and the value must be an integer."""
    for n, row in enumerate(rows):
        for j, c in enumerate(row[:2 * n]):
            if c:
                raise ArithmeticError("fixed-point sum has a surviving pole coefficient "
                                      "at order %d" % (j - 2 * n))
    for n, row in enumerate(rows):
        if row[2 * n] % den:
            raise ArithmeticError("fixed-point sum %s at n = %d is not an integer"
                                  % (F(row[2 * n], den), n))
    return tuple(row[2 * n] // den for n, row in enumerate(rows))


def _chart_pass(term, batch, order, whats):
    """Per class of ``batch``, given as (surface, signed lifts) pairs, its integrals
    (_values) for n = 0..order, agreed at the two directions (_directions), in input
    order: one shape table serves one chart product per surface and direction.
    ``whats`` names each class in errors."""
    if order < 0:
        raise ValueError("n must be nonnegative")
    if not batch:
        return ()
    by_surface = {}
    for index, (surface, _) in enumerate(batch):
        by_surface.setdefault(surface, []).append(index)
    directions, values, shapes = _directions(order), [None] * len(batch), _shapes(order)
    for surface, indices in by_surface.items():
        classes = [batch[index][1] for index in indices]
        first, second = ([_values(*c) for c in _chart_product(surface, classes, order, q, term,
                                                             shapes)] for q in directions)
        for index, a, b in zip(indices, first, second):
            values[index] = _agreed(directions, whats[index], a, b)
    return tuple(values)


def segre_series(classes, order):
    """Per class, the int degree-2n Segre integral over S^[n] for n = 0..order, in one
    pass whatever the classes' surfaces."""
    return _chart_pass(_segre_term, [(c.surface, c.signed_lifts()) for c in classes],
                       order, [repr(c) for c in classes])


def segre_integral(kclass, n):
    """The int integral of the degree-2n Segre class of the tautological class."""
    return segre_series([kclass], n)[0][n]


def chern_integral(kclass, n):
    """The int integral of the degree-2n Chern class: c(E) = s(-E), the Segre integral of -E."""
    negated = [(-w, lift) for w, lift in kclass.signed_lifts()]
    return _chart_pass(_segre_term, [(kclass.surface, negated)], n, [repr(kclass)])[0][n]


def verlinde_series(classes, r, order):
    """Per line bundle L, chi of det(L^[n]) (x) det(O^[n])^(r-1), the determinant of
    the tautological class of L + (r-1) O, for n = 0..order."""
    for kclass in classes:
        if kclass.rank != 1 or len(kclass.terms) != 1:
            raise ValueError("verlinde_series expects a single line bundle, got %r" % kclass)
    return _chart_pass(_euler_term, [
        (c.surface, c.signed_lifts() + [(r - 1, ((0, 0),) * len(c.surface.charts))])
        for c in classes], order, ["chi of %r at twist %d" % (c, r) for c in classes])


def verlinde_chi(kclass, r, n):
    """chi of det(L^[n]) (x) det(O^[n])^(r-1) for one line bundle L; see verlinde_series."""
    return verlinde_series([kclass], r, n)[0][n]
