"""Equivariant fixed-point oracle on toric surfaces.

Computes tautological Segre and Chern integrals over Hilbert schemes of
points, and holomorphic Euler characteristics of tautological line
bundles, by summation over torus-fixed points.  Fixed points of the
Hilbert scheme are tuples of partitions, one monomial ideal per chart of
the surface; everything reduces to exact rational arithmetic in the two
torus characters.

Conventions (fixed once, validated by anchors in the test suite): at the
chart of a smooth cone spanned by rays v, v' the coordinate characters
u1, u2 are the dual basis (so the lattice-point generating function of a
polytope is the sum of vertex terms x^m / prod(1 - x^(u_i))), tangent
characters are -u1, -u2, and the equivariant lift of O(sum d_i D_i) is
the character m with <m, v_i> = -d_i.  A box in column c, row s of a
partition carries the monomial character c u1 + s u2.

Every quantity takes one path, for a batch of classes on one surface at
a time (segre_integrals, verlinde_chis; the single-class entry points
are batches of one).  The fixed points are enumerated once per call, and
at each drawn direction each point is specialized once: its integer
tangent weights and its box characters, shared by every class, then each
class's signed tautological weights.  Two kernels read these records,
points outside and classes inside, so per-point work is done once for
the batch: the top Segre coefficient (Chern is Segre of the negated
class) and the Euler characteristic of the determinant line (Verlinde:
of L + (r-1) O).

Values are computed at two independent generic directions and must
agree, class by class; Euler characteristics additionally require all
sub-leading Laurent coefficients to cancel across fixed points and the
result to be an integer.  Any violation raises, loudly, instead of
returning data, and so does a draw box with fewer than two usable
directions (DrawError).  Whether a direction is usable at n depends only
on the hook lengths a partition of n can have, so that is settled before
any fixed point is built.  The kernels run on integer coefficient lists;
Fraction appears only at the Segre kernel's per-point division and at
the Euler sum's result.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction as F
from functools import lru_cache
from math import comb, lcm, prod
from operator import mul

__all__ = [
    "DEFAULT_SEED",
    "DrawError",
    "EqKClass",
    "ToricSurface",
    "chern_integral",
    "enumerate_fixed_points",
    "get_surface",
    "parse_class",
    "partitions",
    "segre_integral",
    "segre_integrals",
    "surface_names",
    "tangent_weights",
    "taut_weights",
    "verlinde_chi",
    "verlinde_chis",
]

DEFAULT_SEED = 20260815


class _BadDraw(Exception):
    """A character specialization annihilated a tangent weight."""


class DrawError(ArithmeticError):
    """Fewer than two directions in the draw box keep every weight nonzero."""


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


def _conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > col) for col in range(lam[0]))


class ToricSurface:
    """A smooth projective toric surface given by its cyclically ordered fan.

    ``generators`` expresses a basis of line-bundle classes in ray
    divisors; ``pairing`` is their intersection matrix, ``k_dot`` their
    intersections with the canonical class, both validated against
    localization at construction.
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

    def _surface_integral(self, lift_a, lift_b, q):
        total = F(0)
        for index, (_, _, u1, u2) in enumerate(self.charts):
            k1, k2 = _dot(u1, q), _dot(u2, q)
            if k1 == 0 or k2 == 0:
                raise _BadDraw
            total += F(_dot(lift_a[index], q) * _dot(lift_b[index], q), k1 * k2)
        return total

    def _validate(self):
        k_lift = self.lift_canonical()
        gen_lifts = [self.lift(tuple(1 if j == i else 0 for j in range(len(self.generators))))
                     for i in range(len(self.generators))]

        def localized(q):
            pairing = [[self._surface_integral(la, lb, q) for lb in gen_lifts]
                       for la in gen_lifts]
            k_dot = [self._surface_integral(la, k_lift, q) for la in gen_lifts]
            chi, = _euler_sum([([_spec_nonzero(t, q) for t in self.tangent_chars(index)], [[]])
                               for index in range(len(self.charts))], 2, 1)
            return pairing, k_dot, self._surface_integral(k_lift, k_lift, q), chi

        found = _at_two_directions(localized, DEFAULT_SEED, "%s intersections" % self.name)
        if found != (self.pairing, self.k_dot, self.ksq, self.chi_O):
            raise ArithmeticError("%s: localized pairing, K pairings, K^2, chi(O) %s "
                                  "disagree with the tables" % (self.name, found))

    def lift_canonical(self):
        """Lift of the canonical class, minus the sum of all ray divisors."""
        out = []
        for _, _, u1, u2 in self.charts:
            out.append(_vadd(u1, u2))
        return tuple(out)

    def __repr__(self):
        return "ToricSurface(%r)" % self.name


def _in_box(q):
    """Whether _draw_direction can return q: [-9, 9]^2 off the axes and both diagonals."""
    return q[0] != 0 and q[1] != 0 and abs(q[0]) != abs(q[1])


_DIRECTIONS = tuple(q for q in itertools.product(range(-9, 10), repeat=2) if _in_box(q))


def _draw_direction(rng):
    while True:
        q = (rng.randint(-9, 9), rng.randint(-9, 9))
        if _in_box(q):
            return q


def _no_two_directions(what):
    return DrawError("fewer than two of the %d directions in [-9, 9]^2 are "
                     "generic for %s" % (len(_DIRECTIONS), what))


def _two_draws(evaluate, seed, what):
    """The first two directions at which ``evaluate(q)`` returns, and its values there.

    Directions come from ``random.Random(seed)``; one whose evaluation
    raises _BadDraw is not evaluated again, and DrawError ends the search
    once every direction in the box has been tried.
    """
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    seen = set()
    draws = []
    values = []
    while len(values) < 2:
        if len(seen) == len(_DIRECTIONS):
            raise _no_two_directions(what)
        q = _draw_direction(rng)
        if q in seen:
            continue
        seen.add(q)
        try:
            values.append(evaluate(q))
        except _BadDraw:
            continue
        draws.append(q)
    return draws, values


def _agreed(draws, what, first, second):
    if first != second:
        raise ArithmeticError(
            "directions %s disagree on %s: %s vs %s" % (draws, what, first, second))
    return first


def _at_two_directions(evaluate, seed, what):
    """The agreed value of ``evaluate(q)`` at two distinct generic directions."""
    draws, (first, second) = _two_draws(evaluate, seed, what)
    return _agreed(draws, what, first, second)


def _spec_nonzero(char, q):
    k = _dot(char, q)
    if k == 0:
        raise _BadDraw
    return k


@lru_cache(maxsize=None)
def _p2():
    return ToricSurface("p2", [(1, 0), (0, 1), (-1, -1)],
                        generators=[(1, 0, 0)], pairing=[[1]], k_dot=[-3], ksq=9)


@lru_cache(maxsize=None)
def _p1xp1():
    return ToricSurface("p1xp1", [(1, 0), (0, 1), (-1, 0), (0, -1)],
                        generators=[(1, 0, 0, 0), (0, 1, 0, 0)],
                        pairing=[[0, 1], [1, 0]], k_dot=[-2, -2], ksq=8)


@lru_cache(maxsize=None)
def _f1():
    # generators: the fiber class and the exceptional (-1)-curve
    return ToricSurface("f1", [(1, 0), (0, 1), (-1, 1), (0, -1)],
                        generators=[(1, 0, 0, 0), (0, 1, 0, 0)],
                        pairing=[[0, 1], [1, -1]], k_dot=[-2, -1], ksq=8)


_SURFACES = {"p2": _p2, "p1xp1": _p1xp1, "f1": _f1}


def surface_names():
    return sorted(_SURFACES)


def get_surface(name):
    try:
        return _SURFACES[name.lower()]()
    except KeyError:
        raise KeyError("unknown surface %r; choose from %s"
                       % (name, ", ".join(surface_names())))


class EqKClass:
    """Signed sum of equivariantly lifted line bundles on a toric surface.

    Terms are (sign, generator coefficients); Chern data of the K-theory
    class is accumulated by the Whitney formula term by term.  Optional
    per-term lift shifts by a global character change the equivariant
    data but no integral, which the tests exploit.
    """

    def __init__(self, surface, terms, lift_shifts=None):
        if not terms:
            raise ValueError("a class needs at least one term")
        self.surface = surface
        self.terms = [(1 if sign >= 0 else -1, tuple(coeffs)) for sign, coeffs in terms]
        if lift_shifts is None:
            lift_shifts = [(0, 0)] * len(self.terms)
        if len(lift_shifts) != len(self.terms):
            raise ValueError("one lift shift per term expected")
        self.shifts = [tuple(shift) for shift in lift_shifts]
        self.lifts = []
        for (sign, coeffs), shift in zip(self.terms, self.shifts):
            base = surface.lift(coeffs)
            self.lifts.append(tuple(_vadd(m, shift) for m in base))
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

    def shifted(self, term_index, char):
        """Same class with one term's lift moved by a global character."""
        shifts = [(0, 0)] * len(self.terms)
        shifts[term_index] = tuple(char)
        return EqKClass(self.surface, self.terms, shifts)

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


def parse_class(surface, text):
    """Parse a signed line-bundle sum like "O(2,1)+O(0,1)-O(1,0)"."""
    terms = []
    pos = 0
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if match is None:
            raise ValueError("cannot parse class spec %r at %r" % (text, text[pos:]))
        sign = -1 if match.group(1) == "-" else 1
        try:
            coeffs = tuple(int(piece) for piece in match.group(2).split(","))
        except ValueError:
            raise ValueError("bad integers in term %r" % match.group(0))
        if len(coeffs) != len(surface.generators):
            raise ValueError("surface %s expects %d-parameter classes, got %r"
                             % (surface.name, len(surface.generators), match.group(0)))
        terms.append((sign, coeffs))
        pos = match.end()
    return EqKClass(surface, terms)


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in _compositions(n - head, parts - 1):
            yield (head,) + tail


def enumerate_fixed_points(surface, n):
    """All tuples of partitions of total size n, one per chart."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    charts = len(surface.charts)
    for comp in _compositions(n, charts):
        out.extend(itertools.product(*(partitions(k) for k in comp)))
    return out


def tangent_weights(fp, surface):
    """The 2n tangent characters of the Hilbert scheme at a fixed point.

    Standard arm/leg formula per box, in the tangent characters of the
    chart: a box with arm a and leg l contributes (a+1) chi1 - l chi2
    and -a chi1 + (l+1) chi2.
    """
    out = []
    for index, lam in enumerate(fp):
        chi1, chi2 = surface.tangent_chars(index)
        conj = _conjugate(lam)
        for row, part in enumerate(lam):
            for col in range(part):
                arm = part - col - 1
                leg = conj[col] - row - 1
                w1 = _vadd(_vscale(arm + 1, chi1), _vscale(-leg, chi2))
                w2 = _vadd(_vscale(-arm, chi1), _vscale(leg + 1, chi2))
                if w1 == (0, 0) or w2 == (0, 0):
                    raise ArithmeticError("zero tangent weight: chart data is wrong")
                out.extend((w1, w2))
    return out


def taut_weights(kclass, fp):
    """Signed fiber characters of the tautological class at a fixed point.

    Each term contributes, for every box in column c row s of the
    chart's partition, its lift character plus c u1 + s u2.  The oracle
    specializes the same weights batch-wise in _records; this is the
    plain form the tests compare it with.
    """
    boxes = []
    for index, lam in enumerate(fp):
        _, _, u1, u2 = kclass.surface.charts[index]
        for row, part in enumerate(lam):
            for col in range(part):
                boxes.append((index, _vadd(_vscale(col, u1), _vscale(row, u2))))
    return [(sign, _vadd(lifts[index], box))
            for (sign, _), lifts in zip(kclass.terms, kclass.lifts) for index, box in boxes]


def _hook_generic(surface, n, q):
    """Whether q keeps every tangent weight of every fixed point of S^[n] nonzero.

    A box with arm a and leg l has the weights (a+1) chi1 - l chi2 and
    -a chi1 + (l+1) chi2 (see tangent_weights), and some fixed point has
    a box with hook (a, l) in a given chart exactly when a + l + 1 <= n.
    """
    for index in range(len(surface.charts)):
        x, y = (_dot(chi, q) for chi in surface.tangent_chars(index))
        for arm in range(n):
            for leg in range(n - arm):
                if (arm + 1) * x == leg * y or arm * x == (leg + 1) * y:
                    return False
    return True


def _records(surface, kclasses, fps, q):
    """Each fixed point at direction q: its tangent weights and, per class,
    its signed tautological weights.

    The one place where fixed points are specialized; a zero tangent
    weight rejects the direction.  A box in column c, row s of chart i
    specializes to c u1.q + s u2.q once per point, for every class; each
    term adds the specialization of its lift (the order of taut_weights).
    """
    steps = [(_dot(u1, q), _dot(u2, q)) for _, _, u1, u2 in surface.charts]
    terms = [[(sign, [_dot(m, q) for m in lifts])
              for (sign, _), lifts in zip(kclass.terms, kclass.lifts)] for kclass in kclasses]
    for fp in fps:
        ks = [_spec_nonzero(w, q) for w in tangent_weights(fp, surface)]
        boxes = [(index, col * across + row * up)
                 for index, (lam, (across, up)) in enumerate(zip(fp, steps))
                 for row, part in enumerate(lam) for col in range(part)]
        yield ks, [[(sign, lift[index] + box) for sign, lift in class_terms
                    for index, box in boxes] for class_terms in terms]


def _fixed_point_sum(kernel, surface, kclasses, n, seed, whats):
    """Per class, kernel(records, 2n, len(kclasses)) agreed at two directions.

    ``whats`` names each class in errors.  The fixed points are
    enumerated once, and only when the draw box holds two directions
    that are generic for every one of them.
    """
    what = ", ".join(whats)
    generic = (q for q in _DIRECTIONS if _hook_generic(surface, n, q))
    if len(list(itertools.islice(generic, 2))) < 2:
        raise _no_two_directions(what)
    fps = enumerate_fixed_points(surface, n)
    draws, (first, second) = _two_draws(
        lambda q: kernel(_records(surface, kclasses, fps, q), 2 * n, len(kclasses)),
        seed, what)
    return tuple(_agreed(draws, name, a, b) for name, a, b in zip(whats, first, second))


def _segre_top(records, order, count):
    """Per class, the sum over points of [u^order] prod (1+ku)^(-sign) / prod tangent weights.

    Each record holds the weights of ``count`` classes.
    """
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


def segre_integrals(surface, classes, n, seed=None):
    """Integrals of the degree-2n Segre classes of tautological classes on one surface.

    One value per class, from one pass over the fixed points.
    """
    classes = list(classes)
    return _fixed_point_sum(_segre_top, surface, classes, n, seed, [repr(c) for c in classes])


def segre_integral(surface, kclass, n, seed=None):
    """Integral of the degree-2n Segre class of the tautological class."""
    return segre_integrals(surface, [kclass], n, seed)[0]


def chern_integral(surface, kclass, n, seed=None):
    """Integral of the degree-2n Chern class of the tautological class.

    c(E) = s(-E), so this is the Segre integral of the negated class.
    """
    negated = EqKClass(surface, [(-sign, coeffs) for sign, coeffs in kclass.terms],
                       kclass.shifts)
    return _fixed_point_sum(_segre_top, surface, [negated], n, seed, [repr(kclass)])[0]


def _euler_sum(records, order, count):
    """Per class, the sum of (1+e)^a / prod_k (1-(1+e)^(-k)) over points, as an integer.

    A point's ks are its tangent weights and a = sum of sign * k over a
    class's tautological weights, the weight of the determinant line.
    Each point contributes a Laurent series with pole order len(ks); the
    poles must cancel across points and the constant term is the Euler
    characteristic.  Both facts are asserted for each of the ``count``
    classes.

    With P_m(e) = ((1+e)^m - 1)/e = sum_{i<m} C(m, i+1) e^i, a point's
    term times e^len(ks) is (-1)^#{k<0} (1+e)^A / prod P_|k|(e), where
    A = a + sum of the positive k.  Numerator N and denominator Q are
    integer polynomials; the quotient's coefficients are d_j / Q_0^(j+1)
    with the integers d_j = Q_0^j N_j - sum_{i=1..j} Q_i Q_0^(i-1) d_(j-i).
    The points are added over the lcm of their Q_0, so the only Fraction
    is each result.  Q, and with it the scale, depends on the point
    alone; only N and the d_j are worked out per class.
    """
    # class i's e^j coefficient is totals[i][j] / scale^(j+1)
    totals = [[0] * (order + 1) for _ in range(count)]
    scale = 1  # lcm of the Q_0 so far
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


def _twisted_class(kclass, r):
    """L + (r-1) O, of rank r, for the line bundle L of kclass."""
    extra = abs(r - 1)
    trivial = (1 if r > 1 else -1, (0,) * len(kclass.surface.generators))
    return EqKClass(kclass.surface, kclass.terms + [trivial] * extra,
                    kclass.shifts + [(0, 0)] * extra)


def verlinde_chis(surface, classes, r, n, seed=None):
    """chi of det(L^[n]) (x) det(O^[n])^(r-1) on the Hilbert scheme, per line bundle L.

    That line bundle is the determinant of the tautological class of
    L + (r-1) O.  Every class must be a single unsigned line bundle on
    ``surface``; one value per class, from one pass over the fixed points.
    """
    classes = list(classes)
    for kclass in classes:
        if kclass.rank != 1 or len(kclass.terms) != 1:
            raise ValueError("verlinde_chi expects a single line bundle, got %r" % kclass)
    return _fixed_point_sum(_euler_sum, surface, [_twisted_class(c, r) for c in classes],
                            n, seed, ["chi of %r at twist %d" % (c, r) for c in classes])


def verlinde_chi(surface, kclass, r, n, seed=None):
    """chi of det(L^[n]) (x) det(O^[n])^(r-1) for one line bundle L; see verlinde_chis."""
    return verlinde_chis(surface, [kclass], r, n, seed)[0]
