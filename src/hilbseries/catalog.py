"""Catalog of universal series for tautological integrals over S^[n].

Generating functions of tautological integrals over the Hilbert schemes
of points of a surface S factor into universal power series raised to
intersection-number exponents.  For a K-theory class of rank s the Segre
generating function is

    A0(z)^c2 * A1(z)^(c1^2) * A2(z)^chi(O) * A3(z)^(c1.K) * A4(z)^(K^2)

with Chern analogues C0, C1, C2 (read off the Segre factors at rank -s)
on K-trivial numerics, and the Euler characteristic (Verlinde)
generating function at twist r is

    B1(w)^chi(c1) * B2(w)^chi(O) * B3(w)^(c1.K - K^2/2) * B4(w)^(K^2).

Each factor this module knows has an algebraic closed form in an
auxiliary variable t, held as its logarithm in t, and carries a
provenance status: "proven", "trivial" (identically 1 for elementary
reasons), or "conjectural".  A holder substitutes each factor's log to z
or w = t (1+at)^b once (Lagrange-Buermann); a product of powers of factors
is one exp of a sum of those logs.  Every coefficient is exact.

Supported ranks for the third and fourth Segre factors are -4..2; the
negative ranks -3 and -4 are produced from ranks 1 and 2 by a duality
transport, see ``_segre34_by_duality``.  The third and fourth Verlinde
factors exist for twists |r| <= 3.  Anything else raises
:class:`UnknownSeriesError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F
from math import lcm

from .series import ConstantTermError, Series, exp_numerators, solve_algebraic

__all__ = [
    "PROVEN",
    "TRIVIAL",
    "CONJECTURAL",
    "SEGRE_34_RANKS",
    "VERLINDE_34_TWISTS",
    "SeriesEntry",
    "UnknownSeriesError",
    "chern_A",
    "chern_full",
    "segre_A",
    "segre_change_of_var",
    "segre_full",
    "segre_rank2_branch",
    "verlinde_B",
    "verlinde_change_of_var",
    "verlinde_full",
    "verlinde_r3_branch",
]

PROVEN = "proven"
TRIVIAL = "trivial"
CONJECTURAL = "conjectural"

SEGRE_34_RANKS = range(-4, 3)
VERLINDE_34_TWISTS = range(-3, 4)


class UnknownSeriesError(LookupError):
    """No closed form is on record for the requested factor."""


@dataclass(frozen=True)
class SeriesEntry:
    """One universal factor: the series in its natural variable plus provenance.

    ``series`` is expanded in the natural variable (z for Segre/Chern, w
    for Verlinde); the closed forms are stated in the auxiliary t, which
    segre_change_of_var and verlinde_change_of_var relate to it.
    """

    family: str
    index: int
    rank: int
    status: str
    series: Series


def _lagrange(h, a, b, var):
    """h(t(x)) in ``var`` for x = t (1+at)^b, by Lagrange-Buermann:
    [x^n] h(t(x)) = (1/n) [t^(n-1)] h'(t) (1+at)^(-bn) for n >= 1.  A zero h, the log
    of a trivial factor, is zero in x too and runs no loop."""
    if h.is_zero():
        return Series.zero(h.order, var)
    dh = [k * x for k, x in enumerate(h.nums)]
    m = lcm(*range(1, h.order + 1))  # the 1/n, over one denominator
    out = [h.nums[0] * m]
    for n in range(1, h.order + 1):
        acc, binom = 0, 1  # binom = C(-bn, k) a^k
        for k in range(n):
            acc += dh[n - k] * binom
            binom = binom * (-b * n - k) * a // (k + 1)
        out.append(acc * (m // n))
    return Series._over(h.den * m, out, var)


# The quartic branch relations as {(i, j): coefficient of y^i t^j}.
# y (1+y)^2 = t (1-y)(1-y^3), branch through the origin
_TWIST3_RELATION = {(0, 1): -1, (1, 0): 1, (1, 1): 1, (2, 0): 2, (3, 0): 1,
                    (3, 1): 1, (4, 1): -1}
# y (1+y)^2 (1+3t) = t (1-y)(1-y^3)
_RANK2_RELATION = {(0, 1): -1, (1, 0): 1, (1, 1): 4, (2, 0): 2, (2, 1): 6,
                   (3, 0): 1, (3, 1): 4, (4, 1): -1}


def segre_rank2_branch(order):
    """The algebraic branch y(t) entering the rank-2 Segre factors.

    Unique series solution with y(0) = 0 of
    y (1+y)^2 / ((1-y)(1-y^3)) = t / (1+3t); starts t - 6t^2 + 41t^3 - ...
    """
    return solve_algebraic(_RANK2_RELATION, order)


def verlinde_r3_branch(order):
    """The branch Y(t) entering the twist-3 Verlinde factors.

    Unique series solution with Y(0) = 0 of
    Y (1+Y)^2 / ((1-Y)(1-Y^3)) = t; equals y(t/(1-3t)).
    """
    return solve_algebraic(_TWIST3_RELATION, order)


def segre_change_of_var(r, order):
    """Natural Segre variable z = t (1+rt)^r and its inverse t(z)."""
    t = Series.gen(order)
    return t * (1 + r * t) ** r, _lagrange(t, r, r, "z")


def verlinde_change_of_var(r, order):
    """Natural Verlinde variable w = t (1+t)^(r^2-1) and its inverse t(w)."""
    t = Series.gen(order)
    return t * (1 + t) ** (r * r - 1), _lagrange(t, 1, r * r - 1, "w")


def _log1p_sum(order, *pairs):
    """sum_j e_j log(1 + c_j t) over pairs (c_j, e_j) of an integer and a rational, in
    closed form: coefficient k is -sum_j e_j (-c_j)^k / k, with no series product."""
    de, m = lcm(*(e.denominator for _, e in pairs)), lcm(*range(1, order + 1))
    ints = [(c, e.numerator * (de // e.denominator)) for c, e in pairs]  # (c_j, de e_j)
    return Series._over(de * m, [k and -(m // k) * sum(x * (-c) ** k for c, x in ints)
                                 for k in range(order + 1)], "t")


def _branch_tail(y):
    """log((1+y)^2 / ((1-y) y')) in t for a branch y = t + O(t^2) of one order more."""
    low = y.truncate(y.order - 1)
    return 2 * (1 + low).log() - (1 - low).log() - y.derivative().log()


def _mean_root_log(order, c, d):
    """log((sqrt(1+ct) + sqrt(1+dt)) / 2) in t, built in s = t/4, where each root has
    integer coefficients, [s^k] sqrt(1+4cs) = (-1)^(k-1) 2 Cat_(k-1) c^k for k >= 1:
    the mean root is an integer series, its log is taken at scale 1, and coefficient
    k of the log is then divided by 4^k."""
    if order < 0:  # 4^order would be a float
        raise ValueError("truncation order must be >= 0")
    nums, b = [1], 1  # b = (-1)^(k-1) Cat_(k-1), half the roots' common factor
    for k in range(1, order + 1):
        nums.append(b * (c ** k + d ** k))
        b = b * 2 * (1 - 2 * k) // (k + 1)
    log = Series._over(1, nums, "t").log()
    return Series._over(log.den * 4 ** order,
                        [x * 4 ** (order - k) for k, x in enumerate(log.nums)], "t")


def _segre_log(s, index, order):
    """(status, log in t) of the index-th Segre factor at rank s, index 0..2."""
    r = s + 1
    if index == 0:
        return PROVEN, _log1p_sum(order, (r, -r), (1 + r, r - 1))
    if index == 1:
        return PROVEN, _log1p_sum(order, (r, F(r - 1, 2)), (1 + r, 1 - F(r, 2)))
    if index == 2:
        return PROVEN, _log1p_sum(order, (r, F(r * r - 1, 2)), (1 + r, r - F(r * r, 2)),
                                  (r * (1 + r), F(-1, 2)))
    raise UnknownSeriesError("Segre factor index must be 0..4, got %r" % (index,))


def _segre34_logs(s, order, index=3):
    """(status, log in t) of the third and of the fourth Segre factor at rank s,
    from one branch or one mean root; index names the factor an unknown rank
    is reported for."""
    if s not in SEGRE_34_RANKS:
        raise UnknownSeriesError(
            "Segre factor %d has no known closed form at rank %d" % (index, s))
    if s == 2:
        y = segre_rank2_branch(order + 1)
        log_y = y.shift(-1).log()  # log(y/t)
        log_1p3t = _log1p_sum(order, (3, 1))
        return ((PROVEN, -log_1p3t - log_y / 2),
                (PROVEN, log_1p3t + 3 * log_y + _branch_tail(y)))
    if s == 1:
        half = _mean_root_log(order, 2, 6)
        return ((PROVEN, half - _log1p_sum(order, (2, 1))),
                (PROVEN, _log1p_sum(order, (2, F(1, 2)), (6, F(1, 2))) - 2 * half))
    one = (TRIVIAL, Series.zero(order))  # s = 0 index 4, and s = -1, -2
    if s == 0:
        return (CONJECTURAL, _log1p_sum(order, (1, -1), (2, F(1, 2)))), one
    if s in (-3, -4):
        return tuple((CONJECTURAL, log) for log in _segre34_by_duality(-s - 2, order))
    return one, one


def _duality_pref(r, index, order):
    # log of the bridge between the rank r-1 Segre factor and the twist r
    # Euler characteristic factor, in the shared auxiliary variable; pinned
    # by the proven twist 0, +-1 factors and both printed conjecture pairs
    if index == 3:
        return _log1p_sum(order, (r, F(r + 1, 2)), (1 + r, F(-r, 2)))
    return _log1p_sum(order, (1 + r, F(r, 4)), (r, F(-(r + 1), 4)))


def _segre34_to_verlinde(s, order):
    """Transport the rank-s third/fourth Segre factors to Verlinde twist s+1.

    Returns the logs of the pair (third, fourth) in the Verlinde auxiliary
    variable tau, where tau = t/(1+rt) links the two closed-form charts.
    """
    r = s + 1
    a3, a4 = (log for _, log in _segre34_logs(s, order))
    b3 = _lagrange(a3 + _duality_pref(r, 3, order), r, -1, "t")
    b4 = _lagrange(a4 - a3 / 2 + _duality_pref(r, 4, order), r, -1, "t")
    return b3, b4


def _segre34_by_duality(src_rank, order):
    """Logs of the conjectural third/fourth Segre factors at rank -src_rank - 2.

    Transport the known rank 1 or 2 factors to the Euler-characteristic
    side, apply the Serre symmetry there (third factor inverts, fourth is
    fixed, the natural variable is blind to the sign of the twist), and
    transport back at the negated twist.
    """
    r = src_rank + 1
    b3, b4 = _segre34_to_verlinde(src_rank, order)
    a3 = -_lagrange(b3, r, -1, "t") - _duality_pref(-r, 3, order)
    a4 = _lagrange(b4, r, -1, "t") - _duality_pref(-r, 4, order) + a3 / 2
    return a3, a4


def _verlinde_log(r, index, order):
    """(status, log in t) of the index-th Verlinde factor at twist r, index 1..2."""
    if index == 1:
        return PROVEN, _log1p_sum(order, (1, 1))
    if index == 2:
        return PROVEN, _log1p_sum(order, (1, F(r * r, 2)), (r * r, F(-1, 2)))
    raise UnknownSeriesError("Verlinde factor index must be 1..4, got %r" % (index,))


def _verlinde34_logs(r, order, index=3):
    """(status, log in t) of the third and of the fourth Verlinde factor at twist r,
    from one mean root or one branch; index names the factor an unknown twist is
    reported for."""
    if r not in VERLINDE_34_TWISTS:
        raise UnknownSeriesError(
            "Verlinde factor %d has no known closed form at twist %d" % (index, r))
    if abs(r) <= 1:
        return ((TRIVIAL, Series.zero(order)),) * 2
    if abs(r) == 2:
        half = _mean_root_log(order, 0, 4)  # log((1 + sqrt(1+4t))/2)
        b3 = half - _log1p_sum(order, (1, 1))
        b4 = _log1p_sum(order, (1, F(1, 2)), (4, F(1, 2))) - F(5, 2) * half
    else:
        y = verlinde_r3_branch(order + 1)
        log_y = y.shift(-1).log()  # log(Y/t)
        b3 = _log1p_sum(order, (1, F(-3, 2))) - log_y / 2
        b4 = _log1p_sum(order, (1, F(3, 4))) + F(13, 4) * log_y + _branch_tail(y)
    # Serre symmetry: the negative twist inverts the third factor
    return (CONJECTURAL, -b3 if r < 0 else b3), (CONJECTURAL, b4)


class _Logs:
    """The factor logs of one family at one rank or twist and order, each read
    and substituted from t to x = t (1+at)^b at most once, when first asked
    for.  The third and fourth logs in t come from one branch or mean root, kept
    for the other of the two.  A holder lives for one call or one sweep; nothing
    is kept across calls."""

    def __init__(self, param, order, a, b):
        self.param, self.order, self.a, self.b = param, order, a, b
        self._read, self._tails = {}, None

    def __getitem__(self, index):
        """(status, log in x) of the index-th factor."""
        if index not in self._read:
            if index in (3, 4):
                if self._tails is None:
                    self._tails = self._tail(self.param, self.order, index)
                status, log = self._tails[index - 3]
            else:
                status, log = self._low(self.param, index, self.order)
            self._read[index] = status, _lagrange(log, self.a, self.b, self.var)
        return self._read[index]

    def entry(self, index):
        status, log = self[index]
        return SeriesEntry(self.family, index, self.param, status, log.exp())

    def exp(self, exponents):
        """prod_i F_i^(e_i) in x over (index i, int or Fraction e_i), summing the e_i log F_i
        over one denominator; factors are read in order, a zero exponent reads nothing."""
        terms = [(e, self[index][1]) for index, e in exponents if e]
        den = lcm(*(e.denominator * log.den for e, log in terms))
        nums = [0] * (self.order + 1)
        for e, log in terms:
            scale = e.numerator * (den // (e.denominator * log.den))
            nums = [a + scale * b for a, b in zip(nums, log.nums)]
        if nums[0]:  # Series.exp's check
            raise ConstantTermError("exp needs constant term 0, got %s" % F(nums[0], den))
        e = exp_numerators(nums, den, self.order)
        return Series._over(e[0], e, self.var)


class _SegreLogs(_Logs):
    """The Segre factor logs at rank s, in z."""

    family, var = "segre", "z"
    _low, _tail = staticmethod(_segre_log), staticmethod(_segre34_logs)

    def __init__(self, s, order):
        super().__init__(s, order, s + 1, s + 1)

    def segre_full(self, c2, c1sq, chiO, c1K, Ksq):
        # c1.K first: an unknown rank is reported for the third factor if it is asked for
        return self.exp(((3, c1K), (4, Ksq), (0, c2), (1, c1sq), (2, chiO)))

    def chern_full(self, c2, c1sq, chiO):
        """The Chern series at rank -s on K-trivial numerics."""
        return self.segre_full(c1sq - c2, c1sq, chiO, 0, 0)


class _VerlindeLogs(_Logs):
    """The Verlinde factor logs at twist r, in w."""

    family, var = "verlinde", "w"
    _low, _tail = staticmethod(_verlinde_log), staticmethod(_verlinde34_logs)

    def __init__(self, r, order):
        super().__init__(r, order, 1, r * r - 1)

    def verlinde_full(self, chi_c1, chiO, c1K, Ksq):
        e3 = F(2 * c1K - Ksq, 2)
        if e3.denominator != 1:
            self[4]  # K^2 is odd: an unknown twist is reported for the fourth factor
            if not self[3][1].is_zero():
                raise ValueError(
                    "third-factor exponent %s is not an integer (odd K^2) and the "
                    "factor at twist %d is nontrivial" % (e3, self.param))
            e3 = 0
        return self.exp(((4, Ksq), (3, e3), (1, chi_c1), (2, chiO)))


def segre_A(s, index, order):
    """The index-th universal Segre factor at rank s, as a series in z.

    Indices 0..2 exist for every integer rank; indices 3 and 4 only for
    ranks -4..2, conjecturally at rank 0 (index 3) and ranks -3, -4.
    """
    return _SegreLogs(s, order).entry(index)


def chern_A(s, index, order):
    """The index-th universal Chern factor at rank s (indices 0..2).

    Valid on K-trivial numerics.  As c(E) = s(-E), these are C0 = 1/A0,
    C1 = A0 A1 and C2 = A2 of the Segre factors at rank -s.
    """
    if index not in (0, 1, 2):
        raise UnknownSeriesError("Chern factor index must be 0..2, got %r" % (index,))
    series = _SegreLogs(-s, order).exp((((0, -1),), ((0, 1), (1, 1)), ((2, 1),))[index])
    return SeriesEntry("chern", index, s, PROVEN, series)


def verlinde_B(r, index, order):
    """The index-th universal Euler-characteristic factor at twist r, in w.

    Indices 1 and 2 are proven for every r.  Indices 3 and 4 are known
    for |r| <= 1 (trivially 1) and conjecturally for |r| in {2, 3}; the
    negative twists come from the positive ones by Serre symmetry, which
    inverts the third factor and fixes the fourth.
    """
    return _VerlindeLogs(r, order).entry(index)


def segre_full(s, c2, c1sq, chiO, c1K, Ksq, order):
    """Assembled Segre generating series in z for the given numerics.

    Factors with zero exponent are skipped, so any rank assembles on
    K-trivial numerics even where the last two factors are unknown.
    """
    return _SegreLogs(s, order).segre_full(c2, c1sq, chiO, c1K, Ksq)


def chern_full(s, c2, c1sq, chiO, order):
    """Assembled Chern series in z, K-trivial numerics: Segre at -s, c1^2 - c2."""
    return _SegreLogs(-s, order).chern_full(c2, c1sq, chiO)


def verlinde_full(r, chi_c1, chiO, c1K, Ksq, order):
    """Assembled Euler-characteristic generating series in w.

    The third factor's exponent is c1.K - K^2/2; when that is not an
    integer (odd K^2) the assembly is refused unless the factor is
    trivially 1, rather than silently taking a square root.
    """
    return _VerlindeLogs(r, order).verlinde_full(chi_c1, chiO, c1K, Ksq)
