"""Exact identity checks for the universal-series catalog.

Every check here is a pure, deterministic computation over rationals: a
binomial or residue closed form evaluated against a series coefficient,
a printed derivation step replayed as a truncated-series identity, or a
polynomial identity established by evaluating on an integer grid larger
than its degree bound.  A report never contains an approximate
comparison; a failing report always carries the first counterexample.

The moduli-side numerics (rank, Euler characteristic, c1^2, c2) enter
through :class:`ModuliNumerics`, which enforces the two compatibility
constraints between them at construction time, so sweeps cannot silently
wander off the K3 locus.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb
import random

from . import catalog
from .series import Series

__all__ = [
    "CheckReport",
    "ModuliNumerics",
    "check_2pt_grid",
    "check_abelian",
    "check_asymptotics",
    "check_blowup",
    "check_blowup_excess",
    "check_chern_rank2",
    "check_enriques",
    "check_fgh_derivation",
    "check_lagrange_burmann",
    "check_spherical_chern",
    "check_theta_constant",
    "check_thm3",
    "check_verlinde_segre_prediction",
    "check_verlinde_trivial",
    "run_suite",
    "suite_names",
]


class ModuliNumerics:
    """Numerics (s, chi, c1^2, c2) of a K3 moduli problem, with d derived.

    d is half the expected moduli dimension; it is determined by the
    other four numbers, must be an integer, and must satisfy
    2d - 2 = c1^2 - 2s(chi - s).  Both are enforced here.
    """

    def __init__(self, s, chi, c1sq, c2):
        self.s = s
        self.r = s + 1
        self.chi = chi
        self.c1sq = c1sq
        self.c2 = c2
        d = s * c2 + F(1 - s, 2) * c1sq + 1 - s * s
        if d.denominator != 1:
            raise ValueError("d = %s is not an integer for %r" % (d, (s, chi, c1sq, c2)))
        self.d = int(d)
        if 2 * self.d - 2 != c1sq - 2 * s * (chi - s):
            raise ValueError(
                "numerics %r are not K3-consistent: 2d-2 = %d but c1^2 - 2s(chi-s) = %d"
                % ((s, chi, c1sq, c2), 2 * self.d - 2, c1sq - 2 * s * (chi - s)))

    @classmethod
    def spherical(cls, s, chi):
        """Rigid case d = 0: c1^2 and c2 are forced by (s, chi)."""
        return cls(s, chi, 2 * (s * chi - s * s - 1), chi * (s - 1) - s * s + 2 * s - 1)

    @classmethod
    def isotropic(cls, s, chi):
        """One-dimensional case d = 1."""
        return cls(s, chi, 2 * (s * chi - s * s), chi * (s - 1) - s * s + 2 * s)

    def __repr__(self):
        return ("ModuliNumerics(s=%d, chi=%d, c1sq=%d, c2=%d, d=%d)"
                % (self.s, self.chi, self.c1sq, self.c2, self.d))


@dataclass
class CheckReport:
    """Outcome of one identity check.

    ``checks`` counts individual equalities tested, ``ranges`` records
    the swept parameters and any degree bounds used, and a failing
    report always carries the first counterexample tuple.
    """

    name: str
    passed: bool
    checks: int
    ranges: str = ""
    counterexample: tuple | None = None
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "ranges": self.ranges,
            "counterexample": None if self.counterexample is None
            else [str(x) for x in self.counterexample],
            "detail": self.detail,
        }


class _Tally:
    """Accumulates equality checks and remembers the first failure."""

    def __init__(self):
        self.checks = 0
        self.counterexample = None

    def eq(self, got, want, *context):
        self.checks += 1
        if self.counterexample is None and got != want:
            self.counterexample = context + (got, want)

    def eq_ratio(self, got, num, den, *context):
        """eq(F(got), F(num, den)) on integers as got * den == num; den 0 raises."""
        self.checks += 1
        if (self.counterexample is None and got * den != num) or not den:
            self.counterexample = context + (F(got), F(num, den))

    def eq_coefficient(self, series, n, want, *context):
        """eq(series.coefficient(n), F(want)) on integers, for an integer want."""
        self.checks += 1
        if self.counterexample is None and series.nums[n] != want * series.den:
            self.counterexample = context + (series.coefficient(n), F(want))

    def ok(self, cond, *context):
        self.checks += 1
        if self.counterexample is None and not cond:
            self.counterexample = context

    def report(self, name, ranges="", detail=""):
        return CheckReport(name, self.counterexample is None, self.checks,
                           ranges, self.counterexample, detail)


def _merge(name, reports):
    counter = next((r.counterexample for r in reports if r.counterexample), None)
    return CheckReport(
        name,
        all(r.passed for r in reports),
        sum(r.checks for r in reports),
        "; ".join(r.ranges for r in reports if r.ranges),
        counter,
        next((r.detail for r in reports if r.detail), ""),
    )


def _comb(a, k):
    """C(a, k) for any integer a; C(a, k) = (-1)^k C(k-a-1, k) if a < 0."""
    return comb(a, k) if a >= 0 else (-1) ** k * comb(k - a - 1, k)


def _residue(d, chi, r, n, c):
    """[t^n] (1+ct)^d (1+rt)^e, e = chi-rn-d: the integer sum over i of
    C(d,i) c^i C(e,n-i) r^(n-i), where C(d,i) = 0 for i > d >= 0."""
    e = chi - r * n - d
    return sum(_comb(d, i) * c ** i * _comb(e, n - i) * r ** (n - i)
               for i in range(n + 1 if d < 0 else min(n, d) + 1))


def check_thm3(r, n_max=8, chi_range=None):
    """Top Segre integrals on K3: residues vs the two binomial closed forms.

    Rigid case: r^n C(chi-rn, n) with vanishing for rn <= chi < (r+1)n;
    one-dimensional case: r^n (-r + 1/r + chi/n) C(chi-rn-1, n-1) with
    vanishing for rn+1 <= chi < (r+1)n.  The one-dimensional case is
    compared in integers times rn, so r = 0 raises ZeroDivisionError.
    """
    if chi_range is None:
        chi_range = range(-3, (r + 1) * n_max + 11)
    tally = _Tally()
    for n in range(n_max + 1):
        for chi in chi_range:
            rigid = _residue(0, chi, r, n, 1 + r)
            tally.eq_ratio(rigid, r ** n * _comb(chi - r * n, n), 1, "d=0", r, n, chi)
            if n >= 1:
                one_dim = _residue(1, chi, r, n, 1 + r)
                want = r ** n * (chi * r + n - r * r * n) * _comb(chi - r * n - 1, n - 1)
                tally.eq_ratio(one_dim, want, r * n, "d=1", r, n, chi)
                if r * n <= chi < (r + 1) * n:
                    tally.eq_ratio(rigid, 0, 1, "vanish d=0", r, n, chi)
                if r * n + 1 <= chi < (r + 1) * n:
                    tally.eq_ratio(one_dim, 0, 1, "vanish d=1", r, n, chi)
            else:
                tally.eq_ratio(rigid, 1, 1, "n=0", r, chi)
    # tie the sweep to the moduli constraint: spherical numerics have d=0,
    # isotropic numerics d=1, at every rank swept here
    for chi in (2, 5, 9):
        tally.eq(ModuliNumerics.spherical(r - 1, chi).d, 0, "spherical d", r, chi)
        tally.eq(ModuliNumerics.isotropic(r - 1, chi).d, 1, "isotropic d", r, chi)
    return tally.report(
        "thm3", "r=%d, n<=%d, chi in [%d,%d)" % (r, n_max, chi_range[0], chi_range[-1] + 1))


def _2pt_printed(s, c1sq, c2):
    return F(1, 4) * (2 * c1sq ** 2 + 2 * c2 ** 2 - 4 * c1sq * c2 - 8 * c1sq + 6 * c2
                      + s * (-9 * c1sq + 6 * c2 + 12)
                      + s * s * (-3 * c1sq + 2 * c2 + 22)
                      + 12 * s ** 3 + 2 * s ** 4)


def check_2pt_grid(s_range=range(-4, 5), c1sq_range=range(-2, 3), c2_range=range(-2, 3)):
    """Grid proof of the two-point polynomial identity.

    Both sides are polynomials of degree <= 4 in s and <= 2 in each of
    c1^2, c2; the default grid has 9 x 5 x 5 points, exceeding every
    degree bound, so agreement on it proves the identity.
    """
    tally = _Tally()
    for s in s_range:
        logs = catalog._SegreLogs(s, 2)
        for c1sq in c1sq_range:
            for c2 in c2_range:
                got = logs.segre_full(c2, c1sq, 2, 0, 0).coefficient(2)
                tally.eq(got, _2pt_printed(s, c1sq, c2), s, c1sq, c2)
    return tally.report(
        "2pt",
        "s in %s (deg 4), c1sq in %s (deg 2), c2 in %s (deg 2)"
        % (list(s_range), list(c1sq_range), list(c2_range)),
        detail="grid exceeds degree bounds in every variable")


def check_asymptotics(r, order=8):
    """Leading asymptotic series of log of the K3 Segre closed form.

    From the residue closed form, log S = (chi+1-d) U(z) + d log(1+(1+r)t)
    - log(1+r(1+r)t) with U(z) = log(1+r t(z)).  In the one-dimensional
    grouping log S = chi U + V this pins U and V; the checked leading
    coefficients are u1 = r, u2 = -r^3 - r^2/2, v1 = 1 - r^2.
    """
    tally = _Tally()
    z_of_t, t_of_z = catalog.segre_change_of_var(r, order)
    u_series = (1 + r * t_of_z).log()
    log_v = (1 + (1 + r) * t_of_z).log()
    log_q = (1 + r * (1 + r) * t_of_z).log()
    tally.eq(u_series.coefficient(1), F(r), "u1", r)
    tally.eq(u_series.coefficient(2), F(-r ** 3) - F(r * r, 2), "u2", r)
    v_series = log_v - log_q
    tally.eq(v_series.coefficient(1), F(1 - r * r), "v1", r)
    # the closed form itself against residue sums, across a (d, chi) grid
    for d in (0, 1, 3):
        for chi in (-2, 0, 3, 7):
            lhs = Series._over(1, [_residue(d, chi, r, n, 1 + r) for n in range(order + 1)], "z")
            rhs = (chi + 1 - d) * u_series + d * log_v - log_q
            tally.eq(lhs.log(), rhs, "closed form", r, d, chi)
    return tally.report(
        "asymptotics", "r=%d, order %d, d in (0,1,3), chi in (-2,0,3,7)" % (r, order),
        detail="V read from the d=1 grouping log S = chi U + V")


def check_chern_rank2(order=10, c2_range=range(-3, 9)):
    """Rank-2 Chern series on K3 numerics collapses to (1+z)^c2."""
    tally = _Tally()
    z = Series.gen(order, "z")
    logs = catalog._SegreLogs(-2, order)  # Chern at rank s reads the Segre factors at -s
    for c2 in c2_range:
        want = (1 + z) ** c2
        for c1sq in (-2, 0, 4):
            tally.eq(logs.chern_full(c2, c1sq, 2), want, c2, c1sq)
    tally.eq_coefficient(catalog.chern_full(2, 6, 0, 2, 2), 2, 15, "C(6,2)")
    return tally.report("chern_rank2", "c2 in %s, order %d" % (list(c2_range), order))


def check_spherical_chern(s, n_max=6, chi_range=None):
    """Chern integrals for rigid bundles on K3 vs (-r)^n C(-chi+rn, n), r=s-1.

    Includes the vanishing window (s-2)n < chi <= (s-1)n.
    """
    r = s - 1
    if chi_range is None:
        chi_range = range((s - 2) - 4, (s - 1) * n_max + 11)
    tally = _Tally()
    logs = catalog._SegreLogs(-s, n_max)  # Chern at rank s reads the Segre factors at -s
    for chi in chi_range:
        nums = ModuliNumerics.spherical(s, chi)
        tally.eq(nums.d, 0, "d", s, chi)
        series = logs.chern_full(nums.c2, nums.c1sq, 2)
        for n in range(n_max + 1):
            tally.eq_coefficient(series, n, (-r) ** n * _comb(-chi + r * n, n), s, chi, n)
            if n >= 1 and (s - 2) * n < chi <= (s - 1) * n:
                tally.eq_coefficient(series, n, 0, "vanish", s, chi, n)
        if s == 2:
            for n in range(n_max + 1):
                tally.eq_ratio((-r) ** n * _comb(-chi + r * n, n), _comb(chi - 1, n), 1,
                               "rank2 binomial flip", chi, n)
    return tally.report(
        "spherical_chern",
        "s=%d, n<=%d, chi in [%d,%d)" % (s, n_max, chi_range[0], chi_range[-1] + 1))


def check_abelian(r, n_max=6, chi_range=None):
    """Segre residues on abelian-type numerics vs r^n (chi/n) C(chi-rn-1, n-1).

    The residue carries an extra (1+r(r+1)t) factor and a shifted
    exponent relative to the K3 case; the closed form is the d=0 row.
    Both sides are polynomials in chi of degree <= n, so the default
    sweep proves the identity; both are compared in integers times n.
    """
    if chi_range is None:
        chi_range = range(-3, r * n_max + 12)
    tally = _Tally()
    for n in range(n_max + 1):
        for chi in chi_range:
            got = _residue(1, chi, r, n, r * (r + 1))
            if n == 0:
                tally.eq_ratio(got, 1, 1, "n=0", r, chi)
            else:
                want = r ** n * chi * _comb(chi - r * n - 1, n - 1)
                tally.eq_ratio(got, want, n, r, n, chi)
    return tally.report(
        "abelian",
        "r=%d, n<=%d, chi in [%d,%d) (chi-degree <= n per n)"
        % (r, n_max, chi_range[0], chi_range[-1] + 1))


def _enriques_w_chart(r, order):
    """u(t), w(t), F(t), G(t) for the Enriques closed form, in the t chart."""
    t = Series.gen(order, "t")
    u = t * (1 - r * t).inverse()
    w = u * (1 + u) ** (r * r - 1)  # the Verlinde variable, read in its chart u
    f_big = (1 + u) ** (r * r) * (1 + r * r * u).inverse()
    g_big = 1 + u
    return u, w, f_big, g_big


def check_enriques(r, n_max=5, chi_range=range(1, 7), form_order=20):
    """Chern-Verlinde agreement on Enriques numerics, plus the residue forms.

    (a) the two printed residue integrands agree under u = t/(1-tr);
    (b) the Chern side at rank r+1 with c2 = chi - (r-1)(n-1), c1^2 =
    2chi - 2, chi(O) = 1 equals (c) the coefficient of w^n in
    F(w)^(1/2) G(w)^chi, which itself matches the assembled twist-r
    Euler-characteristic series.
    """
    tally = _Tally()
    # (a) residue-form identity, checked at several (chi, n) pairs
    _, w, f_big, g_big = _enriques_w_chart(r, form_order + 1)
    w_over_t, dw = w.shift(-1), w.derivative()
    base = f_big.pow_rational(F(1, 2)).truncate(form_order)
    ns = (0, 1, 3)
    kernels = [dw * w_over_t ** -(n + 1) for n in ns]
    for chi in (1, 4):
        rhs_chi = base * g_big.truncate(form_order) ** chi
        for n, kernel in zip(ns, kernels):
            e2 = -chi + r * r * n - F(r * r, 2) - F(1, 2)
            e3 = chi - r * r * n + F(r * r, 2) + n - 1
            # (1 + r(r-1)t)^(1/2) (1 - rt)^e2 (1 + (1-r)t)^e3 as one exp of its log
            lhs = catalog._log1p_sum(form_order, (r * (r - 1), F(1, 2)), (-r, e2),
                                     (1 - r, e3)).exp()
            tally.eq(lhs, rhs_chi * kernel, "forms", r, chi, n)
    # (b) == (c), and (c) matches the assembled Euler-characteristic series
    _, w2, f2, g2 = _enriques_w_chart(r, n_max)
    root = f2.pow_rational(F(1, 2))
    t_of_w = w2.revert()
    t_of_w = Series._over(t_of_w.den, t_of_w.nums, "w")
    verlinde = catalog._VerlindeLogs(r, n_max)
    chern_logs = catalog._SegreLogs(-r - 1, n_max)  # Chern at rank r+1
    for chi in chi_range:
        v_in_w = (root * g2 ** chi).compose(t_of_w)
        tally.eq(v_in_w, verlinde.verlinde_full(chi, 1, 0, 0), "verlinde assembly", r, chi)
        for n in range(n_max + 1):
            c2 = chi - (r - 1) * (n - 1)
            chern = chern_logs.chern_full(c2, 2 * chi - 2, 1).coefficient(n)
            tally.eq(chern, v_in_w.coefficient(n), "chern=verlinde", r, chi, n)
    return tally.report(
        "enriques",
        "r=%d, n<=%d, chi in [%d,%d), forms to order %d"
        % (r, n_max, chi_range[0], chi_range[-1] + 1, form_order))


def check_blowup_excess(n):
    """Coefficient of h^(2n) zeta^n in (1-zeta)^(3n+2) / (1-h-zeta)^2.

    Expanding in h first, (1-h-zeta)^(-2) = sum_a (a+1) h^a (1-zeta)^(-a-2),
    so the h^(2n) part is (2n+1) (1-zeta)^(-2n-2) and the coefficient is
    (2n+1) [zeta^n] (1-zeta)^(3n+2) (1-zeta)^(-2n-2), a one-variable series.
    """
    zeta = Series.gen(n, "zeta")
    return (2 * n + 1) * ((1 - zeta) ** (3 * n + 2) * (1 - zeta) ** (-2 * n - 2)).coefficient(n)


def _blowup_direct(n):
    # [h^a zeta^b] (1-h-zeta)^(-2) = (a+b+1) C(a+b, a)
    return sum((-1) ** j * _comb(3 * n + 2, j) * (3 * n - j + 1) * _comb(3 * n - j, 2 * n)
               for j in range(n + 1))


def check_blowup(n_max=20):
    """Blowup excess coefficients equal (-1)^n (2n+1), two routes for small n."""
    tally = _Tally()
    for n in range(n_max + 1):
        got = check_blowup_excess(n)
        tally.eq(got, F((-1) ** n * (2 * n + 1)), n)
        if n <= 10:
            tally.eq(got, F(_blowup_direct(n)), "direct sum", n)
    return tally.report("blowup", "n<=%d, double-sum cross-check n<=10" % n_max)


def check_theta_constant(n, box_radius=2):
    """Constant term of the shifted theta sum of x^2 + xy + y^2.

    Lattice points (x, y) in (Z + 2n/3)^2: the form value is 0 exactly
    when n = 0 mod 3 (attained once, at the origin), and at least 1/3
    otherwise.  Since x^2+xy+y^2 = (x+y/2)^2 + 3y^2/4 >= (3/4)max(x^2,y^2),
    any point outside the radius-2 box has value >= 3, so the box
    minimum is the global minimum.
    """
    values = _theta_values(n, box_radius)  # keyed by 9q
    nine_min = min(values)
    minimum = F(nine_min, 9)
    tally = _Tally()
    if n % 3 == 0:
        tally.eq(minimum, F(0), n, "minimum")
        tally.eq(values[nine_min], 1, n, "multiplicity")
    else:
        tally.ok(minimum > 0, n, "minimum", minimum)
        tally.eq(minimum, F(1, 3), n, "nonzero minimum value")
    return tally.report(
        "theta", "n=%d, box radius %d" % (n, box_radius),
        detail="constant term %s" % (values.get(0, 0),))


def _theta_values(n, box_radius):
    """{9q: count} over the box, at the integer points (3x, 3y) = 3(i, j) + (2n mod 3)(1, 1)."""
    thirds = [3 * i + 2 * n % 3 for i in range(-box_radius, box_radius + 1)]
    return Counter(x * x + x * y + y * y for x in thirds for y in thirds)


def check_fgh_derivation(order=20):
    """Replays the rank-2 derivation of the last two Segre factors.

    With f = A0^5 A1^20 A3^2, g = A0^-4 A1^-22 A2^2 A3^-4 A4^-1 and
    h = A0^-3 A1^-18 A2^2 A3^-2 A4^-1 (all series in the natural
    variable, here parametrized by t through w = t(1+3t)^3), the checked
    chain is: z := w/f(w) equals the quartic branch y(t); the pivot
    w/f * h/g = t/(1+3t); f(w) = w/y; the two source identities
    (1-z)/(1+z)^2 = g/f dw/dz and 1/(1-z^3) = h/f dw/dz; their
    generating-function encodings; and the re-derived closed forms of
    the third and fourth factors.
    """
    big = order + 1
    t = Series.gen(big, "t")
    logs = [catalog._segre_log(2, i, big) for i in range(3)]
    a0, a1, a2, a3, a4 = (log.exp() for _, log in logs + list(catalog._segre34_logs(2, big)))
    f = a0 ** 5 * a1 ** 20 * a3 ** 2
    g = a0 ** -4 * a1 ** -22 * a2 ** 2 * a3 ** -4 * a4 ** -1
    h = a0 ** -3 * a1 ** -18 * a2 ** 2 * a3 ** -2 * a4 ** -1
    w = t * (1 + 3 * t) ** 3
    y = catalog.segre_rank2_branch(big)
    f_inv = f.inverse()
    z = w * f_inv
    tally = _Tally()
    tally.eq(f.coefficient(0), F(1), "f(0)")
    tally.eq(g.coefficient(0), F(1), "g(0)")
    tally.eq(h.coefficient(0), F(1), "h(0)")
    tally.eq(z.truncate(order), y.truncate(order), "z = y(t)")
    tally.eq((z * h * g.inverse()).truncate(order),
             (t * (1 + 3 * t).inverse()).truncate(order), "pivot")
    tally.eq(f.truncate(order), w.shift(-1) * y.shift(-1).inverse(), "f = w/y")
    # source identities via the chain rule in t
    dw, dz_inv, dy = w.derivative(), z.derivative().inverse(), y.derivative()
    dw_inv = dw.inverse()
    lhs1 = ((1 - z) * (1 + z) ** -2).truncate(order)
    rhs1 = (g * f_inv).truncate(order) * dw * dz_inv
    tally.eq(lhs1, rhs1, "first source identity")
    lhs2 = (1 - z ** 3).inverse().truncate(order)
    rhs2 = (h * f_inv).truncate(order) * dw * dz_inv
    tally.eq(lhs2, rhs2, "second source identity")
    # generating-function encodings
    zg = Series.gen(order, "z")
    enc1 = Series([F((-1) ** n * (2 * n + 1)) for n in range(order + 1)], order, "z")
    tally.eq(enc1, (1 - zg) * (1 + zg) ** -2, "alternating odd encoding")
    enc2 = Series([F(1 if n % 3 == 0 else 0) for n in range(order + 1)], order, "z")
    tally.eq(enc2, (1 - zg ** 3).inverse(), "cube encoding")
    # re-derive the closed factors from f, g, h
    tally.eq(a3.truncate(order),
             (f.pow_rational(F(1, 2)) * a0.pow_rational(F(-5, 2)) * a1 ** -10)
             .truncate(order), "third factor from f")
    g_re = (f * (1 - y) * (1 + y) ** -2).truncate(order) * dy * dw_inv
    tally.eq(g_re, g.truncate(order), "g from first identity")
    h_re = (f * (1 - y ** 3).inverse()).truncate(order) * dy * dw_inv
    tally.eq(h_re, h.truncate(order), "h from second identity")
    a4_from_g = (a0 ** -4 * a1 ** -22 * a2 ** 2 * a3 ** -4).truncate(order) * g_re.inverse()
    tally.eq(a4_from_g, a4.truncate(order), "fourth factor via g")
    a4_from_h = (a0 ** -3 * a1 ** -18 * a2 ** 2 * a3 ** -2).truncate(order) * h_re.inverse()
    tally.eq(a4_from_h, a4.truncate(order), "fourth factor via h")
    return tally.report("fgh", "order %d" % order)


def check_lagrange_burmann(f, g, order):
    """Lagrange inversion: sum_n [w^n](f^n g) z^n = g/f dw/dz at z = w/f(w).

    Exercises reversion, composition and division against a coefficient
    route that uses none of them.  f must have nonzero constant term.
    """
    if f.coefficient(0) == 0:
        raise ValueError("f must have a nonzero constant term")
    if f.order < order or g.order < order:
        raise ValueError("inputs must carry at least the requested order")
    f = f.truncate(order)
    g = g.truncate(order)
    coeffs = []
    power = g
    for n in range(order + 1):
        coeffs.append(power.coefficient(n))
        power = power * f
    lhs = Series(coeffs, order, "z").truncate(order - 1)
    z_of_w = Series.gen(order, "w") * f.inverse()
    w_of_z = z_of_w.revert()
    w_of_z = Series._over(w_of_z.den, w_of_z.nums, "z")
    rhs = ((g.compose(w_of_z) * f.compose(w_of_z).inverse()).truncate(order - 1)
           * w_of_z.derivative())
    tally = _Tally()
    tally.eq(lhs, rhs, "f", tuple(f.coeffs[:3]), "g", tuple(g.coeffs[:3]))
    return tally.report("lagrange_burmann", "order %d (compared to %d)" % (order, order - 1))


def _lagrange_burmann_suite(order=15, cases=10, seed=20260815):
    """Case c draws (f_k, g_k), f_0 := 1, from "seed/c": a prefix of itself at any higher order."""
    reports = []
    one = Series.one(order + 1, "w")
    reports.append(check_lagrange_burmann(one, one, order))
    w = Series.gen(order + 1, "w")
    reports.append(check_lagrange_burmann(1 + w, one, order))
    for case in range(cases):
        rng = random.Random("%d/%d" % (seed, case))
        f, g = zip(*[[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in "fg"]
                     for _ in range(order + 2)])
        reports.append(check_lagrange_burmann(Series((F(1),) + f[1:], order + 1, "w"),
                                              Series(g, order + 1, "w"), order))
    merged = _merge("lagrange_burmann", reports)
    merged.ranges = "order %d, %d random cases, seed %d" % (order, cases, seed)
    return merged


def check_verlinde_trivial(order=10, chi_range=range(-3, 8)):
    """Twist 0 and +-1 Euler-characteristic series vs the printed forms.

    (1-w)^(-chi) at twist 0 and (1+w)^chi at twist +-1, independent of
    the surface numerics; swept over several (chi(O), c1K, K^2) triples
    including an odd K^2.
    """
    tally = _Tally()
    w = Series.gen(order, "w")
    logs = {r: catalog._VerlindeLogs(r, order) for r in (0, 1, -1)}
    for chi in chi_range:
        want0, want1 = (1 - w).inverse() ** chi, (1 + w) ** chi
        for chiO, c1K, Ksq in ((1, -3, 9), (1, -2, 8), (2, 0, 0)):
            got0 = logs[0].verlinde_full(chi, chiO, c1K, Ksq)
            tally.eq(got0, want0, 0, chi, chiO, c1K, Ksq)
            for r in (1, -1):
                got = logs[r].verlinde_full(chi, chiO, c1K, Ksq)
                tally.eq(got, want1, r, chi, chiO, c1K, Ksq)
    return tally.report(
        "verlinde_trivial",
        "r in (0,1,-1), chi in [%d,%d), three numerics triples"
        % (chi_range[0], chi_range[-1] + 1))


def check_verlinde_segre_prediction(order=10):
    """Internal consistency of the conjectural twist 2, 3 factors.

    Not a proof: checks the Serre symmetry (third factor inverts, fourth
    is fixed), the quartic-branch cross-definition, and that the twist-3
    entries build from the algebraic branch without error.
    """
    tally = _Tally()
    for r in (2, 3):
        plus, minus = catalog._VerlindeLogs(r, order), catalog._VerlindeLogs(-r, order)
        b3_plus = plus.entry(3).series
        tally.eq(b3_plus * minus.entry(3).series, Series.one(order, "w"), "symmetry3", r)
        tally.eq(plus.entry(4).series, minus.entry(4).series, "symmetry4", r)
        tally.eq(b3_plus.coefficient(0), F(1), "unit", r)
    t = Series.gen(order, "t")
    tally.eq(catalog.verlinde_r3_branch(order),
             catalog.segre_rank2_branch(order).compose(t * (1 - 3 * t).inverse()),
             "branch cross-definition")
    tally.eq(plus[4][0], catalog.CONJECTURAL, "twist3 builds")  # plus is the twist-3 holder
    return tally.report(
        "verlinde_segre", "r in (2,3), order %d" % order,
        detail="conjecture-consistency only, not a proof")


# Each suite's reports at a given order; run_suite merges them under the suite's name.
_SUITES = {
    "thm3": lambda order: [check_thm3(r) for r in range(2, 7)],
    "2pt": lambda order: [check_2pt_grid()],
    "asymptotics": lambda order: [check_asymptotics(r, max(order, 6)) for r in range(2, 7)],
    "chern_rank2": lambda order: [check_chern_rank2(order)],
    "spherical_chern": lambda order: [check_spherical_chern(s) for s in range(2, 6)],
    "abelian": lambda order: [check_abelian(r) for r in range(2, 6)],
    "enriques": lambda order: [check_enriques(r, form_order=max(order, 10))
                               for r in range(2, 6)],
    "blowup": lambda order: [check_blowup(20)],
    "theta": lambda order: [check_theta_constant(n) for n in range(13)],
    "fgh": lambda order: [check_fgh_derivation(max(order, 10))],
    "lagrange_burmann": lambda order: [_lagrange_burmann_suite(max(order, 5))],
    "verlinde_trivial": lambda order: [check_verlinde_trivial(order)],
    "verlinde_segre": lambda order: [check_verlinde_segre_prediction(order)],
}


def suite_names():
    return sorted(_SUITES)


def run_suite(names=None, order=10):
    """Run the named checks (all by default); reports sorted by name."""
    if names is None:
        names = suite_names()
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise KeyError("unknown check suite(s): %s" % ", ".join(unknown))
    return [_merge(name, _SUITES[name](order)) for name in sorted(names)]
