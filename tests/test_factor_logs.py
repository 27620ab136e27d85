"""The catalog's factor-log holders against the per-call assembly they replaced.

Before the holders, every full series was one sum of factor logs in t,
one Lagrange-Buermann substitution of that sum and one exp, rebuilt for
each call.  ref_segre_full and ref_verlinde_full below are that assembly;
the substitution is linear and the arithmetic exact, so the holders must
give the same integers, and the same error texts, at every point.
"""

from fractions import Fraction as F

import pytest

from hilbseries import catalog, extraction, verify
from hilbseries.catalog import UnknownSeriesError
from hilbseries.series import Series


def ref_log_sum(log_of, param, exponents, order):
    log = Series.zero(order)
    for index, e in exponents:
        if e:
            log = log + e * log_of(param, index, order)[1]
    return log


def ref_segre_log(s, index, order):
    if index in (3, 4):
        return catalog._segre34_logs(s, order, index)[index - 3]
    return catalog._segre_log(s, index, order)


def ref_verlinde_log(r, index, order):
    if index in (3, 4):
        return catalog._verlinde34_logs(r, order, index)[index - 3]
    return catalog._verlinde_log(r, index, order)


def ref_segre_full(s, c2, c1sq, chiO, c1K, Ksq, order):
    log = ref_log_sum(ref_segre_log, s, enumerate((c2, c1sq, chiO)), order)
    if c1K or Ksq:
        a3, a4 = (tail for _, tail in catalog._segre34_logs(s, order, 3 if c1K else 4))
        log = log + c1K * a3 + Ksq * a4
    return catalog._lagrange(log, s + 1, s + 1, "z").exp()


def ref_verlinde_full(r, chi_c1, chiO, c1K, Ksq, order):
    log = ref_log_sum(ref_verlinde_log, r, ((1, chi_c1), (2, chiO)), order)
    e3 = F(2 * c1K - Ksq, 2)
    if e3 or Ksq:
        b3, b4 = (tail for _, tail in catalog._verlinde34_logs(r, order, 4 if Ksq else 3))
        log = log + Ksq * b4
        if e3.denominator == 1:
            log = log + e3 * b3
        elif not b3.is_zero():
            raise ValueError(
                "third-factor exponent %s is not an integer (odd K^2) and the "
                "factor at twist %d is nontrivial" % (e3, r))
    return catalog._lagrange(log, 1, r * r - 1, "w").exp()


def outcome(fn, *args):
    """(order, den, nums, var) of the result, or the error's type and text."""
    try:
        series = fn(*args)
    except (UnknownSeriesError, ValueError) as error:
        return type(error).__name__, str(error)
    return series.order, series.den, series.nums, series.var


# K-nontrivial numerics (c2, c1^2, chi(O), c1.K, K^2), and the Verlinde
# (chi(L), chi(O), c1.K, K^2) with an even and an odd K^2
SEGRE_NUMERICS = [(0, 0, 0, 0, 0), (3, -2, 1, 0, 0), (2, -1, 1, 3, 1), (-5, 7, -3, -2, 9),
                  (1, 1, 1, 0, 8), (4, 0, 2, -3, 0)]
VERLINDE_NUMERICS = [(0, 0, 0, 0), (3, 1, 4, 9), (7, -2, 4, 8), (-7, 3, -5, 2), (4, 2, 0, 0),
                     (2, 1, 0, 3), (0, 1, 3, 0)]


@pytest.mark.parametrize("order", range(13))
def test_segre_and_chern_assembly(order):
    for s in range(-4, 6):
        logs = catalog._SegreLogs(s, order)
        for numerics in SEGRE_NUMERICS:
            want = outcome(ref_segre_full, s, *numerics, order)
            assert outcome(catalog.segre_full, s, *numerics, order) == want, (s, numerics)
            assert outcome(logs.segre_full, *numerics) == want, (s, numerics)
        for c2, c1sq, chiO in ((3, -2, 1), (0, 4, 2), (-1, 0, 0)):
            want = outcome(ref_segre_full, -s, c1sq - c2, c1sq, chiO, 0, 0, order)
            assert outcome(catalog.chern_full, s, c2, c1sq, chiO, order) == want, s


@pytest.mark.parametrize("order", range(13))
def test_verlinde_assembly(order):
    for r in range(-4, 5):
        logs = catalog._VerlindeLogs(r, order)
        for numerics in VERLINDE_NUMERICS:
            want = outcome(ref_verlinde_full, r, *numerics, order)
            assert outcome(catalog.verlinde_full, r, *numerics, order) == want, (r, numerics)
            assert outcome(logs.verlinde_full, *numerics) == want, (r, numerics)


def ref_entry(family, log_of, param, index, order, a, b, var):
    status, log = log_of(param, index, order)
    return catalog.SeriesEntry(family, index, param, status,
                               catalog._lagrange(log, a, b, var).exp())


def entry(lookup, *args):
    """The entry's fields with its series as (order, den, nums, var), or the error text."""
    try:
        got = lookup(*args)
    except UnknownSeriesError as error:
        return str(error)
    series = got.series
    return (got.family, got.index, got.rank, got.status,
            series.order, series.den, series.nums, series.var)


@pytest.mark.parametrize("order", [0, 1, 12])
def test_factors(order):
    for s in range(-4, 6):
        for index in range(-1, 6):
            want = entry(ref_entry, "segre", ref_segre_log, s, index, order, s + 1, s + 1, "z")
            assert entry(catalog.segre_A, s, index, order) == want, (s, index)
    for r in range(-4, 5):
        for index in range(6):
            want = entry(ref_entry, "verlinde", ref_verlinde_log, r, index, order,
                         1, r * r - 1, "w")
            assert entry(catalog.verlinde_B, r, index, order) == want, (r, index)


def test_unknown_factor_texts():
    for numerics, index in (((3, 2, 2, 1, 0), 3), ((3, 2, 2, 1, 1), 3), ((3, 2, 2, 0, 1), 4)):
        with pytest.raises(UnknownSeriesError) as info:
            catalog.segre_full(4, *numerics, 6)
        assert str(info.value) == "Segre factor %d has no known closed form at rank 4" % index
    for numerics, index in (((2, 1, 1, 0), 3), ((2, 1, 1, 2), 4), ((2, 1, 4, 9), 4)):
        with pytest.raises(UnknownSeriesError) as info:
            catalog.verlinde_full(5, *numerics, 6)
        assert str(info.value) == "Verlinde factor %d has no known closed form at twist 5" % index
    with pytest.raises(ValueError) as info:
        catalog.verlinde_full(-3, 2, 1, 4, 9, 6)
    assert str(info.value) == ("third-factor exponent -1/2 is not an integer (odd K^2) and "
                               "the factor at twist -3 is nontrivial")


def count_calls(monkeypatch, module, name):
    """The positional arguments of every call of module.name from here on."""
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    if isinstance(vars(module).get(name), staticmethod):
        counted = staticmethod(counted)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_spherical_chern_reads_each_log_once(monkeypatch):
    # one holder per rank: the chi sweep changes c2 and c1^2, never the logs
    assert catalog._SegreLogs._low is catalog._segre_log
    calls = count_calls(monkeypatch, catalog._SegreLogs, "_low")
    substitutions = count_calls(monkeypatch, catalog, "_lagrange")
    for s in range(2, 6):
        calls.clear()
        substitutions.clear()
        assert verify.check_spherical_chern(s).passed
        assert sorted(calls) == [(-s, index, 6) for index in range(3)], s
        assert len(substitutions) == 3, s


def test_sweeps_build_one_holder_per_rank(monkeypatch):
    built = count_calls(monkeypatch, catalog._Logs, "__init__")
    assert verify.check_2pt_grid().passed
    assert len(built) == 9
    built.clear()
    assert verify.check_chern_rank2(10).passed
    assert len(built) == 2  # the sweep's, and its one C(6,2) point at order 2
    built.clear()
    assert verify.check_verlinde_trivial(10).passed and len(built) == 3
    built.clear()
    assert verify.check_enriques(2, form_order=10).passed
    assert len(built) == 1 + 1  # one Verlinde holder, one Chern holder for every order


def test_verlinde_segre_reads_one_holder_per_twist(monkeypatch):
    # B3 and B4 at +-2 and +-3 from four holders: the twist +-3 ones solve the
    # branch once each, and the cross-definition solves it at the order itself
    branches = count_calls(monkeypatch, catalog, "verlinde_r3_branch")
    substitutions = count_calls(monkeypatch, catalog, "_lagrange")
    assert verify.check_verlinde_segre_prediction(10).passed
    assert branches == [(11,), (11,), (10,)]
    assert len(substitutions) == 4 * 2


def test_a_factor_lookup_substitutes_only_its_own_log(monkeypatch):
    # A3 at rank 1 substitutes A3's log alone, though A4's comes from the same mean
    # root; a second read of the holder substitutes A4 and reuses the root
    substitutions = count_calls(monkeypatch, catalog, "_lagrange")
    tails = count_calls(monkeypatch, catalog._SegreLogs, "_tail")
    segre_A = catalog.segre_A(1, 3, 12)
    assert (len(substitutions), len(tails)) == (1, 1)
    logs = catalog._SegreLogs(1, 12)
    assert logs.entry(3) == segre_A
    assert logs[4] == logs[4]
    assert (len(substitutions), len(tails)) == (3, 2)


@pytest.mark.parametrize("lookup, param, index", [
    (catalog.segre_A, -1, 3), (catalog.segre_A, -2, 4), (catalog.segre_A, 0, 4),
    (catalog.verlinde_B, 0, 4), (catalog.verlinde_B, -1, 3)])
def test_a_trivial_factor_runs_no_substitution_loop(monkeypatch, lookup, param, index):
    # the loop puts its 1/n over lcm(1..order) first; a zero log reads none of it
    var = "z" if lookup is catalog.segre_A else "w"
    substitutions = count_calls(monkeypatch, catalog, "_lagrange")
    entry = lookup(param, index, 20)
    assert entry.status == catalog.TRIVIAL and entry.series == Series.one(20, var)
    (log, a, b, _), = substitutions
    assert log.is_zero()
    scales = count_calls(monkeypatch, catalog, "lcm")
    assert catalog._lagrange(log, a, b, var) == Series.zero(20, var) and scales == []


@pytest.mark.parametrize("lookup, param, family", [
    (catalog.segre_A, 3, "Segre factor %d has no known closed form at rank 3"),
    (catalog.segre_A, -5, "Segre factor %d has no known closed form at rank -5"),
    (catalog.verlinde_B, 4, "Verlinde factor %d has no known closed form at twist 4")])
def test_unknown_third_and_fourth_factor_texts(lookup, param, family):
    for index in (3, 4):
        with pytest.raises(UnknownSeriesError) as info:
            lookup(param, index, 6)
        assert str(info.value) == family % index


@pytest.mark.parametrize("predict, param, branch, status", [
    (extraction.predict_unknown, 2, "segre_rank2_branch", catalog.PROVEN),
    (extraction.predict_verlinde, 3, "verlinde_r3_branch", catalog.CONJECTURAL),
    (extraction.predict_verlinde, -3, "verlinde_r3_branch", catalog.CONJECTURAL)])
def test_one_branch_solve_per_report(monkeypatch, predict, param, branch, status):
    # the third and fourth closed forms of a report come from one holder
    calls = count_calls(monkeypatch, catalog, branch)
    report = predict(param, 3)
    assert calls == [(4,)]
    assert [row["status"] for row in report["series"][-2:]] == [status, status]
    assert all(row["agreement_order"] == 3 for row in report["series"])


def ref_logs_exp(logs, exponents):
    """The Series sum that _Logs.exp ran before its one integer pass: one scalar
    product and one addition, each normalized, per nonzero exponent."""
    log = Series.zero(logs.order, logs.var)
    for index, e in exponents:
        if e:
            log = log + e * logs[index][1]
    return log.exp()


# (index, exponent) lists: int, negative and Fraction exponents, zeros on factors
# that may be unknown, and the third and fourth factors asked for in both orders
SEGRE_EXPONENTS = [(), ((3, 2), (4, -1), (0, 5), (1, -3), (2, 1)),
                   ((0, F(1, 2)), (2, F(-7, 3)), (1, 0)), ((1, -4), (3, 0), (4, 0)),
                   ((4, F(5, 4)), (3, F(-3, 2)), (2, -2)), ((0, 0), (2, 0))]
VERLINDE_EXPONENTS = [(), ((4, 3), (3, F(-5, 2)), (1, 7), (2, -2)),
                      ((1, F(2, 3)), (2, F(-1, 6))), ((3, 0), (4, 0), (2, 4)),
                      ((3, -1), (4, F(9, 2)), (1, 0)), ((1, 0),)]


def exp_outcome(exp, logs, exponents):
    """outcome of exp(logs, exponents), and the keys the holder has read, in order."""
    return outcome(exp, logs, exponents), list(logs._read)


@pytest.mark.parametrize("order", range(31))
def test_logs_exp_is_the_series_sum(order):
    holders = [(catalog._SegreLogs, s, SEGRE_EXPONENTS) for s in range(-4, 4)]
    holders += [(catalog._VerlindeLogs, r, VERLINDE_EXPONENTS) for r in range(-3, 4)]
    for holder, param, exponent_lists in holders:
        for exponents in exponent_lists:
            # a fresh holder each side: both read the same factors, in the same order
            want = exp_outcome(ref_logs_exp, holder(param, order), exponents)
            got = exp_outcome(catalog._Logs.exp, holder(param, order), exponents)
            assert got == want, (holder.family, param, exponents)


def test_logs_exp_unknown_factor_texts():
    # the first unknown factor asked for names the error, as in the Series sum
    # (test_unknown_factor_texts: segre_full asks for c1.K first)
    for logs, exponents, text in [
            (catalog._SegreLogs(3, 5), ((4, 1), (3, 1)),
             "Segre factor 4 has no known closed form at rank 3"),
            (catalog._SegreLogs(3, 5), ((0, 2), (3, F(1, 2)), (4, 1)),
             "Segre factor 3 has no known closed form at rank 3"),
            (catalog._VerlindeLogs(4, 5), ((1, 1), (3, 0), (4, -2)),
             "Verlinde factor 4 has no known closed form at twist 4")]:
        assert outcome(ref_logs_exp, logs, exponents) == ("UnknownSeriesError", text)
        assert outcome(logs.exp, exponents) == ("UnknownSeriesError", text)
