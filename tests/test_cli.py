"""CLI behavior: output formats, config echo, exit codes, reproducibility."""

import hashlib
import json
import os
import sys
import time

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbseries import catalog, cli, extraction, verify
from hilbseries import localization as loc


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    capsys.readouterr()
    return info.value.code


OVER_BUDGET = ("hilbseries: error: this %s request is beyond the cost budget (estimated work "
               "above 10000000000 ns of CPU)\n")
OVER_LIMIT = ("hilbseries: error: this %s request is beyond the cost budget (printed numbers "
              "above 4300 digits)\n")


def refused(capsys, argv):
    """The stderr of a request refused with exit 2 and no stdout."""
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    return captured.err


class TestSeries:
    def test_branch_coefficients(self, capsys):
        code, out = run(capsys, "series", "--family", "y", "--order", "5")
        assert code == 0
        assert "1/1, -6/1, 41/1, -314/1, 2630/1" in out
        assert out.startswith("# hilbseries ")

    def test_json_format_echoes_config(self, capsys):
        code, out = run(capsys, "series", "--family", "segreA", "--rank", "2",
                        "--index", "3", "--order", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["rank"] == 2
        assert doc["config"]["status"] == "proven"
        assert doc["coefficients"][:3] == ["1/1", "0/1", "-7/1"]
        assert doc["var"] == "z"

    def test_csv_format(self, capsys):
        code, out = run(capsys, "series", "--family", "Y", "--order", "3",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "n,coefficient"
        assert lines[2] == "1,1/1"
        assert lines[3] == "2,-3/1"

    def test_coefficients_are_frac_str(self, capsys):
        # each coefficient from the integers with one gcd; the Fraction in
        # lowest terms is the reference
        from fractions import Fraction
        from hilbseries import catalog, extraction
        for num in range(-12, 13):
            for den in range(1, 13):
                x = Fraction(num, den)
                want = "%d/%d" % (x.numerator, x.denominator)
                assert extraction.frac_str(num, den) == want, (num, den)
        for family, rank, index, series, offset in [
                ("segreA", 2, 4, catalog.segre_A(2, 4, 12).series, 0),
                ("chernA", -3, 1, catalog.chern_A(-3, 1, 12).series, 0),
                ("verlindeB", -2, 3, catalog.verlinde_B(-2, 3, 12).series, 0),
                ("Y", None, None, catalog.verlinde_r3_branch(12), 1)]:
            argv = ["series", "--family", family, "--order", "12", "--format", "json"]
            if rank is not None:
                argv += ["--rank", str(rank), "--index", str(index)]
            code, out = run(capsys, *argv)
            assert code == 0
            assert json.loads(out)["coefficients"] == [
                extraction.frac_str(series.coefficient(n)) for n in range(offset, 13)]

    def test_missing_rank_is_usage_error(self, capsys):
        assert run_usage_error(capsys, "series", "--family", "segreA") == 2

    def test_rank_on_branch_family_is_usage_error(self, capsys):
        assert run_usage_error(capsys, "series", "--family", "y", "--rank", "1") == 2

    def test_unknown_series_is_usage_error(self, capsys):
        assert run_usage_error(capsys, "series", "--family", "segreA",
                               "--rank", "9", "--index", "3") == 2

    def test_order_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ORDER_ENV, "3")
        code, out = run(capsys, "series", "--family", "y")
        assert code == 0
        assert out.strip().splitlines()[-1] == "1/1, -6/1, 41/1"

    def test_bad_env_order_is_usage_error(self, capsys, monkeypatch):
        # int() alone reads the Arabic-Indic three as 3 and "1_0" as 10
        for value in ("ten", "\u0663", "1_0"):
            monkeypatch.setenv(cli.ORDER_ENV, value)
            with pytest.raises(SystemExit) as info:
                cli.main(["series", "--family", "y"])
            assert info.value.code == 2
            assert capsys.readouterr().err.endswith(
                "error: %s must be an integer, got %r\n" % (cli.ORDER_ENV, value))


ORDER_COMMANDS = [
    "series --family segreA --rank 1 --index 3",
    "series --family chernA --rank 1 --index 0",
    "series --family verlindeB --rank 2 --index 3",
    "series --family y",
    "verify --suite all",
    "extract --rank 1",
    "extract --rank 0 --kind verlinde",
]


class TestOrderBelowOne:
    @pytest.mark.parametrize("order", ["0", "-1"])
    @pytest.mark.parametrize("argv", ORDER_COMMANDS)
    def test_order_flag_is_usage_error(self, capsys, monkeypatch, argv, order):
        monkeypatch.delenv(cli.ORDER_ENV, raising=False)
        assert run_usage_error(capsys, *argv.split(), "--order", order) == 2

    @pytest.mark.parametrize("argv", ORDER_COMMANDS)
    def test_order_env_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv(cli.ORDER_ENV, "0")
        assert run_usage_error(capsys, *argv.split()) == 2


# int() alone reads "1_0" as 10, the Arabic-Indic three as 3 and a fullwidth two
# as 2; the option read by the ASCII rule comes last
ASCII_INTEGER_OPTIONS = [
    "series --family=y --order=1_0",
    "series --family=segreA --index=1 --rank=\u0663",
    "series --family=segreA --rank=1 --index=\uff12",
    "verify --suite=theta --order=\u0663",
    "oracle --surface=p2 --class=O(1) --kind=segre --n=\uff12",
    "oracle --surface=p2 --class=O(1) --n=1 --kind=verlinde --r=\u0663",
    "oracle --surface=p2 --class=O(1) --n=1 --kind=segre --seed=1_0",
    "extract --order=1 --rank=\u0663",
    "extract --rank=1 --order=\uff12",
    "extract --rank=1 --order=1 --seed=1_0",
]


@pytest.mark.parametrize("argv", ASCII_INTEGER_OPTIONS)
def test_integer_options_are_ascii_digits(capsys, monkeypatch, argv):
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    option, value = argv.split()[-1].split("=")
    with pytest.raises(SystemExit) as info:
        cli.main(argv.split())
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert captured.err.endswith("error: argument %s: invalid int value: %r\n"
                                 % (option, value))


HUGE = "1" + "0" * 5000


@pytest.mark.parametrize("argv", [
    ["series", "--family=y", "--order=" + HUGE],
    ["oracle", "--surface", "p2", "--class", "O(1)", "--n", "1", "--kind", "verlinde",
     "--r=" + HUGE]], ids=["series --order", "oracle --r"])
def test_an_integer_option_past_the_int_limit_gets_one_short_line(capsys, argv):
    # int() cannot read it; the refusal echoes its first 80 digits, not all 5,001
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert captured.err == ("hilbseries: error: integer %r... (5001 characters) is beyond "
                            "int()'s digit limit\n" % HUGE[:80])
    assert len(captured.err.encode()) < 200


# The equivalence of the option table's read and argparse, over argv drawn from each
# subcommand's option strings, abbreviations, help, unknown options, repeats, bare
# options and stray values; values are integers, "-", "--", empty, non-ASCII digits,
# a 5,001-digit integer, choices and class specs.
JUNK_VALUES = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["-", "--", "", "-3", " 3 ", "1_0", "\u0663", "\uff12", HUGE, "-h",
                     "--json", "all", "theta", "nope", "p2", "segre", "y", "out.json",
                     "O(1)", "O(1,0)+O(0,1)", "-O(1)+O(2)", "O(1)O(2)"]))


def _good_values(keywords):
    if "choices" in keywords:
        return st.sampled_from(list(keywords["choices"]))
    if "type" in keywords:
        return st.integers(-30, 30).map(str)
    return st.sampled_from(["all", "theta", "-", "out.json", "O(2)", "O(1,1)-O(1,0)"])


@st.composite
def command_lines(draw):
    # half the draws are well formed (each option at most once, the required ones
    # always, a value of the option's own kind), so that the table reads many of them
    command = draw(st.sampled_from(cli._COMMANDS))
    options = cli._OPTIONS[command]
    if draw(st.booleans()):
        items = [(flag, draw(_good_values(keywords))) for flag, keywords in options.items()
                 if keywords.get("required") or draw(st.booleans())]
        forms = ["=", " ", "bare"] if "--json" in options else ["=", " "]
    else:
        strays = [flag[:-1] for flag in options if len(flag) > 3]
        strays += ["-h", "--help", "--bogus", "--", "-"]
        items = [(flag, draw(st.one_of(_good_values(options[flag]), JUNK_VALUES)
                             if flag in options else JUNK_VALUES))
                 for flag in draw(st.lists(st.sampled_from(list(options) + strays), max_size=8))]
        forms = ["=", " ", "bare", "value"]
    argv = [command]
    for flag, value in draw(st.permutations(items)):
        form = draw(st.sampled_from(forms))
        argv += {"=": [flag + "=" + value], " ": [flag, value], "bare": [flag],
                 "value": [value]}[form]
    return argv


@settings(max_examples=600, deadline=None)
@given(argv=command_lines())
@example(["verify", "--suite=--"])  # the table refuses a value "--" after "=" itself
@example(["verify", "--json=--"])
@example(["oracle", "--surface=p2", "--class=--", "--n=1", "--kind=segre"])
@example(["extract", "--rank", "-3"])
def test_the_table_read_equals_argparse(argv):
    quiet = contextlib.redirect_stderr(io.StringIO())
    try:
        args = cli._read(argv)
    except cli.UsageError:  # not compared: each Python's argparse reads "--" its own way
        assert any(word.partition("=")[2] == "--" for word in argv[1:])
        return
    except cli.Refusal:  # an integer past int()'s limit, which argparse meets too
        with quiet, pytest.raises((cli.Refusal, SystemExit)):
            cli.build_parser().parse_args(argv)
        return
    if args is not None:
        with quiet, contextlib.redirect_stdout(io.StringIO()):
            assert vars(cli.build_parser().parse_args(argv)) == vars(args)


# The cost budget over the four subcommands' argv grammar: integers of up to 4,000
# digits, and now and then not ASCII, classes of up to 20,000 terms or of 5,001-digit
# coefficients, long twists, a 5,000-character suite name, and orders from
# HILBSERIES_ORDER, one of them past int()'s digit limit.
def _int_values(low, high):
    big = st.sampled_from([10 ** 6, 10 ** 80 - 1, 10 ** 300, 10 ** 3999]) | st.integers(
        1, 4000).map(lambda digits: 10 ** digits - 1)
    return st.integers(low, high) | (big | big.map(lambda value: -value) if low < 0 else big)


@st.composite
def budget_requests(draw):
    """(argv, HILBSERIES_ORDER or None, whether the request is surely past the budget)."""
    command = draw(st.sampled_from(cli._COMMANDS))
    env = draw(st.none() | _int_values(1, 30).map(str) | st.sampled_from(["\u0663", HUGE]))
    argv, values, digits, terms = [command], {}, 0, 1

    def option(flag, value):
        text = str(value)
        if isinstance(value, int) and draw(st.integers(0, 9)) == 0:
            text, value = "\u0663" + text, 0  # Arabic-Indic three: a usage error
        argv.extend(draw(st.sampled_from([[flag + "=" + text], [flag, text]])))
        values[flag] = value
    if command == "series":
        family = draw(st.sampled_from(["segreA", "verlindeB", "y"]))
        option("--family", family)
        if family != "y":
            option("--rank", draw(_int_values(-5, 5)))
            option("--index", 1)
    elif command == "oracle":
        surface = draw(st.sampled_from(["p2", "p1xp1", "f1"]))
        kind = draw(st.sampled_from(["segre", "chern", "verlinde"]))
        digits = draw(st.sampled_from([0, 1, 3, 80, 2201, 5001]))  # 0: a bad term "O(x)"
        terms = 1 if kind == "verlinde" else draw(st.sampled_from(
            [0, 1, 2, 50] + [2000, 20000] * (digits < 100)))
        term = "O(%s)" % ",".join(["9" * digits or "x"] + ["0"] * (surface != "p2"))
        option("--surface", surface)
        option("--class", "+".join([term] * terms))
        option("--n", draw(_int_values(0, 30)))
        option("--kind", kind)
        if kind == "verlinde":
            option("--r", draw(_int_values(-5, 5)))
    elif command == "extract":
        option("--kind", draw(st.sampled_from(["segre", "verlinde"])))
        option("--rank", draw(_int_values(-70, 70)))
    else:
        option("--suite", draw(st.sampled_from(["all", "theta", "x" * 5000])))
    if command != "oracle" and (env is None or draw(st.booleans())):
        option("--order", draw(_int_values(1, 30)))
    order = values.get("--order", int(env) if env and env.isascii() and env != HUGE else 0)
    n, size = values.get("--n", 0), len(str(abs(values.get("--rank", values.get("--r", 0)))))
    if command == "series":
        over = order >= 2000 or size > 2200
    elif command == "verify":
        over = order >= 300
    elif command == "oracle":
        over = n >= 40 or n >= 1 and max(digits, size) > 2200 or n >= 20 and terms >= 2000
    else:
        over = order >= 60 or size > 2200 or (
            values["--kind"] == "segre" and abs(values["--rank"]) >= 10 ** 7)
    return argv, env, over


@settings(max_examples=300, deadline=None)
@given(request=budget_requests())
def test_every_request_exits_two_or_reaches_work_within_the_budget(request):
    argv, env, over = request
    for name in loc.surface_names():  # each validates itself by a chart pass once
        loc.get_surface(name)

    def reach(*args, **kwargs):
        raise _Reached()

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        for module, name in [(loc, "_chart_pass"), (loc, "_chart_product"),
                             (extraction, "default_panel"), (verify, "run_suite")] + [
                (catalog, entry) for entry in ("segre_A", "chern_A", "verlinde_B",
                                               "segre_rank2_branch", "verlinde_r3_branch")]:
            patch.setattr(module, name, reach)
        if env is None:
            patch.delenv(cli.ORDER_ENV, raising=False)
        else:
            patch.setenv(cli.ORDER_ENV, env)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(argv)
                outcome = None
            except SystemExit as exc:
                outcome = exc.code
            except _Reached:
                outcome = "work"
    # exit 2 with one error line, short before any fixed list of choices, after at most
    # the parser's usage; or the work reached, which a request surely past the budget
    # never does
    lines = err.getvalue().splitlines()
    assert outcome == 2 or outcome == "work" and not over and not lines
    assert len(lines) <= 4
    assert all(len(line.partition("; choose from")[0].encode()) < 200 for line in lines[-1:])


def test_the_estimate_grows_with_each_input():
    # the work _check_budget estimates never falls as n, the order, the class terms or the
    # digits grow, until the budget refuses the request
    def work(argv):
        args = cli._read(argv)
        if args.command != "oracle":
            args.order = cli._resolve_order(args)
        try:
            return cli._check_budget(args)[0]
        except cli.Refusal:
            return cli.BUDGET + 1

    rows = [[work(["oracle", "--surface=p1xp1", "--class=" + "+".join(["O(1,%s)" % size] * terms),
                   "--n=%d" % n, "--kind=segre"]) for n in range(30)]
            for terms in (1, 2, 50) for size in ("0", "9" * 20, "9" * 60)]
    rows += [[work(["oracle", "--surface=p2", "--class=O(1)", "--n=%d" % n, "--kind=verlinde",
                    "--r=%d" % r]) for n in range(30)] for r in (3, 10 ** 20)]
    rows += [[work([command, "--order=%d" % order] + flags) for order in range(1, 1000, 7)]
             for command, flags in (("verify", []), ("series", ["--family=y"]),
                                    ("series", ["--family=segreA", "--rank=10000", "--index=1"]),
                                    ("extract", ["--rank=64"]), ("extract", ["--kind=verlinde",
                                                                             "--rank=3"]))]
    for row in rows:
        assert row == sorted(row) and row[-1] == cli.BUDGET + 1
    for column in zip(*rows[:9]):  # terms, then digits, at each n
        assert list(column[::3]) == sorted(column[::3]) and list(column[:3]) == sorted(column[:3])


def test_a_chern_step_has_its_own_width(monkeypatch):
    # c(E) = s(-E): a Chern step divides by 1 + ku only at E's minus terms, so -E's Chern
    # request is estimated at least as E's Segre request, a plus-only class at about half
    def work(surface, spec, n, kind):
        args = cli._read(["oracle", "--surface=" + surface, "--class=" + spec, "--n=%d" % n,
                          "--kind=" + kind])
        try:
            return cli._check_budget(args)[0]
        except cli.Refusal:
            return cli.BUDGET + 1

    for n in (1, 12, 26):
        assert work("p2", "-O(1)", n, "chern") > work("p2", "O(1)", n, "segre")
        assert work("p2", "O(2) - O(1)", n, "chern") > work("p2", "O(1)-O(2)", n, "segre")
    assert work("f1", "O(1,1)", 26, "chern") < cli.BUDGET < work("f1", "O(1,1)", 26, "segre")
    assert [work("f1", "O(1,-2)", n, "chern") for n in range(31)] == sorted(
        work("f1", "O(1,-2)", n, "chern") for n in range(31))
    monkeypatch.setattr(cli, "chern_integral", lambda kclass, n: 7)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["oracle", "--surface=f1", "--class=O(1,1)", "--n=26",
                         "--kind=chern"]) == 0
    assert out.getvalue().endswith("\n7/1\n")


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "theta", "--order", "6")
        assert code == 0
        assert "theta" in out and "PASS" in out

    def test_json_to_stdout(self, capsys):
        code, out = run(capsys, "verify", "--suite", "blowup", "--order", "4",
                        "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["reports"][0]["name"] == "blowup"

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run_usage_error(capsys, "verify", "--suite", "nope") == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        bad = verify.CheckReport(name="broken", passed=False, checks=1,
                                 ranges={}, counterexample=(1, 2),
                                 detail="synthetic")
        monkeypatch.setattr(verify, "run_suite", lambda names, order: [bad])
        code, out = run(capsys, "verify", "--suite", "all")
        assert code == 1
        assert "FAIL" in out and "(1, 2)" in out

    def test_failure_table_prints_the_json_items(self, capsys, monkeypatch):
        # the table prints each counterexample item as --json does, with str
        from fractions import Fraction
        bad = verify.CheckReport(name="broken", passed=False, checks=1, ranges={},
                                 counterexample=("d=1", 2, 2, -3, Fraction(97), Fraction(-1, 2)),
                                 detail="synthetic")
        monkeypatch.setattr(verify, "run_suite", lambda names, order: [bad])
        code, out = run(capsys, "verify", "--suite", "all")
        assert code == 1
        assert out.splitlines()[-1] == \
            "broken             FAIL  (1 checks)  counterexample: (d=1, 2, 2, -3, 97, -1/2)"
        code, out = run(capsys, "verify", "--suite", "all", "--json")
        assert json.loads(out)["reports"][0]["counterexample"] == \
            ["d=1", "2", "2", "-3", "97", "-1/2"]


class TestOracle:
    def test_segre_table_output(self, capsys):
        code, out = run(capsys, "oracle", "--surface", "p2", "--class", "O(2)",
                        "--n", "1", "--kind", "segre")
        assert code == 0
        assert out.strip().splitlines()[-1] == "4/1"
        assert "seed=20260815" in out

    def test_trailing_space_in_class_is_read(self, capsys):
        code, out = run(capsys, "oracle", "--surface", "p1xp1", "--class",
                        "O(2,1)+O(0,1) ", "--n", "1", "--kind", "segre")
        assert code == 0
        assert "class=O(2,1)+O(0,1) " in out

    def test_verlinde_json_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _ = run(capsys, "oracle", "--surface", "p2", "--class", "O(2)",
                      "--n", "1", "--kind", "verlinde", "--r", "2",
                      "--json", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["value"] == "6/1"
        assert doc["class_numerics"]["c1sq"] == 4

    def test_verlinde_needs_twist(self, capsys):
        assert run_usage_error(capsys, "oracle", "--surface", "p2", "--class",
                               "O(2)", "--n", "1", "--kind", "verlinde") == 2

    def test_twist_rejected_for_segre(self, capsys):
        assert run_usage_error(capsys, "oracle", "--surface", "p2", "--class",
                               "O(2)", "--n", "1", "--kind", "segre", "--r", "1") == 2

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--surface=p2", "--class=O(2)", "--n=1", "--kind=segre"],
         "--r only applies to kind verlinde"),
        (["series", "--family=y"], "--rank/--index do not apply to branch family y")])
    def test_a_long_misplaced_twist_is_a_usage_error_not_over_budget(
            self, capsys, argv, message):
        # the budget counts a twist or rank only where the command reads it
        flag = "--r" if argv[0] == "oracle" else "--rank"
        err = refused(capsys, argv + ["%s=%d" % (flag, 10 ** 3999)])
        assert err == TOP_USAGE + "hilbseries: error: %s\n" % message

    def test_malformed_class_is_usage_error(self, capsys):
        assert run_usage_error(capsys, "oracle", "--surface", "p2", "--class",
                               "O(1,2)", "--n", "1", "--kind", "segre") == 2

    def test_juxtaposed_class_is_usage_error(self, capsys):
        assert run_usage_error(capsys, "oracle", "--surface", "p2", "--class",
                               "O(1)O(2)", "--n", "1", "--kind", "segre") == 2

    def test_negative_n_is_usage_error(self, capsys):
        assert run_usage_error(capsys, "oracle", "--surface", "p2", "--class",
                               "O(2)", "--n", "-1", "--kind", "segre") == 2

    @pytest.mark.parametrize("spec", ["O(1)+O(2)", "-O(1)", "O(2)-O(1)+O(0)"])
    def test_verlinde_needs_one_line_bundle(self, capsys, spec):
        with pytest.raises(SystemExit) as info:
            cli.main(["oracle", "--surface", "p2", "--class=" + spec, "--n", "1",
                      "--kind", "verlinde", "--r", "2"])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "single line bundle" in captured.err

    def test_leading_minus_class_needs_the_equals_form(self, capsys):
        code, out = run(capsys, "oracle", "--surface", "p2", "--class=-O(1)+O(3)",
                        "--n", "2", "--kind", "segre")
        p2 = loc.get_surface("p2")
        value = loc.segre_integral(loc.parse_class(p2, "-O(1)+O(3)"), 2)
        assert code == 0
        assert out.splitlines()[-1] == "%d/%d" % (value.numerator, value.denominator)
        assert "class=-O(1)+O(3)" in out
        with pytest.raises(SystemExit) as info:
            cli.main(["oracle", "--surface", "p2", "--class", "-O(1)+O(3)",
                      "--n", "2", "--kind", "segre"])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert "expected one argument" in captured.err

    def test_n_beyond_the_draw_box_exits_two_quickly(self, capsys, monkeypatch):
        # an n past the budget is refused before any oracle work, however large: the
        # estimate stops once it passes BUDGET
        def refuse(*args):
            raise AssertionError("oracle work for an n beyond the budget")

        for name in loc.surface_names():  # each validates itself by a chart pass once
            loc.get_surface(name)
        monkeypatch.setattr(loc, "_chart_pass", refuse)
        started = time.perf_counter()
        for n in (30, 10 ** 6, 10 ** 4000):
            for name, spec in (("p2", "O(1)"), ("p1xp1", "O(1,0)"), ("f1", "O(0,1)")):
                for kind in ("segre", "chern", "verlinde"):
                    argv = ["oracle", "--surface", name, "--class", spec, "--n", str(n),
                            "--kind", kind] + ["--r", "2"] * (kind == "verlinde")
                    assert refused(capsys, argv) == OVER_BUDGET % "oracle"
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize("kind", ["segre", "chern", "verlinde"])
    def test_the_oracle_cap_answers_its_own_n(self, capsys, monkeypatch, kind):
        # n = 20 is within the budget on every surface, and reaches the oracle, whose
        # value here is a stand-in
        monkeypatch.setattr(cli, kind + ("_chi" if kind == "verlinde" else "_integral"),
                            lambda kclass, *args: 7 + args[-1])
        for name, spec in (("p2", "O(1)"), ("p1xp1", "O(1,0)"), ("f1", "O(1,1)")):
            argv = ["oracle", "--surface", name, "--class", spec, "--n", "20", "--kind", kind]
            code, out = run(capsys, *argv + ["--r", "3"] * (kind == "verlinde"))
            assert (code, out.splitlines()[-1]) == (0, "27/1")

    @pytest.mark.parametrize("kind", ["segre", "verlinde"])
    def test_extract_beyond_the_draw_box_exits_two_before_any_oracle_work(
            self, capsys, monkeypatch, kind):
        # an order past the budget, given or from HILBSERIES_ORDER, is refused before
        # any oracle work; orders 16 and 20 are answered
        def refuse(*args):
            raise AssertionError("oracle work for an order beyond the budget")

        for name in loc.surface_names():  # each validates itself by a chart pass once
            loc.get_surface(name)
        monkeypatch.setattr(loc, "_shapes", refuse)
        monkeypatch.setattr(loc, "_chart_product", refuse)
        monkeypatch.delenv(cli.ORDER_ENV, raising=False)
        started = time.perf_counter()
        for order, env in ((40, None), (10 ** 6, None), (10 ** 4000, None), (None, "40")):
            if env is not None:
                monkeypatch.setenv(cli.ORDER_ENV, env)
            argv = (["extract", "--kind", kind, "--rank", "1"]
                    + ["--order", str(order)] * (order is not None))
            assert refused(capsys, argv) == OVER_BUDGET % "extract"
        assert time.perf_counter() - started < 1
        monkeypatch.setattr(cli.extraction, "predict_" + {"segre": "unknown",
                                                          "verlinde": "verlinde"}[kind],
                            lambda param, order, panel: {"series": []})
        for order in ("16", "20"):
            assert run(capsys, "extract", "--kind", kind, "--rank", "1", "--order", order) == (
                0, "# hilbseries command=extract kind=%s order=%s rank=1 seed=20260815\n"
                % (kind, order))

    def test_extract_beyond_the_rank_cap_exits_two_before_any_panel(self, capsys, monkeypatch):
        # a Segre rank whose panel classes, about |rank| terms each, pass the budget is
        # refused before a panel is built or the oracle runs; a Verlinde panel is three
        # line bundles whatever the twist
        def refuse(*args):
            raise AssertionError("panel or oracle work for a rank beyond the budget")

        monkeypatch.setattr(loc, "_chart_product", refuse)
        monkeypatch.setattr(cli.extraction, "default_panel", refuse)
        monkeypatch.delenv(cli.ORDER_ENV, raising=False)
        started = time.perf_counter()
        for flags in (["--rank", "1000000"], ["--rank=-1000000"], ["--rank=%d" % 10 ** 4000],
                      ["--rank", "1000", "--order", "16"]):
            assert refused(capsys, ["extract", *flags]) == OVER_BUDGET % "extract"
        assert time.perf_counter() - started < 1
        monkeypatch.undo()
        for flag in ("--rank=64", "--rank=-64", "--rank=65"):
            code, out = run(capsys, "extract", flag, "--order", "1")
            assert code == 0
            assert out.splitlines()[1:] == [
                "A0 [proven]: 1/1, -1/1  (matches reference through order 1)",
                "A1 [proven]: 1/1, 1/1  (matches reference through order 1)",
                "A2 [proven]: 1/1, 0/1  (matches reference through order 1)",
                "A3 [conjectural]: 1/1, 0/1", "A4 [conjectural]: 1/1, 0/1"]
        for flags in (["--rank", "65"], ["--rank", "10000000"], ["--rank=-2000000000"]):
            code, out = run(capsys, "extract", "--kind", "verlinde", *flags, "--order", "1")
            assert code == 0
            assert len(out.splitlines()) == 5

    def test_a_twist_beyond_the_digit_cap_exits_two_before_any_oracle_work(
            self, capsys, monkeypatch):
        # a Verlinde twist whose digits put the work past the budget, or the printed
        # values past Python's int-to-str limit, is refused at once by oracle --r and
        # extract --rank; 80 digits at n = 2 or order 1 are answered
        def refuse(*args):
            raise AssertionError("panel or oracle work for a twist beyond the budget")

        loc.get_surface("p2")  # validates itself by a chart pass once
        monkeypatch.setattr(loc, "_shapes", refuse)
        monkeypatch.setattr(loc, "_chart_product", refuse)
        monkeypatch.setattr(cli.extraction, "default_panel", refuse)
        monkeypatch.delenv(cli.ORDER_ENV, raising=False)
        started = time.perf_counter()
        for twist, n, message in ((10 ** 80, 16, OVER_BUDGET), (-10 ** 80, 16, OVER_BUDGET),
                                  (10 ** 300, 16, OVER_BUDGET), (10 ** 3999, 1, OVER_LIMIT)):
            for command, argv in (
                    ("oracle", ["oracle", "--surface", "p2", "--class", "O(1)", "--n", str(n),
                                "--kind", "verlinde", "--r=%d" % twist]),
                    ("extract", ["extract", "--kind", "verlinde", "--rank=%d" % twist,
                                 "--order", str(n)])):
                assert refused(capsys, argv) == message % command
        assert time.perf_counter() - started < 1
        monkeypatch.undo()
        line = loc.parse_class(loc.get_surface("p2"), "O(1)")
        for twist in (10 ** 80 - 1, 1 - 10 ** 80):
            code, out = run(capsys, "oracle", "--surface", "p2", "--class", "O(1)", "--n", "2",
                            "--kind", "verlinde", "--r=%d" % twist)
            assert (code, out.splitlines()[-1]) == (0, "%d/1" % loc.verlinde_chi(line, twist, 2))
            code, out = run(capsys, "extract", "--kind", "verlinde", "--rank=%d" % twist,
                            "--order", "1")
            assert (code, len(out.splitlines())) == (0, 5)

    def test_a_class_coefficient_beyond_the_digit_cap_exits_two_before_any_oracle_work(
            self, capsys, monkeypatch):
        # a --class whose coefficients' digits, counted in its text, put the work past the
        # budget or the printed value past Python's int-to-str limit is refused at once;
        # 80 digits at n = 1 are answered
        def refuse(*args):
            raise AssertionError("oracle work for a coefficient beyond the budget")

        for name in ("segre_integral", "chern_integral", "verlinde_chi"):
            monkeypatch.setattr(cli, name, refuse)
        started = time.perf_counter()
        for surface, spec, kind, n, message in (
                ("p2", "O(1%s)" % ("0" * 2200), "segre", 1, OVER_LIMIT),
                ("p2", "O(1)-O(%d)" % 10 ** 80, "chern", 20, OVER_BUDGET),
                ("f1", "O(1,-%s1)" % ("0" * 80), "verlinde", 20, OVER_BUDGET)):
            argv = (["oracle", "--surface", surface, "--class", spec, "--n", str(n),
                     "--kind", kind] + ["--r", "2"] * (kind == "verlinde"))
            assert refused(capsys, argv) == message % "oracle"
        assert time.perf_counter() - started < 1
        monkeypatch.undo()
        p2 = loc.get_surface("p2")
        for spec in ("O(%d)" % (10 ** 80 - 1), "O(-%d)+O(1)" % (10 ** 79)):
            code, out = run(capsys, "oracle", "--surface", "p2", "--class", spec, "--n", "1",
                            "--kind", "segre")
            value = loc.segre_integral(loc.parse_class(p2, spec), 1)
            assert (code, out.splitlines()[-1]) == (0, "%d/1" % value)

    def test_a_huge_bad_coefficient_gets_the_cap_message_not_its_echo(self, capsys):
        # past int()'s 4,300 digits parse_class cannot read the term; the budget counts
        # the digits in the text first, so its short message shows, not the whole term
        err = refused(capsys, ["oracle", "--surface", "p2", "--class", "O(1%s)" % ("0" * 5000),
                               "--n", "1", "--kind", "segre"])
        assert err == OVER_LIMIT % "oracle"
        assert len(err.encode()) < 200

    def test_an_eighty_digit_coefficient_is_answered(self, capsys):
        spec = "O(%d)" % (10 ** 80 - 7)
        code, out = run(capsys, "oracle", "--surface", "p2", "--class", spec, "--n", "2",
                        "--kind", "chern")
        value = loc.chern_integral(loc.parse_class(loc.get_surface("p2"), spec), 2)
        assert (code, out.splitlines()[-1]) == (0, "%d/1" % value)

    @pytest.mark.parametrize("spec, message", [
        ("O(1_0)", "bad integers in term 'O(1_0)'"),
        ("O(1)O(2)", "cannot parse class spec 'O(1)O(2)' at 'O(2)'"),
        ("O(1, -2)", "surface p2 expects 1-parameter classes, got 'O(1, -2)'"),
        ("O(x)", "bad integers in term 'O(x)'"),
        ("foo", "cannot parse class spec 'foo' at 'foo'"),
        ("", "a class needs at least one term")])
    def test_a_short_bad_term_is_echoed_whole(self, capsys, spec, message):
        # bytes as printed before long terms were cut
        with pytest.raises(SystemExit) as info:
            cli.main(["oracle", "--surface", "p2", "--class=" + spec, "--n", "1",
                      "--kind", "segre"])
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (2, "")
        assert captured.err == TOP_USAGE + "hilbseries: error: %s\n" % message

    @pytest.mark.parametrize("name", ["p1xp1", "f1"])
    def test_n_seventeen_is_answered(self, capsys, name):
        # rank 1 is proven, so the catalog's z^17 coefficient is the value
        code, out = run(capsys, "oracle", "--surface", name, "--class", "O(1,1)",
                        "--n", "17", "--kind", "segre", "--json")
        assert code == 0
        doc = json.loads(out)
        numerics = doc["class_numerics"]
        assert numerics["rank"] == 1
        closed = catalog.segre_full(1, numerics["c2"], numerics["c1sq"], numerics["chiO"],
                                    numerics["c1K"], numerics["Ksq"], 17)
        assert doc["value"] == extraction.frac_str(closed.coefficient(17))


class _Reached(Exception):
    pass


@pytest.mark.parametrize("argv", ["series --family segreA --rank 1 --index 3",
                                  "series --family chernA --rank 1 --index 0",
                                  "series --family verlindeB --rank 2 --index 3",
                                  "series --family y", "series --family Y",
                                  "verify --suite all", "verify --suite fgh"])
def test_an_order_beyond_the_cap_exits_two_before_any_work(capsys, monkeypatch, argv):
    # series and verify refuse an order past the budget, given or from HILBSERIES_ORDER,
    # before any catalog or check work; series at 280 and verify at 80 reach that work,
    # here a stand-in that stops with the order it got
    def reach(*args, order=None):
        raise _Reached(args[-1] if order is None else order)

    for name in ("segre_A", "chern_A", "verlinde_B", "segre_rank2_branch",
                 "verlinde_r3_branch"):
        monkeypatch.setattr(catalog, name, reach)
    monkeypatch.setattr(verify, "run_suite", reach)
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    command = argv.split()[0]
    over, within = {"series": (1000, 280), "verify": (200, 80)}[command]
    for order, env in ((over, None), (10 ** 6, None), (10 ** 4000, None), (None, str(over))):
        if env is not None:
            monkeypatch.setenv(cli.ORDER_ENV, env)
        err = refused(capsys, argv.split() + ["--order", str(order)] * (order is not None))
        assert err == OVER_BUDGET % command
    for flags in (["--order", str(within)], []):  # the second reads HILBSERIES_ORDER
        monkeypatch.setenv(cli.ORDER_ENV, str(within))
        with pytest.raises(_Reached) as info:
            cli.main(argv.split() + flags)
        assert info.value.args == (within,)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "theta", "--order", "2"],
    ["oracle", "--surface", "p2", "--class", "O(1)", "--n", "1", "--kind", "segre"],
    ["extract", "--rank", "1", "--order", "1"],
])
def test_unwritable_json_path_exits_two(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--json", "missing/x.json"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.err.splitlines() == [
        "hilbseries: error: cannot write 'missing/x.json': No such file or directory"]
    assert "Traceback" not in captured.out + captured.err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "theta", "--order", "3"],
    ["oracle", "--surface", "p1xp1", "--class", "O(1,1)-O(0,1)", "--n", "2",
     "--kind", "chern"],
    ["extract", "--kind", "verlinde", "--rank", "1", "--order", "2"],
])
def test_json_file_holds_the_printed_document(capsys, tmp_path, argv):
    # --json PATH writes the bytes --json prints; stdout then keeps verify's
    # echo line and table, and is empty for oracle and extract
    path = tmp_path / "out.json"
    table = run(capsys, *argv)
    document = run(capsys, *argv, "--json")
    assert table[0] == document[0] == 0
    assert run(capsys, *argv, "--json", str(path)) == (
        0, table[1] if argv[0] == "verify" else "")
    assert path.read_bytes() == document[1].encode()
    echo = "# hilbseries " + " ".join(
        "%s=%s" % item for item in sorted(json.loads(document[1])["config"].items()))
    assert table[1].splitlines()[0] == echo


def test_series_json_is_one_document_with_the_echoed_config(capsys):
    argv = ["series", "--family", "chernA", "--rank", "2", "--index", "1", "--order", "3"]
    _, table = run(capsys, *argv)
    _, document = run(capsys, *argv, "--format", "json")
    config = json.loads(document)["config"]
    assert config.pop("format") == "json"
    pairs = table.splitlines()[0].split()[2:]
    assert pairs == ["%s=%s" % item for item in sorted(dict(config, format="table").items())]


class TestExtract:
    def test_segre_json_document(self, capsys):
        code, out = run(capsys, "extract", "--rank", "1", "--order", "2",
                        "--kind", "segre", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exponent_columns"] == ["c2", "c1sq", "chiO", "c1K", "Ksq"]
        assert len(doc["exponent_matrix"]) == len(doc["panel"]) >= 5
        by_name = {entry["series"]: entry for entry in doc["series"]}
        assert by_name["A3"]["agreement_order"] == 2
        assert by_name["A3"]["extracted"] == ["1/1", "0/1", "-5/2"]

    def test_verlinde_table(self, capsys):
        code, out = run(capsys, "extract", "--rank", "0", "--order", "2",
                        "--kind", "verlinde")
        assert code == 0
        assert "B1 [proven]" in out
        assert "matches reference through order 2" in out


class TestReproducibility:
    def test_identical_invocations_identical_bytes(self, capsys):
        argv = ["oracle", "--surface", "p1xp1", "--class", "O(1,1)+O(0,1)",
                "--n", "2", "--kind", "chern", "--json"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_seed_is_echoed_and_respected(self, capsys):
        base = ["oracle", "--surface", "p2", "--class", "O(3)", "--n", "2",
                "--kind", "segre"]
        _, out_a = run(capsys, *(base + ["--seed", "5"]))
        _, out_b = run(capsys, *(base + ["--seed", "6"]))
        assert "seed=5" in out_a and "seed=6" in out_b
        assert out_a.strip().splitlines()[-1] == out_b.strip().splitlines()[-1]


# Full stdout of fixed invocations.  Any moved byte fails: panel rows,
# exponent-matrix strings, check counts, the ranges text.
EXTRACT_SEGRE_RANK1_TABLE = """\
# hilbseries command=extract kind=segre order=2 rank=1 seed=20260815
A0 [proven]: 1/1, -1/1, 4/1  (matches reference through order 2)
A1 [proven]: 1/1, 1/1, -9/2  (matches reference through order 2)
A2 [proven]: 1/1, 0/1, 6/1  (matches reference through order 2)
A3 [proven]: 1/1, 0/1, -5/2  (matches reference through order 2)
A4 [proven]: 1/1, 0/1, -1/1  (matches reference through order 2)
"""

EXTRACT_VERLINDE_TWIST0_TABLE = """\
# hilbseries command=extract kind=verlinde order=2 rank=0 seed=20260815
B1 [proven]: 1/1, 1/1, 1/1  (matches reference through order 2)
B2 [proven]: 1/1, 0/1, 0/1  (matches reference through order 2)
B3 [trivial]: 1/1, 0/1, 0/1  (matches reference through order 2)
B4 [trivial]: 1/1, 0/1, 0/1  (matches reference through order 2)
"""

EXTRACT_SEGRE_RANK2_JSON = """\
{
  "config": {
    "command": "extract",
    "kind": "segre",
    "order": 2,
    "rank": 2,
    "seed": 20260815
  },
  "exponent_columns": [
    "c2",
    "c1sq",
    "chiO",
    "c1K",
    "Ksq"
  ],
  "exponent_matrix": [
    [
      "0",
      "0",
      "1/12",
      "0",
      "0"
    ],
    [
      "0",
      "-1",
      "1/12",
      "0",
      "0"
    ],
    [
      "-1",
      "-4",
      "1/12",
      "0",
      "0"
    ],
    [
      "0",
      "0",
      "1/24",
      "0",
      "-1/2"
    ],
    [
      "0",
      "-1/2",
      "1/24",
      "1/2",
      "-1/2"
    ],
    [
      "-1/2",
      "-2",
      "1/24",
      "1",
      "-1/2"
    ]
  ],
  "panel": [
    {
      "class": "O(0)+O(0)+O(0)-O(0)",
      "surface": "C2(1,-1)"
    },
    {
      "class": "O(1)+O(0)+O(0)-O(0)",
      "surface": "C2(1,-1)"
    },
    {
      "class": "O(1)+O(1)+O(0)-O(0)",
      "surface": "C2(1,-1)"
    },
    {
      "class": "O(0)+O(0)+O(0)-O(0)",
      "surface": "C2(1,-2)"
    },
    {
      "class": "O(1)+O(0)+O(0)-O(0)",
      "surface": "C2(1,-2)"
    },
    {
      "class": "O(1)+O(1)+O(0)-O(0)",
      "surface": "C2(1,-2)"
    }
  ],
  "series": [
    {
      "agreement_order": 2,
      "extracted": [
        "1/1",
        "-1/1",
        "7/1"
      ],
      "reference": [
        "1/1",
        "-1/1",
        "7/1"
      ],
      "series": "A0",
      "status": "proven"
    },
    {
      "agreement_order": 2,
      "extracted": [
        "1/1",
        "1/1",
        "-9/1"
      ],
      "reference": [
        "1/1",
        "1/1",
        "-9/1"
      ],
      "series": "A1",
      "status": "proven"
    },
    {
      "agreement_order": 2,
      "extracted": [
        "1/1",
        "0/1",
        "30/1"
      ],
      "reference": [
        "1/1",
        "0/1",
        "30/1"
      ],
      "series": "A2",
      "status": "proven"
    },
    {
      "agreement_order": 2,
      "extracted": [
        "1/1",
        "0/1",
        "-7/1"
      ],
      "reference": [
        "1/1",
        "0/1",
        "-7/1"
      ],
      "series": "A3",
      "status": "proven"
    },
    {
      "agreement_order": 2,
      "extracted": [
        "1/1",
        "0/1",
        "-5/1"
      ],
      "reference": [
        "1/1",
        "0/1",
        "-5/1"
      ],
      "series": "A4",
      "status": "proven"
    }
  ]
}
"""

EXTRACT_VERLINDE_TWIST_MINUS1_JSON = """\
{
  "config": {
    "command": "extract",
    "kind": "verlinde",
    "order": 2,
    "rank": -1,
    "seed": 20260815
  },
  "exponent_columns": [
    "chiL",
    "chiO",
    "c1K-Ksq/2",
    "Ksq"
  ],
  "exponent_matrix": [
    [
      "1/12",
      "1/12",
      "0",
      "0"
    ],
    [
      "-23/12",
      "1/12",
      "0",
      "0"
    ],
    [
      "-5/12",
      "1/12",
      "0",
      "0"
    ],
    [
      "1/24",
      "1/24",
      "1/4",
      "-1/2"
    ],
    [
      "-35/24",
      "1/24",
      "5/4",
      "-1/2"
    ],
    [
      "1/24",
      "1/24",
      "-1/4",
      "-1/2"
    ]
  ],
  "panel": [
    {
      "class": "O(0)",
      "surface": "C2(1,-1)"
    },
    {
      "class": "O(2)",
      "surface": "C2(1,-1)"
    },
    {
      "class": "O(-1)",
      "surface": "C2(1,-1)"
    },
    {
      "class": "O(0)",
      "surface": "C2(1,-2)"
    },
    {
      "class": "O(2)",
      "surface": "C2(1,-2)"
    },
    {
      "class": "O(-1)",
      "surface": "C2(1,-2)"
    }
  ],
  "series": [
    {
      "agreement_order": 2,
      "extracted": [
        "1/1",
        "1/1",
        "0/1"
      ],
      "reference": [
        "1/1",
        "1/1",
        "0/1"
      ],
      "series": "B1",
      "status": "proven"
    },
    {
      "agreement_order": 2,
      "extracted": [
        "1/1",
        "0/1",
        "0/1"
      ],
      "reference": [
        "1/1",
        "0/1",
        "0/1"
      ],
      "series": "B2",
      "status": "proven"
    },
    {
      "agreement_order": 2,
      "extracted": [
        "1/1",
        "0/1",
        "0/1"
      ],
      "reference": [
        "1/1",
        "0/1",
        "0/1"
      ],
      "series": "B3",
      "status": "trivial"
    },
    {
      "agreement_order": 2,
      "extracted": [
        "1/1",
        "0/1",
        "0/1"
      ],
      "reference": [
        "1/1",
        "0/1",
        "0/1"
      ],
      "series": "B4",
      "status": "trivial"
    }
  ]
}
"""

VERIFY_BLOWUP_TABLE = """\
# hilbseries command=verify order=10 suite=blowup
blowup             PASS  (32 checks)
"""

VERIFY_BLOWUP_JSON = """\
{
  "config": {
    "command": "verify",
    "order": 10,
    "suite": "blowup"
  },
  "passed": true,
  "reports": [
    {
      "checks": 32,
      "counterexample": null,
      "detail": "",
      "name": "blowup",
      "passed": true,
      "ranges": "n<=20, double-sum cross-check n<=10"
    }
  ]
}
"""

# Series whose catalog route is a chart change, the duality transport
# (rank -4) and the Serre inversion (twist -3).
SERIES_CHERN_A1_RANK_MINUS3 = """\
# hilbseries command=series family=chernA format=table index=1 order=8 rank=-3 status=proven
1/1, 0/1, -5/1, 190/1, -7020/1, 267148/1, -10481350/1, 421894980/1, -17340503950/1
"""

SERIES_SEGRE_A4_RANK_MINUS4 = """\
# hilbseries command=series family=segreA format=table index=4 order=8 rank=-4 status=conjectural
1/1, 0/1, -1/1, 34/1, -788/1, 16494/1, -332102/1, 6572426/1, -129009794/1
"""

SERIES_VERLINDE_B3_TWIST_MINUS3 = """\
# hilbseries command=series family=verlindeB format=table index=3 order=8 rank=-3 status=conjectural
1/1, 0/1, 4/1, -87/1, 1754/1, -35343/1, 719520/1, -14813224/1, 308084464/1
"""


# The binomial-residue sweep, the spherical Chern sweep, and a branch
# series whose coefficient recurrence divides by dP/dy(0,0) at every step.
VERIFY_THM3_JSON = """\
{
  "config": {
    "command": "verify",
    "order": 10,
    "suite": "thm3"
  },
  "passed": true,
  "reports": [
    {
      "checks": 5210,
      "counterexample": null,
      "detail": "",
      "name": "thm3",
      "passed": true,
      "ranges": "r=2, n<=8, chi in [-3,35); r=3, n<=8, chi in [-3,43); r=4, n<=8, chi in [-3,51); r=5, n<=8, chi in [-3,59); r=6, n<=8, chi in [-3,67)"
    }
  ]
}
"""

# The abelian residue sweep, table and JSON.
VERIFY_ABELIAN_TABLE = """\
# hilbseries command=verify order=10 suite=abelian
abelian            PASS  (1008 checks)
"""

VERIFY_ABELIAN_JSON = """\
{
  "config": {
    "command": "verify",
    "order": 10,
    "suite": "abelian"
  },
  "passed": true,
  "reports": [
    {
      "checks": 1008,
      "counterexample": null,
      "detail": "",
      "name": "abelian",
      "passed": true,
      "ranges": "r=2, n<=6, chi in [-3,24) (chi-degree <= n per n); r=3, n<=6, chi in [-3,30) (chi-degree <= n per n); r=4, n<=6, chi in [-3,36) (chi-degree <= n per n); r=5, n<=6, chi in [-3,42) (chi-degree <= n per n)"
    }
  ]
}
"""

VERIFY_SPHERICAL_CHERN_JSON = """\
{
  "config": {
    "command": "verify",
    "order": 10,
    "suite": "spherical_chern"
  },
  "passed": true,
  "reports": [
    {
      "checks": 1143,
      "counterexample": null,
      "detail": "",
      "name": "spherical_chern",
      "passed": true,
      "ranges": "s=2, n<=6, chi in [-4,17); s=3, n<=6, chi in [-3,23); s=4, n<=6, chi in [-2,29); s=5, n<=6, chi in [-1,35)"
    }
  ]
}
"""

SERIES_Y_ORDER20 = """\
# hilbseries command=series family=Y format=table order=20 status=proven
1/1, -3/1, 14/1, -80/1, 509/1, -3459/1, 24579/1, -180389/1, 1356743/1, -10402493/1, 81004516/1, -638886082/1, 5093081983/1, -40971735401/1, 332187974718/1, -2711668091448/1, 22267979870143/1, -183830653156341/1, 1524747465249750/1, -12700172705956876/1
"""

# Verlinde at n = 10, deeper than any benchmark job, one class per surface
ORACLE_VERLINDE_P2_N10 = """\
# hilbseries class=O(1) command=oracle kind=verlinde n=10 r=2 seed=20260815 surface=p2
-15802395/1
"""

ORACLE_VERLINDE_P1XP1_N10 = """\
# hilbseries class=O(1,0) command=oracle kind=verlinde n=10 r=3 seed=20260815 surface=p1xp1
-345971278434/1
"""

ORACLE_VERLINDE_F1_N10 = """\
# hilbseries class=O(1,1) command=oracle kind=verlinde n=10 r=-2 seed=20260815 surface=f1
-106870500/1
"""


@pytest.mark.parametrize("argv, expected", [
    ("extract --rank 1 --order 2", EXTRACT_SEGRE_RANK1_TABLE),
    ("extract --rank 0 --order 2 --kind verlinde", EXTRACT_VERLINDE_TWIST0_TABLE),
    ("extract --rank 2 --order 2 --json", EXTRACT_SEGRE_RANK2_JSON),
    ("extract --rank -1 --order 2 --kind verlinde --json", EXTRACT_VERLINDE_TWIST_MINUS1_JSON),
    ("verify --suite blowup", VERIFY_BLOWUP_TABLE),
    ("verify --suite blowup --json", VERIFY_BLOWUP_JSON),
    ("series --family chernA --rank -3 --index 1 --order 8",
     SERIES_CHERN_A1_RANK_MINUS3),
    ("series --family segreA --rank -4 --index 4 --order 8",
     SERIES_SEGRE_A4_RANK_MINUS4),
    ("series --family verlindeB --rank -3 --index 3 --order 8",
     SERIES_VERLINDE_B3_TWIST_MINUS3),
    ("verify --suite thm3 --json --order 10", VERIFY_THM3_JSON),
    ("verify --suite abelian --order 10", VERIFY_ABELIAN_TABLE),
    ("verify --suite abelian --order 10 --json", VERIFY_ABELIAN_JSON),
    ("verify --suite spherical_chern --json --order 10", VERIFY_SPHERICAL_CHERN_JSON),
    ("series --family Y --order 20", SERIES_Y_ORDER20),
    ("oracle --surface p2 --class O(1) --kind verlinde --r 2 --n 10", ORACLE_VERLINDE_P2_N10),
    ("oracle --surface p1xp1 --class O(1,0) --kind verlinde --r 3 --n 10",
     ORACLE_VERLINDE_P1XP1_N10),
    ("oracle --surface f1 --class O(1,1) --kind verlinde --r -2 --n 10",
     ORACLE_VERLINDE_F1_N10),
])
def test_golden_stdout(capsys, monkeypatch, argv, expected):
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert out == expected


# sha256 of the full stdout at order 60, deeper than the benchmark's catalog
# jobs (orders 20..40) reach: the branch factors, a duality-transported
# factor, a Chern product and a Serre-inverted Verlinde factor.  At order 200:
# the mean-root factors at rank 1 and at twists 2 and -2, and the rank -3 factor
# transported from them, whose digests come from the commit before powers, logs
# and compositions became one integer recurrence each.  At order 280, the old
# series cap: A1 at rank 4, A0 at rank 2 and B1 at twist -3, each a substituted
# log's exp, whose digests come from the commit before the exp ran at the
# denominator of its exponent's derivative; and A1 at rank 10^6 and B2 at twist
# -10^6, whose numbers of about 3,500 digits the budget's digit estimate must let
# through, with digests from the commit before the budget.
DEEP_SERIES_SHA256 = {
    "series --family=segreA --rank=2 --index=4 --order=60":
        "76585e28f7af2a648da8d7904fe31ca45247490cbe233f4fc66f5b300eecb664",
    "series --family=segreA --rank=-4 --index=3 --order=60":
        "6b56a4ab4a98b48ce594dc3e879f1600e4fc7e41d5f25235f22ffcf918ea38f7",
    "series --family=chernA --rank=-3 --index=1 --order=60":
        "6bce8d3a4297447e2fdfa15b04ba6f2dfd1ea7c8f64779cfe6a8332016792da6",
    "series --family=verlindeB --rank=3 --index=4 --order=60":
        "c1af811ceb71f080f497f51c60a5fb1a48ba6998193246393bd2354ef69fd23e",
    "series --family=verlindeB --rank=-2 --index=3 --order=60":
        "c5f99a77d353df313fd56870f0fc047f6082e6b3c78da02758728616c6ec877e",
    "series --family=segreA --rank=1 --index=3 --order=200":
        "c4b4ed620e9c932b4650594a1b277ce50f1e30373b9cf4ea01b7ce7877701b1d",
    "series --family=segreA --rank=1 --index=4 --order=200":
        "3773dd599f8026432ee417f71d1d54472649e15f83be810a7b1acfe908d0db5b",
    "series --family=verlindeB --rank=2 --index=3 --order=200":
        "d2e268f25976dc2ea19c62e088169438a07558737884860a7b2fe29b4e20f1ba",
    "series --family=verlindeB --rank=-2 --index=4 --order=200":
        "1a001683e8fa1e86a5d8aca2ea16a7454a09e81cfb33211ca48866e8f702e9c6",
    "series --family=segreA --rank=-3 --index=3 --order=200":
        "da59ffeb5369f29bc24e0cb75c7eb72aa929f2d2db6086523d97c8e307747a6a",
    "series --family=segreA --rank=4 --index=1 --order=280":
        "72b10b1d6a40958ee251ad88aeaa516f92d815f39a752c1b0ffe657954ee666b",
    "series --family=segreA --rank=2 --index=0 --order=280":
        "817f4ec77cdef6be9cfec1df26aa9495392dcc98d752db603d25ebc5d3798e17",
    "series --family=verlindeB --rank=-3 --index=1 --order=280":
        "6b68c6517cb697f4e36fd99894381a0dd23084ce54d48e288d441285eb38ad96",
    "series --family=segreA --rank=1000000 --index=1 --order=280":
        "1c068c5ec03bd49be5b2016b65ea35f5be2fa488104f301f80b44ab180bb9ccb",
    "series --family=verlindeB --rank=-1000000 --index=2 --order=280":
        "d47a1a8216b11ab4e48d6af5a0910827b93f52d9b6e9952132a9da513953f515",
}


# sha256 of the JSON report of each suite with no golden text above: its check
# counts, ranges, verdict and details (theta's constant terms among them); and of every
# suite at orders 20 and 40.
VERIFY_SUITE_SHA256 = {
    "verify --suite all --json --order 20":
        "700620dd10afc25b3a4145f37c66aa2a171b7d3d370b47af824f0602bd2a7d03",
    "verify --suite all --json --order 40":
        "e8059ea3a22324d530af41e32bfb5e7c697a38f72bc83656296d464c7e5b4887",
    "verify --suite asymptotics --json --order 10":
        "9c4f19e6428f9aa071739496a51c9bbf2868dbb7f7fe3d3fcdc527c003968276",
    "verify --suite 2pt --json --order 10":
        "d30fa851679a2b2ceac7c9db9cb65467d1cb7bc044b5de516901bb2403353828",
    "verify --suite chern_rank2 --json --order 10":
        "a1786dc54044e6b756c5d4c75336641824d98bc1196b997614eb16c01a748064",
    "verify --suite enriques --json --order 10":
        "fa2618ecf322407f027797b03f9ef6a95c915a94fa702aa32a9b390521941a56",
    "verify --suite verlinde_trivial --json --order 10":
        "ca6c20cd1b71bec22cfcc727c3405397e70fe29a599ddd79b1f14ba63077b483",
    "verify --suite verlinde_segre --json --order 10":
        "67b20fd9ccc9c755002b29cc9da67eec7a4c75b54bddfeb35955dd7fc314df36",
    "verify --suite fgh --json --order 10":
        "abcc5f66d2b3b42b67b6ce6e9363a12d0435b430108e39b4b7d50ccc9ddead89",
    "verify --suite theta --json --order 10":
        "c23bc3a3b86685167dc507a800c29f236e33b69cf16a8b465c853329e6d5f894",
    "verify --suite lagrange_burmann --json --order 10":
        "fdcf5ad7c38b8181d72849a4c9c51fed3b5e0e9c4be2bfcc36abb140b0f34318",
}


@pytest.mark.parametrize("argv, digest", sorted(DEEP_SERIES_SHA256.items()),
                         ids=sorted(DEEP_SERIES_SHA256))
def test_deep_series_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", sorted(VERIFY_SUITE_SHA256.items()),
                         ids=sorted(VERIFY_SUITE_SHA256))
def test_verify_suite_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Every help, usage and error text with its exit code, at COLUMNS=80: stdout and
# stderr byte for byte, whether main parsed with one subcommand's parser or the
# full one.
TOP_USAGE = "usage: hilbseries [-h] {series,verify,oracle,extract} ...\n"
ORACLE_USAGE = """\
usage: hilbseries oracle [-h] --surface {f1,p1xp1,p2} --class CLASS_SPEC --n N
                         --kind {segre,chern,verlinde} [--r R] [--seed SEED]
                         [--json [PATH]]
"""
# extract at rank 65, past the old fixed rank cap of 64, as the library computes it at
# the commit before the cost budget
EXTRACT_RANK65 = """\
# hilbseries command=extract kind=segre order=4 rank=65 seed=20260815
A0 [proven]: 1/1, -1/1, 2212/1, -9733560/1, 57033422304/1  (matches reference through order 4)
A1 [proven]: 1/1, 1/1, -6633/2, 38914337/2, -1140069324757/8  (matches reference through order 4)
A2 [proven]: 1/1, 0/1, 4886310/1, -56983955600/1, 620371840095150/1  (matches reference through \
order 4)
A3 [conjectural]: 1/1, 0/1, -98021/2, 548210080/1, -45338024670125/8
A4 [conjectural]: 1/1, 0/1, -814385/1, 11506397760/1, -138227531400530/1
"""
USAGE_TEXTS = [
    ("--help", 0, TOP_USAGE + """\

Universal tautological-integral series over Hilbert schemes of surface points,
with a toric fixed-point oracle.

positional arguments:
  {series,verify,oracle,extract}
    series              print coefficients of a catalog series
    verify              run identity-check suites
    oracle              one fixed-point integral or Euler char
    extract             recover universal series from the oracle

options:
  -h, --help            show this help message and exit
""", ""),
    ("", 2, "",
     TOP_USAGE + "hilbseries: error: the following arguments are required: command\n"),
    ("bogus", 2, "",
     TOP_USAGE + "hilbseries: error: argument command: invalid choice: 'bogus' "
                 "(choose from 'series', 'verify', 'oracle', 'extract')\n"),
    ("series --help", 0, """\
usage: hilbseries series [-h] --family {segreA,chernA,verlindeB,y,Y}
                         [--rank RANK] [--index INDEX] [--order ORDER]
                         [--format {json,csv,table}]

options:
  -h, --help            show this help message and exit
  --family {segreA,chernA,verlindeB,y,Y}
  --rank RANK           class rank (segreA/chernA) or twist (verlindeB)
  --index INDEX         which factor of the family, e.g. 3 for A3
  --order ORDER
  --format {json,csv,table}
""", ""),
    ("verify --help", 0, """\
usage: hilbseries verify [-h] [--suite SUITE] [--order ORDER] [--json [PATH]]

options:
  -h, --help     show this help message and exit
  --suite SUITE  'all' or one of: 2pt, abelian, asymptotics, blowup,
                 chern_rank2, enriques, fgh, lagrange_burmann,
                 spherical_chern, theta, thm3, verlinde_segre,
                 verlinde_trivial
  --order ORDER
  --json [PATH]  write a JSON report to PATH (or stdout)
""", ""),
    ("oracle --help", 0, ORACLE_USAGE + """\

options:
  -h, --help            show this help message and exit
  --surface {f1,p1xp1,p2}
  --class CLASS_SPEC    signed sum such as "O(2,1)+O(0,1)-O(1,0)"; one that
                        starts with a minus needs the = form,
                        --class=-O(1)+O(2)
  --n N                 number of points
  --kind {segre,chern,verlinde}
  --r R                 twist (verlinde only)
  --seed SEED
  --json [PATH]
""", ""),
    ("extract --help", 0, """\
usage: hilbseries extract [-h] --rank RANK [--order ORDER]
                          [--kind {segre,verlinde}] [--seed SEED]
                          [--json [PATH]]

options:
  -h, --help            show this help message and exit
  --rank RANK           class rank (segre) or twist (verlinde)
  --order ORDER
  --kind {segre,verlinde}
  --seed SEED
  --json [PATH]
""", ""),
    ("oracle", 2, "",
     ORACLE_USAGE + "hilbseries oracle: error: the following arguments are required: "
                    "--surface, --class, --n, --kind\n"),
    # handler errors print the top-level usage
    ("oracle --surface=p2 --class=O(1) --n=2 --kind=verlinde", 2, "",
     TOP_USAGE + "hilbseries: error: --r is required for kind verlinde\n"),
    ("series --family=segreA", 2, "",
     TOP_USAGE + "hilbseries: error: --rank and --index are required for family segreA\n"),
    ("verify --suite=nope", 2, "",
     TOP_USAGE + "hilbseries: error: unknown suite 'nope'; choose from all, 2pt, abelian, "
                 "asymptotics, blowup, chern_rank2, enriques, fgh, lagrange_burmann, "
                 "spherical_chern, theta, thm3, verlinde_segre, verlinde_trivial\n"),
    ("extract --rank=1 --order=0", 2, "",
     TOP_USAGE + "hilbseries: error: order must be at least 1\n"),
    # argparse errors: a subcommand's own, and an unknown option at the top
    ("oracle --surface=p2 --class=O(1) --n=x --kind=segre", 2, "",
     ORACLE_USAGE + "hilbseries oracle: error: argument --n: invalid int value: 'x'\n"),
    ("oracle --surface=p9 --class=O(1) --n=2 --kind=segre", 2, "",
     ORACLE_USAGE + "hilbseries oracle: error: argument --surface: invalid choice: 'p9' "
                    "(choose from 'f1', 'p1xp1', 'p2')\n"),
    ("series --family=y --bogus", 2, "",
     TOP_USAGE + "hilbseries: error: unrecognized arguments: --bogus\n"),
    # a stray positional after a named command, a "--" before it, help after other
    # options, an abbreviated and a repeated option, and more handler errors
    ("extract --rank=1 extra", 2, "",
     TOP_USAGE + "hilbseries: error: unrecognized arguments: extra\n"),
    ("-- series --family=y", 2, "",
     TOP_USAGE + "hilbseries: error: argument command: invalid choice: '--' "
                 "(choose from 'series', 'verify', 'oracle', 'extract')\n"),
    ("series --family=y --order=3 -h", 0, """\
usage: hilbseries series [-h] --family {segreA,chernA,verlindeB,y,Y}
                         [--rank RANK] [--index INDEX] [--order ORDER]
                         [--format {json,csv,table}]

options:
  -h, --help            show this help message and exit
  --family {segreA,chernA,verlindeB,y,Y}
  --rank RANK           class rank (segreA/chernA) or twist (verlindeB)
  --index INDEX         which factor of the family, e.g. 3 for A3
  --order ORDER
  --format {json,csv,table}
""", ""),
    ("series --fam=y --ord=3", 0,
     "# hilbseries command=series family=y format=table order=3 status=proven\n"
     "1/1, -6/1, 41/1\n", ""),
    ("series --family=segreA --family=y --order=3", 0,
     "# hilbseries command=series family=y format=table order=3 status=proven\n"
     "1/1, -6/1, 41/1\n", ""),
    ("oracle --surface=p2 --class=O(1) --n=-1 --kind=segre", 2, "",
     TOP_USAGE + "hilbseries: error: --n must be nonnegative\n"),
    ("oracle --surface=p2 --class=O(1,2) --n=1 --kind=segre", 2, "",
     TOP_USAGE + "hilbseries: error: surface p2 expects 1-parameter classes, got 'O(1,2)'\n"),
    ("extract --rank=65", 0, EXTRACT_RANK65, ""),
    # requests the cost budget refuses before any work: a 2,000-term class, whose Segre
    # steps run over every term, a Verlinde twist of 80 digits at n = 24, and a rank
    # whose order-250 coefficients would pass Python's int-to-str limit
    pytest.param("oracle --surface=p2 --class=%s --n=20 --kind=segre" % "+".join(["O(1)"] * 2000),
                 2, "", OVER_BUDGET % "oracle", id="oracle --class=<2,000 terms> --n=20"),
    ("oracle --surface p1xp1 --class O(1,0) --n 24 --kind verlinde --r=-%d" % (10 ** 80 - 1),
     2, "", OVER_BUDGET % "oracle"),
    ("series --family segreA --rank 10000000000 --index 1 --order 250", 2, "",
     OVER_LIMIT % "series"),
    ("oracle --surface=p2 --class=O(1) --n=1 --kind=segre --json=no/such/dir/out.json", 2, "",
     "hilbseries: error: cannot write 'no/such/dir/out.json': No such file or directory\n"),
    # forms the option table declines, which the full parser reads or reports: one
    # abbreviation, a repeated --order, a separate negative value and help after
    # options; and a bare --json before other options, which the table reads
    ("series --fam=y --order=3", 0,
     "# hilbseries command=series family=y format=table order=3 status=proven\n"
     "1/1, -6/1, 41/1\n", ""),
    ("series --family=y --order=3 --order=2", 0,
     "# hilbseries command=series family=y format=table order=2 status=proven\n"
     "1/1, -6/1\n", ""),
    ("extract --rank -3 --order 1", 0, """\
# hilbseries command=extract kind=segre order=1 rank=-3 seed=20260815
A0 [proven]: 1/1, -1/1  (matches reference through order 1)
A1 [proven]: 1/1, 1/1  (matches reference through order 1)
A2 [proven]: 1/1, 0/1  (matches reference through order 1)
A3 [conjectural]: 1/1, 0/1  (matches reference through order 1)
A4 [conjectural]: 1/1, 0/1  (matches reference through order 1)
""", ""),
    ("oracle --surface=p2 --class=O(1) --json --n=1 --kind=segre", 0, """\
{
  "class_numerics": {
    "Ksq": 9,
    "c1K": -3,
    "c1sq": 1,
    "c2": 0,
    "chiO": 1,
    "rank": 1
  },
  "config": {
    "class": "O(1)",
    "command": "oracle",
    "kind": "segre",
    "n": 1,
    "seed": 20260815,
    "surface": "p2"
  },
  "value": "1/1"
}
""", ""),
    ("extract --rank=1 -h", 0, """\
usage: hilbseries extract [-h] --rank RANK [--order ORDER]
                          [--kind {segre,verlinde}] [--seed SEED]
                          [--json [PATH]]

options:
  -h, --help            show this help message and exit
  --rank RANK           class rank (segre) or twist (verlinde)
  --order ORDER
  --kind {segre,verlinde}
  --seed SEED
  --json [PATH]
""", ""),
    # a value "--" after "=" is refused by the option table itself, on every Python
    ("series --family=y --order=--", 2, "",
     TOP_USAGE + "hilbseries: error: argument --order: expected one argument\n"),
    ("oracle --surface=p2 --class=-- --n=1 --kind=segre", 2, "",
     TOP_USAGE + "hilbseries: error: argument --class: expected one argument\n"),
    # a long value or run of stray words is echoed as its first 40 characters and length
    pytest.param(
        "oracle --surface=%s --class=O(1) --n=1 --kind=segre" % ("x" * 3000), 2, "",
        ORACLE_USAGE + "hilbseries oracle: error: argument --surface: invalid choice: "
                       "'%s'... (3000 characters) (choose from 'f1', 'p1xp1', 'p2')\n" % ("x" * 40),
        id="oracle --surface=<3,000 x's>"),
    pytest.param(
        "series --family=y " + " ".join(["zz"] * 1000), 2, "",
        TOP_USAGE + "hilbseries: error: unrecognized arguments: "
                    "'%s'... (2999 characters)\n" % ("zz " * 14)[:40],
        id="series --family=y <1,000 stray words>"),
]


@pytest.mark.parametrize("argv, code, out, err", USAGE_TEXTS,
                         ids=[getattr(row, "id", None) or row[0] or "no-arguments"
                              for row in USAGE_TEXTS])
def test_usage_texts_are_pinned(capsys, monkeypatch, tmp_path, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    monkeypatch.chdir(tmp_path)  # which has no directory "no"
    with pytest.raises(SystemExit) as info:
        sys.exit(cli.main(argv.split()))  # as the installed script exits
    assert (info.value.code, *capsys.readouterr()) == (code, out, err)


LONG = "x" * 3000


@pytest.mark.parametrize("argv", [
    [LONG],
    ["series", "--family=" + LONG],
    ["series", "--family=y", "--format=" + LONG],
    ["series", "--family=y", LONG],
    ["series", "--family=y"] + ["z"] * 1500,
    ["oracle", "--surface=p2", "--class=O(1)", "--n=1", "--kind=" + LONG],
    ["oracle", "--s=" + LONG],
    ["oracle", "--help=" + LONG],
    ["extract", "--rank=1", "--kind=" + "x'" * 1500],
    ["oracle", "--surface=p2", "--class=O(1)", "--n=1", "--kind=segre", "--json=" + LONG],
    ["oracle", "--surface=p2", "--class=O(1)+" + LONG, "--n=1", "--kind=segre"],
], ids=["command", "--family", "--format", "one stray word", "stray words", "--kind",
        "ambiguous --s", "--help=", "--kind with quotes", "--json", "--class"])
def test_a_long_echo_is_one_short_error_line(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    line = captured.err.splitlines(keepends=True)[-1]
    assert (info.value.code, captured.out) == (2, "")
    assert ": error: " in line and " characters)" in line
    assert len(line.encode()) < 200


def _required_argv(command):
    return [flag + "=" + str(list(keywords.get("choices", ["1"]))[0])
            for flag, keywords in cli._OPTIONS[command].items() if keywords.get("required")]


DROPPED = [(command, flag, flag) for command in cli._COMMANDS for flag in cli._OPTIONS[command]]
DROPPED.append(("series", "--order", "--ord"))


@pytest.mark.parametrize("command, flag, written", DROPPED,
                         ids=["%s-%s" % (command, written) for command, _, written in DROPPED])
def test_a_dropped_value_is_one_usage_error(capsys, monkeypatch, tmp_path, command, flag,
                                            written):
    # a value "--" after "=", to an option or its abbreviation, is one usage error on
    # every Python, whose argparse drops, keeps or refuses it by version; kept, a
    # --json=-- would write a file "--"
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    argv = [command] + [x for x in _required_argv(command) if not x.startswith(flag + "=")]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [written + "=--"])
    assert (info.value.code, *capsys.readouterr()) == (
        2, "", TOP_USAGE + "hilbseries: error: argument %s: expected one argument\n" % flag)
    assert os.listdir(tmp_path) == []
