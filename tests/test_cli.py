"""CLI behavior: output formats, config echo, exit codes, reproducibility."""

import hashlib
import json
import time

import pytest

from hilbseries import cli, verify
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

    def test_n_beyond_the_draw_box_exits_two_quickly(self, capsys):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            cli.main(["oracle", "--surface", "p1xp1", "--class", "O(1,0)", "--n", "17",
                      "--kind", "segre"])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < 5
        assert info.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "hilbseries: error: fewer than two of the 288 directions in [-9, 9]^2 "
            "are generic for p1xp1 at n = 17"]

    @pytest.mark.parametrize("kind", ["segre", "verlinde"])
    def test_extract_beyond_the_draw_box_exits_two_before_any_oracle_work(
            self, capsys, monkeypatch, kind):
        # p2 is live at n = 17, p1xp1 and f1 are not; the oracle draws for
        # every surface of the panel before it specializes any chart
        def refuse(*args):
            raise AssertionError("oracle work for an order beyond the draw box")

        for name in loc.surface_names():  # each validates itself by a chart pass once
            loc.get_surface(name)
        monkeypatch.setattr(loc, "_shapes", refuse)
        monkeypatch.setattr(loc, "_chart_product", refuse)
        started = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            cli.main(["extract", "--kind", kind, "--rank", "1", "--order", "17"])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < 10
        assert info.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "hilbseries: error: fewer than two of the 288 directions in [-9, 9]^2 "
            "are generic for p1xp1 at n = 17"]

    @pytest.mark.parametrize("kind", ["segre", "verlinde"])
    def test_no_generic_draw_exits_two(self, capsys, monkeypatch, kind):
        loc.get_surface("p2")  # validated before every direction is rejected
        monkeypatch.setattr(loc, "_hook_generic", lambda *args: False)
        argv = ["oracle", "--surface", "p2", "--class", "O(2)", "--n", "1", "--kind", kind]
        if kind == "verlinde":
            argv += ["--r", "2"]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "generic" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "theta", "--order", "2"],
    ["oracle", "--surface", "p2", "--class", "O(1)", "--n", "1", "--kind", "segre"],
    ["extract", "--rank", "1", "--order", "1"],
])
def test_unwritable_json_path_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--json", str(path)])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.err.splitlines() == [
        "hilbseries: error: cannot write %s: No such file or directory" % path]
    assert "Traceback" not in captured.out + captured.err
    assert not path.exists()


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
      "1",
      "0",
      "9"
    ],
    [
      "0",
      "0",
      "1",
      "0",
      "8"
    ],
    [
      "0",
      "1",
      "1",
      "-3",
      "9"
    ],
    [
      "0",
      "0",
      "1",
      "-2",
      "8"
    ],
    [
      "1",
      "4",
      "1",
      "-6",
      "9"
    ],
    [
      "0",
      "-2",
      "1",
      "0",
      "8"
    ]
  ],
  "panel": [
    {
      "class": "O(0)+O(0)",
      "surface": "p2"
    },
    {
      "class": "O(0,0)+O(0,0)",
      "surface": "p1xp1"
    },
    {
      "class": "O(0)+O(1)",
      "surface": "p2"
    },
    {
      "class": "O(0,0)+O(1,0)",
      "surface": "p1xp1"
    },
    {
      "class": "O(1)+O(1)",
      "surface": "p2"
    },
    {
      "class": "O(0,0)+O(-1,1)",
      "surface": "p1xp1"
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
      "1",
      "1",
      "-9/2",
      "9"
    ],
    [
      "3",
      "1",
      "-15/2",
      "9"
    ],
    [
      "6",
      "1",
      "-21/2",
      "9"
    ],
    [
      "1",
      "1",
      "-4",
      "8"
    ],
    [
      "4",
      "1",
      "-8",
      "8"
    ],
    [
      "6",
      "1",
      "-10",
      "8"
    ],
    [
      "3",
      "1",
      "-7",
      "8"
    ]
  ],
  "panel": [
    {
      "class": "O(0)",
      "surface": "p2"
    },
    {
      "class": "O(1)",
      "surface": "p2"
    },
    {
      "class": "O(2)",
      "surface": "p2"
    },
    {
      "class": "O(0,0)",
      "surface": "p1xp1"
    },
    {
      "class": "O(1,1)",
      "surface": "p1xp1"
    },
    {
      "class": "O(1,2)",
      "surface": "p1xp1"
    },
    {
      "class": "O(1,1)",
      "surface": "f1"
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
# factor, a Chern product and a Serre-inverted Verlinde factor.
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
}


# sha256 of the JSON report of each suite with no golden text above: its check
# counts, ranges, verdict and details (theta's constant terms among them).
VERIFY_SUITE_SHA256 = {
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
# stderr byte for byte, whether main built one subcommand's parser or all four.
TOP_USAGE = "usage: hilbseries [-h] {series,verify,oracle,extract} ...\n"
ORACLE_USAGE = """\
usage: hilbseries oracle [-h] --surface {f1,p1xp1,p2} --class CLASS_SPEC --n N
                         --kind {segre,chern,verlinde} [--r R] [--seed SEED]
                         [--json [PATH]]
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
]


@pytest.mark.parametrize("argv, code, out, err", USAGE_TEXTS,
                         ids=[argv or "no-arguments" for argv, *_ in USAGE_TEXTS])
def test_usage_texts_are_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    with pytest.raises(SystemExit) as info:
        cli.main(argv.split())
    assert (info.value.code, *capsys.readouterr()) == (code, out, err)
