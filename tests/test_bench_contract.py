"""The benchmark's traced names and job argvs must exist in the package,
and its jobs must print the bytes they printed before.

``perfbench/spans.py`` wraps hilbseries functions by (module, attribute
path), and ``perfbench/workloads.py`` writes the CLI argvs its jobs run.
Their own tests are not part of this suite, so a renamed or deleted
traced function, or an option the CLI no longer takes, would otherwise
surface only in a benchmark run.  Both modules are loaded from their
files and only read.  Everything is exact, so a job whose stdout changes
is a bug: the first block of every workload is pinned by digest.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("_perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves():
    spans = _load("spans")
    for name, module_name, path in spans.TRACED:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), (name, module_name, path)
            owner = getattr(owner, part)
        assert callable(owner), name
    traced = {name for name, _, _ in spans.TRACED}
    assert set(spans.HOOKS) <= traced
    # the panel-row counter reads the third positional argument
    from hilbseries import extraction
    for fn in (extraction.extract_universal, extraction.extract_verlinde):
        assert list(inspect.signature(fn).parameters)[2] == "panel"


@pytest.mark.parametrize("kind", ["segre", "verlinde"])
def test_extraction_reads_the_oracle_at_call_time(kind, monkeypatch):
    # a tracer or test double installed on localization._chart_product after
    # import is what extraction calls, once per chart of the panel, with that
    # chart's rows in order
    from hilbseries import extraction, localization
    original, calls = localization._chart_product, []

    def wrapper(surface, classes, order, q, term, shapes):
        calls.append((surface.name, q, classes))
        return original(surface, classes, order, q, term, shapes)

    monkeypatch.setattr(localization, "_chart_product", wrapper)
    extract = {"segre": extraction.extract_universal, "verlinde": extraction.extract_verlinde}
    extract[kind](1, 1)
    panel = extraction.default_panel(kind, 1)
    lifts = extraction._KINDS[kind].lifts
    assert calls == [("C2(1,%d)" % beta, (1, beta),
                      [lifts(cls, 1) for cls in panel if cls.surface.beta == beta])
                     for beta in (-1, -2)]


def test_every_benchmark_argv_parses():
    # argparse exits 2 on an argv it cannot parse, which fails this test
    from hilbseries import cli
    workloads = _load("workloads")
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for argv in next(workloads.blocks(workload, 1)):
            parser.parse_args(argv)


# Forms the option table declines, which the full parser reads or reports: help
# (alone and after options), no arguments, an unknown command, an abbreviation, a
# repeated option, a separate negative value, a positional, an invalid choice, a bad
# integer and a missing required option; and the value "--", which the table refuses
# under the full parser's usage line.
DECLINED_ARGVS = (
    ["--help"], [], ["bogus"], ["extract", "--rank=1", "-h"], ["series", "--fam=y"],
    ["series", "--family=y", "--order=3", "--order=2"], ["extract", "--rank", "-3"],
    ["verify", "--suite=--"], ["extract", "--rank=1", "extra"],
    ["oracle", "--surface=p9", "--class=O(1)", "--n=1", "--kind=segre"],
    ["oracle", "--surface=p2", "--class=O(1)", "--n=x", "--kind=segre"],
    ["oracle", "--surface=p2", "--class=O(1)", "--kind=segre"],
)


def test_a_plain_command_line_builds_no_parser(monkeypatch, tmp_path):
    # every benchmark argv and every README command line is read from the option
    # table with no ArgumentParser built; each declined form builds the full parser
    import argparse
    from hilbseries import cli
    from test_readme import COMMANDS
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser()
    full, built[:] = len(built), []
    assert full == 1 + len(cli._SUBCOMMANDS)
    for name in cli._COMMANDS:
        monkeypatch.setattr(cli, "_cmd_" + name,
                            lambda args, name=name: (0, {"command": name}, {}, []))
    monkeypatch.chdir(tmp_path)  # a README line writes --json report.json
    workloads = _load("workloads")
    plain = [argv for workload in workloads.WORKLOADS
             for argv in next(workloads.blocks(workload, 1))]
    for argv in plain + COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0
        assert built == [], argv
    for argv in DECLINED_ARGVS:
        built.clear()
        with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
        assert len(built) == full, argv


# The first 16 hex digits of the sha256 of each job's stdout, seed 1, first
# block, in block order.
FIRST_BLOCK_SHA256 = {
    "extract": (
        "5e9a10571791c502", "7a2d9c29179ad2b3", "27534cf4ae1003f3", "4e37378425905615",
        "2f546e95ee5a43be", "3974dcd62e9294c7", "0d565e08c51d9424", "0f388cea5c0ab5b1",
        "79a61efb32147e64", "0030b3693166369d", "2f60c7be3b5b8033", "048de52bfac96bb8",
        "5e143995d13b0420", "ced5794b41609a09", "d373f3af529f769b", "9cd4dd485c83ab92",
        "f1c2faf7eb501fa8", "1cc4ee5a0898cab0", "2bc7a8cd5696091f",
    ),
    "oracle_points": (
        "426bb9e3abfd2ce9", "d414d8a5481ae6fd", "6b686b62187bb4ba", "68bc479f48d30c36",
        "0803f9080f26461c", "8f1d6b0ea1f79260", "689fa945925457f0", "501aaa7f19365e73",
        "f652c3baa21adfed", "9c4330e204b02167", "ffcfeccf9a325a80", "bcb6c9fecbca7f05",
        "816cacddb4b82cb7", "94a505dcacdd304c", "93caf9a7b0a1dc0d", "48466595adedd3b7",
        "3adb1b1b6887ddee", "498d5f42624f4cb1", "e8645d8e6b67d792", "3023365230610df7",
        "3d81cc0324252e06", "56bed00b69969870", "0c9ba27fb1c05071", "317475a5cacdca70",
        "2f680501f9a0b03f", "6f9797087e5403d5", "70247c0824ed8ef3", "8f4622586e4edc3a",
        "f254ca20c92ac31f", "e54b88e76450ebe8", "65ff67b226db68d0", "2588fe3c27cbf010",
        "e7fe84df4793f0ba", "44b2b4e59963b983", "fa3642da84827d33", "b59443e39e0c13ac",
    ),
    "catalog_verify": (
        "b886627b4e44fb81", "060503c0102cbde8", "3353a28697acd6c1", "2a74261a6f7c97d7",
        "ff2c717afb676762", "62814c18546e28b9", "8ebe0c6c664fe91a", "a536a277e77d3ec1",
        "f77850ca3967a90f", "593344701f060317", "50e827c4f0f37d42", "7d8d4a7224a74894",
        "341977dfc32c26d6", "d5dddb867c27ae93", "7e1149ac67de0f68", "6a75db79e387b38f",
        "b2e32e87883ac34b", "1c9584ba2b1b3d87", "dffb3df121aebb77", "2a63911a5b438330",
        "9e683e4bfecd7a8a", "8e4fae2fcd460189", "de335ddea52538a1", "5bd7d44919bf23c6",
        "287c77d6ce37b2c5", "7831c16b02f2f5dc", "9be9550742bad45e", "a915d92964f89dd6",
        "7be8d12331cab087", "7769e85f7eea36d2", "b36960a63fac0486", "8a6d0bbb91a53296",
        "3cad1853b8b3ac81", "9664dab01df2ab9c", "806d2bb8314563f6", "5a9143fc1a4d36ad",
        "e7154ac5b80ddb59", "8800e6c4d524bbaa", "3d618c8128989664", "3813fd29c038da1a",
        "3cccd08a7e7b0cb2", "6c7755631272504f", "29db6b95b2c3c6c9", "e52430f6ac6d0c71",
        "80e7d50884610d3a", "84182070b0b05a9d", "08b7630d2de8e11a", "d2ef8e7abeede676",
        "ff2cb590b9d1870b", "53b34a83a23db828", "73f259c186ded4ef", "fc3f3ea0c763eff1",
        "2f40e4b60a633a0b", "4344067e7784b81d", "c4add673b7d36f97", "a1c14b1b5fdbcbc1",
        "b633cba7112586eb", "7efd9bd3b3a32fe3", "198cd73569d5793a", "418fe3871d6749c1",
    ),
}


# The same for each extract job's JSON "series" list, dumped with sorted keys:
# the extracted and reference coefficients, statuses and agreement orders,
# pinned when extraction still read three compact surfaces, which the vertex
# panel must not move.
EXTRACT_SERIES_SHA256 = (
    "527c48b9fc4363c1", "775fd260345eeff7", "d4ab7abfb673566a", "d4ab7abfb673566a",
    "029949cbca61c1d8", "4cddb2367784295d", "029949cbca61c1d8", "5f2f45a2848332ab",
    "f97c933fcaf15474", "22c4951136900335", "cb6d4365001827c5", "5f2f45a2848332ab",
    "029949cbca61c1d8", "4cddb2367784295d", "d4ab7abfb673566a", "e8275c0683c8195b",
    "5f2f45a2848332ab", "4cddb2367784295d", "cb6d4365001827c5",
)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("workload", sorted(FIRST_BLOCK_SHA256))
def test_first_block_prints_pinned_bytes(monkeypatch, workload):
    from hilbseries import cli
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    got, series = [], []
    for argv in next(_load("workloads").blocks(workload, 1)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0, argv
        got.append(_digest(out.getvalue()))
        if workload == "extract":
            series.append(_digest(json.dumps(json.loads(out.getvalue())["series"],
                                             sort_keys=True)))
    assert tuple(got) == FIRST_BLOCK_SHA256[workload]
    if workload == "extract":
        assert tuple(series) == EXTRACT_SERIES_SHA256
