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
    # a tracer wraps extraction.segre_series and extraction.verlinde_series
    # after import; extraction's kind table must call the wrapper, not the
    # function it bound at import
    from hilbseries import extraction
    name = kind + "_series"
    original, calls = getattr(extraction, name), []

    def wrapper(*args):
        calls.append([repr(c) for c in args[0]])
        return original(*args)

    monkeypatch.setattr(extraction, name, wrapper)
    extract = {"segre": extraction.extract_universal, "verlinde": extraction.extract_verlinde}
    extract[kind](1, 1)
    # one call for the whole panel, its rows in order
    assert calls == [[repr(c) for c in extraction.default_panel(kind, 1)]]


def test_every_benchmark_argv_parses():
    # argparse exits 2 on an argv it cannot parse, which fails this test
    from hilbseries import cli
    workloads = _load("workloads")
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for argv in next(workloads.blocks(workload, 1)):
            parser.parse_args(argv)


def test_a_named_subcommand_builds_only_its_parser(monkeypatch):
    # every benchmark argv names its subcommand first and pays for that parser
    # alone; help, no arguments and an unknown command build all four
    import argparse
    from hilbseries import cli
    added = []
    original = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: added.append(name) or original(self, name, **kw))
    for name in ("series", "verify", "oracle", "extract"):
        monkeypatch.setattr(cli, "_cmd_" + name, lambda args, parser: 0)
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS:
        for argv in next(workloads.blocks(workload, 1)):
            added.clear()
            assert cli.main(list(argv)) == 0
            assert added == argv[:1], argv
    for argv in (["--help"], [], ["bogus"]):
        added.clear()
        with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        assert added == ["series", "verify", "oracle", "extract"], argv


# The first 16 hex digits of the sha256 of each job's stdout, seed 1, first
# block, in block order.
FIRST_BLOCK_SHA256 = {
    "extract": (
        "a5ffda5b0b7374ab", "7a3dfe3dd4b78d23", "5532e4c6ced80ffd", "bc33756a2dafa5ef",
        "7952d645a5f2ace5", "6162833edea6eb35", "02ffa8492270b3e7", "d1c4af2d4999b1b6",
        "59ce997b7cf88cd6", "17de53af8fcd333e", "d262d3c029c3071f", "da030b25e29108b4",
        "36747d035c8d7f3f", "d7eefad1a05cc681", "66ef0e4334ed5247", "3b2c1279b96a3848",
        "17f329c4f931de9b", "d89dbeba43c8070c", "1b6d0535f1e9cc32",
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


@pytest.mark.parametrize("workload", sorted(FIRST_BLOCK_SHA256))
def test_first_block_prints_pinned_bytes(monkeypatch, workload):
    from hilbseries import cli
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)
    got = []
    for argv in next(_load("workloads").blocks(workload, 1)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0, argv
        got.append(hashlib.sha256(out.getvalue().encode()).hexdigest()[:16])
    assert tuple(got) == FIRST_BLOCK_SHA256[workload]
