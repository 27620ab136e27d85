"""The benchmark's traced names and job argvs must exist in the package.

``perfbench/spans.py`` wraps hilbseries functions by (module, attribute
path), and ``perfbench/workloads.py`` writes the CLI argvs its jobs run.
Their own tests are not part of this suite, so a renamed or deleted
traced function, or an option the CLI no longer takes, would otherwise
surface only in a benchmark run.  Both modules are loaded from their
files and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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


def test_every_benchmark_argv_parses():
    # argparse exits 2 on an argv it cannot parse, which fails this test
    from hilbseries import cli
    workloads = _load("workloads")
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for argv in next(workloads.blocks(workload, 1)):
            parser.parse_args(argv)
