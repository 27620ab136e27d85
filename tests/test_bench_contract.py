"""The benchmark's traced names must exist in the package.

``perfbench/spans.py`` wraps hilbseries functions by (module, attribute
path).  Its own tests are not part of this suite, so a renamed or deleted
traced function would otherwise surface only in a traced benchmark run.
The spans module is loaded from its file and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves():
    spans = _load_spans()
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
