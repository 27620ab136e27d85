"""The public names of the package resolve.

Each module's ``__all__`` lists what it exports, and ``hilbseries/__init__``
re-exports a subset of those.  A name deleted from a module but left in a
list, or re-exported without being declared public, fails here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import hilbseries

MODULES = [importlib.import_module("hilbseries." + info.name)
           for info in pkgutil.iter_modules(hilbseries.__path__)]


def test_every_name_in_all_resolves():
    listed = [module for module in MODULES if hasattr(module, "__all__")]
    assert listed
    for module in listed:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_package_reexports_only_public_names():
    tree = ast.parse(Path(hilbseries.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        module = importlib.import_module("hilbseries." + node.module)
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(hilbseries, alias.asname or alias.name) is \
                getattr(module, alias.name)
