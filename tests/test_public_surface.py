"""The public names of the package resolve, and program code reads them.

Each module's ``__all__`` lists what it exports, and ``hilbseries/__init__``
re-exports a subset of those.  A name deleted from a module but left in a
list, or re-exported without being declared public, fails here.  So does a
public function or class that no module of the package reads, unless it is
named below as kept for the benchmark or the tests, and a public method of a
public class whose name no module of the package reads as an attribute.
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


# Kept only for the benchmark's traced paths or for tests, until they leave the
# package.  Written out rather than read from the benchmark's traced list, so that
# the benchmark can drop a traced name without failing this census.  build_panel
# builds the compact Segre panel of the tests' reference extraction and is traced
# by the benchmark; extraction reads C^2 charts instead.  segre_full
# and verlinde_full are kept for the benchmark, whose oracle check
# (perfbench/checks.py) reads the module functions; no package module calls them,
# and without this entry they would pass only because the holder methods
# _SegreLogs.segre_full and _VerlindeLogs.verlinde_full share their names.
UNLOADED_ALLOWED = {"enumerate_fixed_points", "tangent_weights", "taut_weights",
                    "solve_exact", "verlinde_change_of_var", "segre_full", "verlinde_full",
                    "build_panel"}
SOURCES = sorted(path for path in Path(hilbseries.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def reads(path):
    """What the module's code reads: bare names as (module, name), resolved through
    its relative imports, and attribute names, which are matched by name alone since
    their owner is not known statically.  Strings are not reads, so neither a
    docstring nor an ``__all__`` entry is."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name: (node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names}
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(imported.get(node.id, (path.stem, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def test_every_public_definition_is_loaded_by_program_code():
    # by another module, or by its own module outside __all__
    names, attributes = set(), set()
    for path in SOURCES:
        module_names, module_attributes = reads(path)
        names |= module_names
        attributes |= module_attributes
    unloaded = [(path.stem, node.name) for path in SOURCES
                for node in ast.parse(path.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and (path.stem, node.name) not in names and node.name not in attributes]
    assert [entry for entry in unloaded if entry[1] not in UNLOADED_ALLOWED] == []


def test_every_public_method_is_loaded_by_program_code():
    # matched by name alone, as attribute reads are, so a method passes when any
    # module reads an attribute of its name
    attributes = set().union(*(reads(path)[1] for path in SOURCES))
    unloaded = [(path.stem, node.name, item.name) for path in SOURCES
                for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                and item.name not in attributes]
    assert unloaded == []
