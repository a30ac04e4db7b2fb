"""Guards on the package's public surface.

Every ``__all__`` entry must resolve: the benchmark tracer wraps each one
by name, so a stale entry left behind by a deletion breaks every traced run.
Each public name has one home: the package root exports the layer modules
and nothing else, and no name sits in two modules' ``__all__``. And no
module reads another module's private names.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import robust_recon

PACKAGE = robust_recon.__name__
SOURCES = sorted(Path(robust_recon.__file__).parent.glob("*.py"))
MODULES = [PACKAGE] + [f"{PACKAGE}.{p.stem}" for p in SOURCES
                       if p.stem not in ("__init__", "__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_root_exports_the_layer_modules_only():
    layers = [p.stem for p in SOURCES if p.stem not in ("__init__", "__main__", "cli")]
    assert sorted(robust_recon.__all__) == layers
    bound = [name for name, value in vars(robust_recon).items()
             if inspect.isfunction(value) or inspect.isclass(value)]
    assert bound == []


def test_no_name_is_exported_by_two_modules():
    counts = Counter(entry for name in MODULES
                     for entry in importlib.import_module(name).__all__)
    assert [entry for entry, n in counts.items() if n > 1] == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list:
    """``module._name`` reads and ``from module import _name`` imports of the
    package's own modules in ``source``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        own = node.level > 0 or (node.module or "").split(".")[0] == PACKAGE
        if not own:
            continue
        if node.module is None or node.module == PACKAGE:  # from . import a, b
            modules.update(alias.asname or alias.name for alias in node.names)
        found += [f"{node.module or '.'}:{alias.name}" for alias in node.names
                  if _is_private(alias.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_private_read_detector_finds_both_forms():
    source = ("from . import solvers\nfrom .metrics import _filter3, psnr\n"
              "solvers._cauchy_point(1)\nsolvers.lbfgsb.__doc__\n")
    assert private_reads(source) == ["metrics:_filter3", "solvers._cauchy_point"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path.read_text()) == []
