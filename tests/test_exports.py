"""Every name a module exports resolves, the package exports the
modules' names in a fixed order, every name the benchmark wraps exists,
and every name a module imports is used.

A name left in an ``__all__`` after its definition is deleted breaks
only ``from cubulate import *``, which no other test runs; this fails
on it directly.  Likewise a name the traced benchmark pass wraps
(perfbench/traced.py) breaks only that pass once it is gone.  An import
left behind when its last caller goes breaks nothing at all, so it is
caught by reading the module's syntax tree.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import cubulate

MODULES = [cubulate] + [
    importlib.import_module(f"cubulate.{info.name}")
    for info in pkgutil.iter_modules(cubulate.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)


def test_package_all_joins_the_module_lists_in_order():
    from cubulate import action, certify, cubing, errors, families, homotopy, sections, wallspace

    assert cubulate.__all__ == [
        "__version__",
        *errors.__all__,
        *wallspace.__all__,
        *sections.__all__,
        *cubing.__all__,
        *homotopy.__all__,
        *action.__all__,
        *certify.__all__,
        *families.__all__,
    ]


def test_star_import_binds_exactly_the_package_all():
    namespace = {}
    exec("from cubulate import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cubulate.__all__)
    assert [n for n, value in namespace.items() if value is not getattr(cubulate, n)] == []


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cubulate.no_such_name


def test_cli_family_names_are_the_families():
    from cubulate import cli, families

    assert cli.FAMILY_NAMES == tuple(sorted(families.FAMILIES))


def _traced_targets():
    """(owner, attribute, span name) of every call the traced benchmark
    pass wraps."""
    path = Path(__file__).parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced._targets()


def test_every_name_the_benchmark_wraps_exists():
    # the traced benchmark pass wraps each target through vars(owner)[attr]
    targets = _traced_targets()
    assert targets
    assert [(o.__name__, a) for o, a, _ in targets if a not in vars(o)] == []


def _unused_imports(source, exempt):
    """The names import statements in source bind, other than star and
    __future__ imports, that no expression loads (string annotations
    included) and that are not exempt."""
    tree = ast.parse(source)
    imported = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree] + [
        ast.parse(a.value, mode="eval")
        for a in annotations
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - used - exempt)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_imported_name_is_used(module):
    # an import may stay for its __all__ or for a benchmark hook that
    # wraps the name where the module looks it up
    exempt = set(getattr(module, "__all__", ()))
    exempt |= {attr for owner, attr, _ in _traced_targets() if owner is module}
    assert _unused_imports(Path(module.__file__).read_text(), exempt) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import NamedTuple, Sequence\n"
        "from .x import *\n"
        "def f(a: 'Sequence[int]'): return osp\n"
    )
    assert _unused_imports(source, set()) == ["NamedTuple", "os"]
    assert _unused_imports(source, {"os"}) == ["NamedTuple"]
