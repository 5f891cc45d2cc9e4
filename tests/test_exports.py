"""Every name a module exports resolves, and every name the benchmark
wraps exists.

A name left in an ``__all__`` after its definition is deleted breaks
only ``from cubulate import *``, which no other test runs; this fails
on it directly.  Likewise a name the traced benchmark pass wraps
(perfbench/traced.py) breaks only that pass once it is gone.
"""

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


def test_every_name_the_benchmark_wraps_exists():
    # the traced benchmark pass wraps each target through vars(owner)[attr]
    path = Path(__file__).parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    targets = traced._targets()
    assert targets
    assert [(o.__name__, a) for o, a, _ in targets if a not in vars(o)] == []
