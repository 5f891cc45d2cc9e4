"""Every name a module exports resolves.

A name left in an ``__all__`` after its definition is deleted breaks
only ``from cubulate import *``, which no other test runs; this fails
on it directly.
"""

import importlib
import pkgutil

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
