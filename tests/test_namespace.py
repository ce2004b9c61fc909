"""The package namespace resolves its public names lazily (PEP 562)."""

import importlib
from types import ModuleType

import pytest

import toricmirror as tm


@pytest.mark.parametrize("name", tm.__all__)
def test_public_name_is_its_home_modules_object(name):
    value = getattr(tm, name)
    if isinstance(value, ModuleType):
        assert value is importlib.import_module(f"toricmirror.{name}")
        return
    home = "toricmirror.fixtures" if name == "REGISTRY" else value.__module__
    assert value is getattr(importlib.import_module(home), name)


def test_dir_lists_every_public_name():
    assert set(tm.__all__) <= set(dir(tm))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tm.no_such_name
    assert not hasattr(tm, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from toricmirror import *", namespace)
    assert set(tm.__all__) <= set(namespace)
    assert namespace["verify_isomorphism"] is tm.quantum_ring.verify_isomorphism


def test_product_structure_is_shared_by_the_core_and_the_ring_layer():
    assert tm.product_structure is tm.quantum_ring.product_structure
    assert tm.product_structure is tm.toric_core.product_structure
