"""The lazy public API of :mod:`repro` resolves.

Every symbol in ``repro.__all__`` must resolve to the object its backing
module defines.
"""

import importlib

import pytest

import repro

IMPLEMENTED = sorted(repro._LAZY_EXPORTS)


def test_version_is_exported():
    assert repro.__version__


def test_all_lists_every_lazy_export():
    assert set(repro._LAZY_EXPORTS) <= set(repro.__all__)


@pytest.mark.parametrize("name", IMPLEMENTED)
def test_implemented_symbols_resolve(name):
    assert getattr(repro, name) is not None


@pytest.mark.parametrize("name", IMPLEMENTED)
def test_lazy_export_matches_direct_import(name):
    module_name, attr = repro._LAZY_EXPORTS[name]
    assert getattr(repro, name) is getattr(importlib.import_module(module_name), attr)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_exported


def test_dir_covers_all():
    assert set(repro.__all__) <= set(dir(repro))


def test_model_package_imports():
    # the regression this PR fixes: `import repro.model` used to raise
    module = importlib.import_module("repro.model")
    assert sorted(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None


def test_graphs_package_imports():
    module = importlib.import_module("repro.graphs")
    for name in module.__all__:
        assert getattr(module, name) is not None


#: the packages whose names resolve on first access (``repro._lazy``)
LAZY_PACKAGES = (
    "repro.errors",
    "repro.runtime",
    "repro.ensemble",
    "repro.ect",
    "repro.refine",
    "repro.selection",
    "repro.reporting",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_resolve_once(package):
    """Every exported name resolves, ``dir()`` lists it, and the resolved
    object is cached in the package, where rebinding it is seen by every
    later ``from package import name``; any other name is an
    ``AttributeError``."""
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        value = getattr(module, name)
        assert value is not None
        assert vars(module)[name] is value
    with pytest.raises(AttributeError, match="no attribute"):
        module.definitely_not_exported
