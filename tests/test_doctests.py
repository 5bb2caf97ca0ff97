"""Run the docstring examples of every module in the package, so the
tier-1 command covers a module's doctests as soon as it has any."""

import doctest
import importlib
import pkgutil

import pytest

import abtqft

MODULES = sorted(
    "abtqft." + info.name for info in pkgutil.iter_modules(abtqft.__path__))


def test_every_module_is_listed():
    assert {"abtqft.cli", "abtqft.cyclotomic", "abtqft.mcg",
            "abtqft.surgery"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, (name, result)
