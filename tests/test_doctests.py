"""Run the >>> examples in every knotcert module's docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import knotcert

MODULES = ["knotcert"] + [f"knotcert.{m.name}" for m in pkgutil.iter_modules(knotcert.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
