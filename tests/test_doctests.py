"""Run the >>> examples in every knotcert module's docstrings and in the
README tour."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import knotcert

MODULES = ["knotcert"] + [f"knotcert.{m.name}" for m in pkgutil.iter_modules(knotcert.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
