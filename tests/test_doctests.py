"""The examples in the package docstrings, run as part of the suite."""

import doctest
import importlib
import pkgutil

import pytest

import semifree8

MODULES = sorted(m.name for m in pkgutil.iter_modules(semifree8.__path__, "semifree8."))


@pytest.mark.parametrize("name", ["semifree8"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, result


def test_doctests_are_found():
    finder = doctest.DocTestFinder()
    found = {name for name in MODULES
             if any(t.examples for t in finder.find(importlib.import_module(name)))}
    assert {"semifree8.polynomial", "semifree8.rings"} <= found
