"""The examples in the package docstrings and the README's library code,
run as part of the suite."""

import doctest
import importlib
import pathlib
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


def test_readme_library_code_runs():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md (Library)", "exec"), {})
