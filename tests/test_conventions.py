"""Package-wide code conventions, checked on the source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "semifree8"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_assert(path):
    # `python -O` strips an assert statement; the package states a check it
    # must keep with `enumeration._ensure`, or raises a named error
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "bare assert in %s at lines %s" % (path.name, lines)
