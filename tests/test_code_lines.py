"""The code-line counter behind every line count in CHANGES.md, on a
hand-counted file."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 11 code lines, marked; every other line is blank, a comment or a docstring
SAMPLE = '''"""Module docstring,
over two lines."""

# a comment

import os  # a trailing comment: code                     (1)


class Sample:  #                                          (2)
    """Class docstring."""

    def method(self):  #                                  (3)
        """Function docstring,

        over three lines."""
        # another comment
        text = """a multi-line string,                    (4)
that is not a docstring,                                  (5)
counts on every line"""  #                                (6)
        return (len(text)  #                              (7)
                + len(os.sep)  #                          (8)
                + 1)  #                                   (9)


"""A bare string after the first statement: no docstring."""  # (10)
LAST = 1  #                                               (11)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert _tool().code_lines(path) == 11


def test_main_prints_each_module_sorted_then_the_total(tmp_path, capsys):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "another.py").write_text('"""Only a docstring."""\n\nx = (\n    1)\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    2 another\n   11 sample\n   13 total\n"
