"""Count the code lines of the semifree8 package, per module and in total.

A code line holds a token other than a comment, NL or NEWLINE, INDENT or
DEDENT, ENCODING or ENDMARKER (per ``tokenize``; a string spanning lines
holds each of them), and is not a line of a module, class or function
docstring (found with ``ast``). Blank lines, comments and docstrings
therefore do not count, and a change that only reflows them reads 0.

    python tools/code_lines.py [DIRECTORY]

prints one ``<count> <module>`` line per module of DIRECTORY (default
``src/semifree8`` next to this script), sorted by module name, then
``<total> total``.
"""

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers of every module, class and function docstring."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            out.update(range(doc.lineno, doc.end_lineno + 1))
    return out


def code_lines(path):
    """The number of code lines of one source file."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "semifree8"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print("%5d %s" % (count, path.stem))
    print("%5d total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
