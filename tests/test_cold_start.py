"""What importing the command line front end loads, in a fresh interpreter.

Every command runs in a new process, so each module the import pulls in
is compiled and executed on every call. The package needs neither the
dataclass machinery (with `inspect` and the rest that `dataclasses`
imports) nor the component rings, which only the independent oracles
read: those import `semifree8.rings` when they run. No command loads
`hashlib`'s OpenSSL binding `_hashlib` either: the family table's hash in
every header comes from CPython's built-in sha256.

The per-shape enumeration is `semifree8.enumeration`: importing the
package or the front end does not load it, and neither does any command
but `enumerate`. Its names still import from `semifree8` and
`semifree8.classify`, which load it on first use.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from semifree8.classify import catalog
from semifree8.dataio import dumps_data

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

LIST_MODULES = "import sys; print(' '.join(sorted(sys.modules)))"

# after the import, the oracles still evaluate: the lazy imports work
ORACLES = """
from semifree8.classify import catalog
from semifree8.dh import dh_from_ring, dh_near_cp2
from semifree8.localization import contribution, contribution_series_oracle
comps = [c for data in catalog().values() for c in data]
assert all(contribution_series_oracle(c.weights, c.normal) == contribution(c.weights, c.normal)
           for c in comps)
assert all(dh_from_ring(k2) == dh_near_cp2(k2) for k2 in range(-2, 8))
assert "semifree8.rings" in sys.modules
print("oracles ok")
"""


ENUMERATION = "semifree8.enumeration"

# one command in this process, then whether it loaded the enumeration and
# OpenSSL's hash binding
RUN_COMMAND = """
import contextlib, io, sys
from semifree8.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, %r in sys.modules, "_hashlib" in sys.modules)
""" % ENUMERATION


def run_child(code, *argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True, cwd=cwd)
    return proc.stdout.splitlines()


def test_cli_import_footprint():
    (bare,) = run_child(LIST_MODULES)
    lines = run_child("import semifree8.cli; " + LIST_MODULES + "\n" + ORACLES)
    assert lines[1:] == ["oracles ok"]
    added = set(lines[0].split()) - set(bare.split())
    assert {"semifree8.cli", "semifree8.classify", "semifree8.localization"} <= added
    assert not added & {"dataclasses", "hashlib", "inspect", "semifree8.rings",
                        ENUMERATION}, sorted(added)


def test_package_import_leaves_out_the_enumeration():
    (names,) = run_child("import semifree8; " + LIST_MODULES)
    assert "semifree8.classify" in names.split()
    assert ENUMERATION not in names.split()
    # the moved names still import from both old places, loading it then
    lines = run_child("import sys, semifree8\n"
                      "from semifree8.classify import enumerate_case\n"
                      "print(%r in sys.modules, semifree8.enumerate_case is enumerate_case, "
                      "'enumerate_case' in semifree8.__all__)" % ENUMERATION)
    assert lines == ["True True True"]


@pytest.mark.parametrize("argv, loads", [
    (["verify", "x8.json"], False),
    (["verify", "x8.json", "--json"], False),
    (["catalog"], False),
    (["catalog", "--name", "w5-surface-and-plane"], False),
    (["classify-fano"], False),
    (["enumerate", "--shape", "4,4"], True),
    (["enumerate", "--max-b4", "3"], True),
])
def test_only_enumerate_loads_the_enumeration(tmp_path, argv, loads):
    (tmp_path / "x8.json").write_text(dumps_data(catalog()["x8-six-points"]), encoding="utf-8")
    assert run_child(RUN_COMMAND, *argv, cwd=tmp_path) == ["0 %s False" % loads]
