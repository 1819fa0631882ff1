"""What importing the command line front end loads, in a fresh interpreter.

Every command runs in a new process, so each module the import pulls in
is compiled and executed on every call. The package needs neither the
dataclass machinery (with `inspect` and the rest that `dataclasses`
imports) nor the component rings: those hold the series oracle, which
no command runs. No command loads `hashlib`'s OpenSSL binding `_hashlib`
either: the family table's hash in every header comes from CPython's
built-in sha256. Nor does any command load `argparse` (with `gettext`):
the front end parses its command line from its own table of commands.

Three modules stay out of `import semifree8`: the per-shape enumeration
`semifree8.enumeration`, which only `enumerate` loads, the Fano volume
filter `semifree8.fano`, which only `classify-fano` loads, and
`semifree8.rings`, which no command loads. Their public names still
import from where they did (`semifree8`, `semifree8.classify`,
`semifree8.localization`), which load the module on first use and bind
the name there, so a later lookup, or a tracer that patches the names a
module holds, finds it in that module's namespace.

No command loads `fractions` either, nor the `decimal` and `numbers` it
imports, on the catalog exports or the enumerated families: the density
layer carries its levels as ints (a `Fraction` only for a seam at a
half-integer level, which none of them has) and certifies a piece with no
interior root on integer pairs. `Poly`'s rational API (`coeffs`,
`__call__`, `integrate`, `isolate_root`) still returns `Fraction`s and
imports `fractions` where it builds one; so does `positive_on_open` when
it isolates an interior root.

A family's Fano index and b4 (`Family.iota`, `Family.b4_base`) are read
off its own member when asked for. Only `enumerate` and `classify-fano`
ask: no import of a module of the package, and neither `verify` nor
`catalog`, builds a member for them.
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
FILTER = "semifree8.fano"
RINGS = "semifree8.rings"

RATIONALS = ("fractions", "decimal", "numbers")

# one command in this process, then whether it loaded the enumeration,
# OpenSSL's hash binding, the volume filter, the rings, argparse and any
# of the rational number modules
RUN_COMMAND = """
import contextlib, io, sys
from semifree8.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(name in sys.modules for name in %r),
      any(name in sys.modules for name in %r))
""" % ((ENUMERATION, "_hashlib", FILTER, RINGS, "argparse"), RATIONALS)

# the rational API in a fresh process: positivity by value loads no
# fractions; an interior root is isolated as Fractions, and a value is one
RATIONAL_API = """
import sys
from semifree8.polynomial import Poly, isolate_root, positive_on_open
p = Poly([-1, 0, 1])            # x^2 - 1
print(positive_on_open(p, 2, 4), positive_on_open(-p, 2, 4), "fractions" in sys.modules)
print(positive_on_open(p, 0, 4), "fractions" in sys.modules)
print(*(type(v).__name__ for v in isolate_root(p, 0, 4) + (p(3), p.coeffs[0])))
"""

# the calls of Family.iota and Family.b4_base, counted by a profile hook,
# while every module of the package imports, then while one command runs
COUNT_DERIVED = """
import contextlib, io, sys
calls = 0
def count(frame, event, arg):
    global calls
    code = frame.f_code
    if (event == "call" and code.co_name in ("iota", "b4_base")
            and code.co_filename.endswith("classify.py")):
        calls += 1
sys.setprofile(count)
import semifree8, semifree8.cli, semifree8.enumeration, semifree8.fano, semifree8.rings
imported = calls
with contextlib.redirect_stdout(io.StringIO()):
    semifree8.cli.main(sys.argv[1:])
sys.setprofile(None)
print(imported, calls - imported)
"""

# (module, old place, name) of each public name served from another module
MOVED = (
    [(FILTER, old, name) for name in ("classify_fano", "FanoClassification")
     for old in ("semifree8", "semifree8.classify")]
    + [(RINGS, old, "contribution_series_oracle")
       for old in ("semifree8", "semifree8.localization")]
    + [(RINGS, "semifree8.localization", name)
       for name in ("LaurentSeries", "equivariant_euler")])

# each moved name, looked up in its old place: held there before? the
# object of its new module? bound there after?
RESOLVE = """
import sys
import semifree8
for new, old, name in %r:
    served = sys.modules[old]
    before = name in vars(served)
    value = getattr(served, name)
    print(before, value is getattr(sys.modules[new], name), vars(served).get(name) is value)
""" % (MOVED,)


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
    assert not added & {"argparse", "dataclasses", "gettext", "hashlib", "inspect",
                        ENUMERATION, FILTER, RINGS, *RATIONALS}, sorted(added)


def test_package_import_leaves_out_the_enumeration():
    (names,) = run_child("import semifree8; " + LIST_MODULES)
    assert "semifree8.classify" in names.split()
    assert not {ENUMERATION, FILTER, RINGS} & set(names.split())
    # the moved names still import from both old places, loading it then
    lines = run_child("import sys, semifree8\n"
                      "from semifree8.classify import enumerate_case\n"
                      "print(%r in sys.modules, semifree8.enumerate_case is enumerate_case, "
                      "'enumerate_case' in semifree8.__all__)" % ENUMERATION)
    assert lines == ["True True True"]
    # so do the filter's and the oracle's, each bound where it was looked up
    assert run_child(RESOLVE) == ["False True True"] * len(MOVED)
    import semifree8
    assert {name for _, old, name in MOVED if old == "semifree8"} <= set(semifree8.__all__)


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
    # only classify-fano loads the volume filter, and no command the rings,
    # argparse or fractions
    (tmp_path / "x8.json").write_text(dumps_data(catalog()["x8-six-points"]), encoding="utf-8")
    filters = argv[0] == "classify-fano"
    assert run_child(RUN_COMMAND, *argv, cwd=tmp_path) == [
        "0 %s False %s False False False" % (loads, filters)]


@pytest.mark.parametrize("name", sorted(catalog()))
def test_verify_of_each_catalog_export_loads_no_fractions(tmp_path, name):
    (tmp_path / "doc.json").write_text(dumps_data(catalog()[name]), encoding="utf-8")
    for argv in (["verify", "doc.json"], ["verify", "doc.json", "--json"]):
        assert run_child(RUN_COMMAND, *argv, cwd=tmp_path) == [
            "0 False False False False False False"], argv


def test_rational_api_still_returns_fractions():
    assert run_child(RATIONAL_API) == [
        "(True, 'no interior roots and value 8 at 3') "
        "(False, 'value -8 at 3') False",
        "(False, 'vanishes in the interior, root inside [31/32, 1]') True",
        "Fraction Fraction Fraction Fraction"]


@pytest.mark.parametrize("argv, derives", [
    (["verify", "x8.json"], False),
    (["verify", "x8.json", "--json"], False),
    (["catalog"], False),
    (["catalog", "--json"], False),
    (["classify-fano"], True),
    (["enumerate", "--shape", "0,6"], True),
])
def test_only_enumerate_and_classify_fano_derive_family_facts(tmp_path, argv, derives):
    (tmp_path / "x8.json").write_text(dumps_data(catalog()["x8-six-points"]), encoding="utf-8")
    (line,) = run_child(COUNT_DERIVED, *argv, cwd=tmp_path)
    imported, ran = map(int, line.split())
    assert imported == 0 and (ran > 0) is derives, (argv, line)
