"""What importing the command line front end loads, in a fresh interpreter.

Every command runs in a new process, so each module the import pulls in
is compiled and executed on every call. The package needs neither the
dataclass machinery (with `inspect` and the rest that `dataclasses`
imports) nor the component rings, which only the independent oracles
read: those import `semifree8.rings` when they run. Nor does it need
`hashlib` until a command prints the family table's hash.
"""

import os
import pathlib
import subprocess
import sys

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


def run_child(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.splitlines()


def test_cli_import_footprint():
    (bare,) = run_child(LIST_MODULES)
    lines = run_child("import semifree8.cli; " + LIST_MODULES + "\n" + ORACLES)
    assert lines[1:] == ["oracles ok"]
    added = set(lines[0].split()) - set(bare.split())
    assert {"semifree8.cli", "semifree8.classify", "semifree8.localization"} <= added
    assert not added & {"dataclasses", "hashlib", "inspect", "semifree8.rings"}, sorted(added)
