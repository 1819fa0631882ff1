#!/usr/bin/env python3
"""Print the pinned outputs for the package as it stands.

    python3 bench/pin.py > bench/golden.json

Only for a change that is meant to alter what the program outputs; the
benchmark compares every run against golden.json and fails on any
difference.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import semifree8 as sf  # noqa: E402
import semifree8.cli  # noqa: E402,F401
import workloads  # noqa: E402


def main():
    os.chdir(ROOT)
    golden = {"enumerate": {}}
    for b4_max in workloads.B4_CUTOFFS:
        golden["enumerate"]["b%d" % b4_max] = workloads.enumeration_digest(
            [sf.enumerate_case(s, b4_max) for s in sf.ADMISSIBLE_SHAPES])
    fams = workloads.VerifyFamilies(sf, 0, {"verify-families": None})
    golden["verify-families"] = workloads.families_digest(fams.run_pass(workloads.Recorder()))
    cli = workloads.Cli(sf, 0, {"cli": {}, "enumerate": {}}, ROOT, os.path.join(HERE, "out"))
    golden["cli"] = {" ".join(argv): workloads.cli_record(code, stdout)
                     for argv, code, stdout, _ in cli.run_pass(workloads.Recorder())}
    print(json.dumps(golden, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
