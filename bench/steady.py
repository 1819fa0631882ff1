#!/usr/bin/env python3
"""Steadiness self-check: is each end-to-end metric steady enough for its bound?

    python3 bench/steady.py [--workload NAME ...]

Runs ``bench/run.py`` once for each of the seeds 1 to 10 on each
workload, one run at a time, with the run length from BENCHMARK.json. For
every end-to-end metric it prints the median of the runs and the spread,
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound. A spread above a third of the bound is flagged
``WIDE``, above the bound ``FAIL``. The raw results go to
``bench/out/steady.json``. Exit status 1 if a run fails or a spread fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]

    results = {}
    ok = True
    for name in names:
        runs = []
        for seed in SEEDS:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (name, seed, proc.returncode, proc.stderr))
                ok = False
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **{k: v["value"] for k, v in line["metrics"].items()},
                         "attempted": line["attempted"], "failed": line["failed"]})
            print("%s seed %d: %s" % (name, seed, json.dumps(runs[-1])), flush=True)
        results[name] = runs
        if len(runs) < 2:
            continue
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            s = spread(values)
            flag = "ok"
            if s > metric["bound"]:
                flag, ok = "FAIL", False
            elif s > metric["bound"] / 3:
                flag = "WIDE"
            print("  %-16s %-14s median %-12.6g spread %.4f bound %.2f %s"
                  % (name, metric["name"], statistics.median(values), s, metric["bound"], flag))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
