#!/usr/bin/env python3
"""semifree8 benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed. NAME is one of the workloads
in BENCHMARK.json, or ``all`` to run the three one after another, each for
S seconds, and print their named end-to-end metrics together.

The run builds its inputs from the seed, repeats whole passes over them
for S seconds, checks every output and prints a table of named metrics
with units and sample counts. Times are given at the reference speed of
workloads.py (wall time scaled by a speed probe run between items; the
table gives the wall figures too). ``items_per_s`` is the completed items
over the summed item times, ``item_p50_ms`` the median item time. The last
line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. A traced run alternates untraced passes with passes that have
spans around the package's public functions, and reports as the tracing
overhead the median, over these pairs of passes, of the traced minus the
untraced figure.

``setup_s`` is the median, over 31 fresh interpreters, of the time that
``import semifree8`` takes in each, timed inside the child and scaled by
probes just before and after it. In an untraced
run of one workload its samples are taken a few at a time between passes,
in step with the elapsed share of the window, so that they span the window
rather than one moment of it; the time they take is not counted in the
window.

The run pins itself, and so every child it starts, to the lowest CPU it
may use, so that the speed probe and the code it scales share one core.

A mismatch stops the run, so ``failed`` is 0 whenever numbers are printed;
a document on which the verifier raises is an outcome of verify-edits,
counted in ``verify_edits.failed_frac``, not a failed item.

Exit status: 0 on success, 1 when an output is wrong (no numbers are
printed), 2 when the run cannot start (no ``src/semifree8``, ``python -O``,
bad arguments).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify-families", "verify-edits", "cli")
SETUP_SAMPLES = 31
IMPORT_TIMER = ("import time; t = time.perf_counter(); import semifree8; "
                "print(repr(time.perf_counter() - t))")


def fail(code, message):
    print("bench: %s" % message, file=sys.stderr)
    return code


median = workloads.median


class Setup:
    """Seconds that ``import semifree8`` takes in a fresh interpreter, at
    the reference speed (``samples``) and in wall time (``wall``)."""

    def __init__(self):
        self.env = workloads.child_env(ROOT)
        self.cmd = [sys.executable, "-c", IMPORT_TIMER]
        self.scaler = workloads.Scaler()
        self.sample()  # writes the bytecode caches
        self.samples = []
        self.wall = []

    def sample(self):
        self.scaler.before()
        proc = subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True,
                              capture_output=True, text=True)
        seconds = float(proc.stdout)
        return seconds, self.scaler.scale(seconds)

    def top_up(self, share):
        """Sample until `share` of SETUP_SAMPLES is taken; return the seconds spent."""
        begin = time.perf_counter()
        while len(self.samples) < min(SETUP_SAMPLES, math.ceil(share * SETUP_SAMPLES)):
            wall, scaled = self.sample()
            self.wall.append(wall)
            self.samples.append(scaled)
        return time.perf_counter() - begin


def one_pass(wl, rec):
    rec.start_pass()
    wl.check(wl.run_pass(rec))
    rec.end_pass()


def measure(wl, seconds, rec, setup):
    """Whole passes over the workload's inputs until `seconds` have passed,
    topping up the set-up samples after each pass."""
    start = time.perf_counter()
    paused = 0.0
    while True:
        one_pass(wl, rec)
        elapsed = time.perf_counter() - start - paused
        paused += setup.top_up(elapsed / seconds)
        if elapsed >= seconds:
            return rec


def measure_traced(wl, seconds, untraced, rec, tracer):
    """Alternate untraced and traced passes until `seconds` have passed, so
    that drift in machine speed falls on both alike. The export and the
    gate run once, traced, after the first untraced pass."""
    deadline = time.perf_counter() + seconds
    gate_rows = None
    while True:
        one_pass(wl, untraced)
        tracer.install()
        try:
            if gate_rows is None:
                wl.export()
                gate_rows = wl.gate()
            one_pass(wl, rec)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            return gate_rows


e2e = workloads.e2e


def pass_e2e(rec):
    starts = [0] + rec.pass_ends[:-1]
    return [e2e(rec.items[a:b]) for a, b in zip(starts, rec.pass_ends)]


def print_rows(rows):
    for name, unit, value, n, note in rows:
        print("  %-30s %14.6g %-4s n=%-6d %s" % (name, value, unit, n, note or ""))


# ----------------------------------------------------------------------
# per-layer metrics of a traced window
# ----------------------------------------------------------------------

def layer_metrics(sf, tracer, rec, untraced, wl):
    out = {}
    per_pass = [s for s in tracer.spans if s[5] > 0]
    once = [s for s in tracer.spans if s[5] == 0]
    rows_pass, rows_once = tracer.totals(per_pass), tracer.totals(once)
    for _, _, name in tracing.TRACED:
        if name == "classify.enumerate_case":
            continue
        a = rows_pass.get(name, [0, 0.0, 0.0])
        b = rows_once.get(name, [0, 0.0, 0.0])
        for i, field in enumerate(("calls", "busy_s", "self_s")):
            out["%s.%s" % (name, field)] = a[i] / rec.passes + b[i]
    ratios = rec.named.get("polynomial.positive_on_open.distinct_frac", [])
    out["polynomial.positive_on_open.distinct_frac"] = median(ratios)

    known = wl.enumerated if wl.name == "cli" else {}
    calls = {}
    for name, dur, nested, n in tracer.nested("classify.enumerate_case.", "classify.verification_report"):
        calls.setdefault(name, []).append((dur - nested, nested, n))
    for shape in sf.ADMISSIBLE_SHAPES:
        for b4_max in (14, 30):
            key = "classify.enumerate_case.%s.b%d" % (tracing.shape_tag(shape), b4_max)
            seen = calls.get(key, [])
            sweep = sum(c[0] for c in seen) / len(seen) if seen else 0.0
            result = known.get((shape, b4_max)) if seen else None
            if seen and result is None:
                result = sf.enumerate_case(shape, b4_max)
            choices = workloads.parameter_choices(result) if seen else 0
            out[key + ".sweep_s"] = sweep
            out[key + ".certify_s"] = sum(c[1] for c in seen) / len(seen) if seen else 0.0
            out[key + ".certify_calls"] = sum(c[2] for c in seen) / len(seen) if seen else 0.0
            out[key + ".choices"] = choices
            out[key + ".ns_per_choice"] = 1e9 * sweep / choices if choices else 0.0

    subprocess_s = (wl.command_seconds(untraced.items, field=1) if wl.name == "cli" else {})
    for cmd in workloads.CLI_COMMANDS:
        inproc = median(untraced.named.get("cli.%s.inproc_s" % cmd, []))
        out["cli.%s.inproc_s" % cmd] = inproc
        out["cli.%s.startup_s" % cmd] = subprocess_s.get(cmd, (0.0, 0))[0] - inproc

    out["verify_edits.failed_frac"] = (wl.rows(rec.items)[-1][2]
                                       if wl.name == "verify-edits" else 0.0)
    pairs = list(zip(pass_e2e(untraced), pass_e2e(rec)))
    for metric in ("items_per_s", "item_p50_ms"):
        out["trace.overhead.%s" % metric] = median([t[metric] - u[metric] for u, t in pairs])
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_one(sf, name, seed, seconds, trace, golden, setup):
    """Measure one workload: (workload, recorder, metrics, gate rows);
    raises Mismatch."""
    wl = workloads.make(name, sf, seed, golden, ROOT, OUT, inproc=bool(trace))
    if not trace:
        rec = measure(wl, seconds, workloads.Recorder(), setup)
        return wl, rec, e2e(rec.items), wl.gate()
    untraced = workloads.Recorder()
    tracer = tracing.Tracer()
    rec = workloads.Recorder(tracer)
    gate_rows = measure_traced(wl, seconds, untraced, rec, tracer)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "spans-%s-seed%d.tsv" % (name, seed)))
    return wl, rec, layer_metrics(sf, tracer, rec, untraced, wl), gate_rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        return fail(2, "refusing to run under python -O: the enumeration's own "
                       "checks are assert statements")
    if not os.path.isfile(os.path.join(SRC, "semifree8", "__init__.py")):
        return fail(2, "no package source at %s" % os.path.relpath(SRC))
    if args.seconds <= 0:
        return fail(2, "--seconds must be positive")
    if args.workload == "all" and args.trace:
        return fail(2, "a traced run takes one workload")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import semifree8 as sf
    import semifree8.cli  # noqa: F401  (the cli workload calls sf.cli.main)

    spec = load_spec()
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)

    print("semifree8 benchmark: workload %s, seed %d, %g s, trace %d, python %s, nproc %d"
          % (args.workload, args.seed, args.seconds, args.trace,
             sys.version.split()[0], os.cpu_count() or 0))
    setup = Setup()
    if args.workload == "all" or args.trace:
        setup.top_up(1.0)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = 0
    probes = []
    metrics = {}
    units = {}
    for name in names:
        try:
            wl, rec, values, gate_rows = run_one(sf, name, args.seed, args.seconds,
                                                 args.trace, golden, setup)
        except workloads.Mismatch as exc:
            return fail(1, "wrong output, no numbers reported: %s" % exc)
        attempted += len(rec.items)
        probes += rec.scaler.probes
        print("%s: %d passes, %d items" % (name, rec.passes, len(rec.items)))
        rows = wl.rows(rec.items)
        print_rows(rows + gate_rows)
        if args.workload == "all":
            metrics.update({r[0]: r[2] for r in rows + gate_rows})
            units.update({r[0]: r[1] for r in rows + gate_rows})
        else:
            metrics.update(values)
    metrics["setup_s"] = median(setup.samples)
    units["setup_s"] = "s"
    print_rows([("setup_s", "s", metrics["setup_s"], len(setup.samples),
                 "import semifree8, timed inside a fresh interpreter; wall %.6g s"
                 % median(setup.wall)),
                ("probe_ms", "ms", 1e3 * median(probes), len(probes),
                 "speed probe; times above are scaled to %.3g ms"
                 % (1e3 * workloads.REFERENCE_PROBE_S))])

    if args.workload != "all":
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            return fail(1, "metrics missing from this run: %s" % ", ".join(missing))
        units = {m["name"]: m["unit"] for m in wanted}
        if args.trace:
            for name in sorted(units):
                print("  %-48s %.6g %s" % (name, metrics[name], units[name]))
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
