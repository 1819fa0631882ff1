"""The three workloads: inputs from the seed, one timed pass, output checks.

Every workload follows one closed loop with a single caller: the next
item starts only when the previous one has returned. An item is the unit a
user waits for:

* verify-families  one family member, JSON text -> ``loads_data`` ->
                   ``verification_report`` -> ``match_fp_class``;
* verify-edits     the same pipeline on an edited catalog entry; when the
                   verifier raises, the exception is that document's
                   outcome (recorded and counted, not a failed item);
* cli              one ``python -m semifree8.cli`` subprocess; after the
                   window, ``enumerate_case`` for each of the five shapes
                   at b4_max 14 and 30 is checked once against its digest.

A pass runs every input once; the run repeats passes. Every item is
recorded under a key naming its input, with its wall time and that time
at the reference speed (``Recorder.record``).

On a shared machine the speed of the same code changes from one second to
the next and from one minute to the next, by up to a factor of two. So a
short fixed probe of pure-Python rational arithmetic (``probe``) runs
between every two items, and each item's time is also given at the speed
at which the probe takes ``REFERENCE_PROBE_S``: wall time times
``REFERENCE_PROBE_S`` over the mean of the probes just before and just
after it. The probe is code of the benchmark, not of the package, so a
change to the package moves the scaled times as it moves the wall times.

``check`` raises ``Mismatch`` when an output differs from what the
program is known to produce; the run then fails without printing numbers.
``gate`` applies the slower invariant checks once, to the last pass, and
returns table rows (name, unit, value, samples, note) for any check that
can skip inputs, saying how many it covered.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import corpus

B4_CUTOFFS = (14, 30)
EDITS_PER_SEED = 630  # 35 per catalog entry and number of edits
STRUCTURAL = ("semi-free", "weight-zeros", "normal-variant")
# fewest verify-edits documents the abbv-vs-oracle gate must compare in a
# corpus of EDITS_PER_SEED (seeds 1-20 compare 216 to 250)
ABBV_COMPARED_FLOOR = 150
# the probe's time on an idle core of the two-vCPU machine the benchmark
# was written on (Python 3.11); scaled times read as times on that core
REFERENCE_PROBE_S = 0.35e-3
_REJECTED = re.compile(r"; (\d+) parameter choices rejected$")


class Mismatch(Exception):
    """An output of the program differs from the pinned or invariant value."""


def sha256(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def probe():
    """Seconds for a fixed piece of pure-Python rational arithmetic: the
    speed of the machine at this moment. The collector is off while it
    runs, so that no garbage of the package is collected on its time."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    acc = Fraction(0)
    counts = {}
    for i in range(1, 30):
        x = Fraction(i, 7)
        acc += (x * x - 3 * x + Fraction(1, 3)) / (x + 1)
        counts[i % 13] = counts.get(i % 13, 0) + i
    seconds = time.perf_counter() - t
    if enabled:
        gc.enable()
    return seconds


class Scaler:
    """Wall times at the reference speed, from probes on either side."""

    def __init__(self):
        self.probes = [probe()]

    def before(self):
        """Probe ahead of the next measurement."""
        self.probes.append(probe())

    def scale(self, seconds):
        """`seconds`, measured since the last probe, at the reference speed;
        probes again, ahead of the next measurement."""
        self.before()
        return seconds * REFERENCE_PROBE_S * 2 / (self.probes[-2] + self.probes[-1])


class Recorder:
    """Samples of one measured window."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.scaler = Scaler()
        self.items = []        # (key, wall seconds, scaled seconds, completed)
        self.named = {}        # metric name -> samples
        self.passes = 0
        self.pass_ends = []    # len(items) at the end of each pass

    def record(self, key, seconds, ok=True):
        self.items.append((key, seconds, self.scaler.scale(seconds), ok))

    def start_pass(self):
        self.scaler.before()
        if self.tracer is not None:
            self.tracer.inputs.clear()
            self.tracer.input_calls = 0

    def end_pass(self):
        """Count the pass; while tracing, keep its share of distinct
        positivity inputs."""
        self.passes += 1
        self.pass_ends.append(len(self.items))
        if self.tracer is not None and self.tracer.input_calls:
            self.add("polynomial.positive_on_open.distinct_frac",
                     len(self.tracer.inputs) / self.tracer.input_calls)

    def next_op(self):
        if self.tracer is not None:
            self.tracer.op += 1

    def add(self, name, value):
        self.named.setdefault(name, []).append(value)


def child_env(root):
    """Environment for a child interpreter that imports the package from source."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def verify_text(sf, text):
    data = sf.loads_data(text)
    report = sf.verification_report(data)
    return data, report, sf.match_fp_class(data)


def outcome_line(report, fp_class):
    return "%s|%s|%s" % ("PASS" if report.ok else "FAIL", fp_class,
                         sha256("\n".join(report.lines())))


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    i = len(ordered) - 11
    return 100.0 * (i + 1) / len(ordered), ordered[i]


def tail_note(t, unit):
    return "p%.2f %.6g %s" % (t[0], t[1], unit) if t else "no tail, fewer than 11 samples"


def e2e(items, field=2):
    """items_per_s and item_p50_ms of recorded items, at the reference
    speed (field 2) or in wall time (field 1)."""
    done = [item[field] for item in items if item[3]]
    busy = sum(item[field] for item in items)
    return {"items_per_s": len(done) / busy, "item_p50_ms": 1e3 * median(done)}


def doc_rows(prefix, items):
    """docs_per_s and doc_p50_ms of a verify workload."""
    scaled, wall = e2e(items), e2e(items, field=1)
    done = [1e3 * item[2] for item in items if item[3]]
    return [("%s_per_s" % prefix, "1/s", scaled["items_per_s"], len(items),
             "wall %.6g 1/s" % wall["items_per_s"]),
            ("%s.doc_p50_ms" % prefix.split(".")[0], "ms", scaled["item_p50_ms"], len(done),
             "wall %.6g ms; %s" % (wall["item_p50_ms"], tail_note(tail(done), "ms")))]


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------

def enumeration_digest(results):
    doc = [{
        "shape": r.shape, "b4_max": r.b4_max,
        "families": [[f.key, f.shape, f.summary, f.iota, f.b4_base, f.n2_min,
                      f.n2_max, f.fixed, f.free] for f in r.families],
        "rejections": [[x.candidate, x.rule_id, x.rule, x.detail] for x in r.rejections],
    } for r in results]
    return sha256(json.dumps(doc, sort_keys=True))


def parameter_choices(result):
    """Choices in the rejection tallies plus the surviving family members."""
    tallied = sum(int(m.group(1)) for m in
                  (_REJECTED.search(x.detail) for x in result.rejections) if m)
    members = sum(f.n2_max - f.n2_min + 1 for f in result.families)
    return tallied + members


# ----------------------------------------------------------------------
# verify-families and verify-edits
# ----------------------------------------------------------------------

def families_digest(out):
    """Report lines, fixed point class and ok flag of every member, by id."""
    lines = sorted("%s|%s" % (doc_id, outcome_line(report, fp_class))
                   for doc_id, _, report, fp_class in out)
    return {"documents": len(lines), "digest": sha256("\n".join(lines))}


class VerifyFamilies:
    name = "verify-families"

    def __init__(self, sf, seed, golden):
        self.sf = sf
        self.golden = golden["verify-families"]
        self.docs = corpus.families_corpus(sf, seed)
        self.last = None

    def run_pass(self, rec):
        out = []
        for doc_id, text in self.docs:
            rec.next_op()
            t = time.perf_counter()
            data, report, fp_class = verify_text(self.sf, text)
            rec.record(doc_id, time.perf_counter() - t)
            out.append((doc_id, data, report, fp_class))
        self.last = out
        return out

    def rows(self, items):
        rows = doc_rows("verify_families.docs", items)
        ms = [1e3 * item[2] for item in items]
        t = tail(ms)
        rows.append(("verify_families.doc_tail_ms", "ms", t[1] if t else max(ms), len(ms),
                     "p%.2f" % t[0] if t else "max, fewer than 11 samples"))
        return rows

    def check(self, out):
        got = families_digest(out)
        if got != self.golden:
            raise Mismatch("families corpus: %s, pinned %s" % (got, self.golden))

    def export(self):
        for _, data, _, _ in self.last:
            self.sf.dumps_data(data)

    def gate(self):
        """Closed-form contributions equal the series oracle on every component."""
        loc = sys.modules["semifree8.localization"]
        for doc_id, data, _, _ in self.last:
            for comp in data:
                closed = loc.contribution(comp.weights, comp.normal)
                oracle = loc.contribution_series_oracle(comp.weights, comp.normal)
                if closed != oracle:
                    raise Mismatch("%s: contribution %s but series oracle %s for %r"
                                   % (doc_id, closed, oracle, comp))
        return []


class VerifyEdits:
    name = "verify-edits"

    def __init__(self, sf, seed, golden):
        self.sf = sf
        self.docs = corpus.edits_corpus(sf, seed, EDITS_PER_SEED)
        self.first = None
        self.last = None

    def run_pass(self, rec):
        out = []
        for doc_id, text in self.docs:
            rec.next_op()
            t = time.perf_counter()
            try:
                data, report, fp_class = verify_text(self.sf, text)
            except Exception as exc:  # the verifier's crash is this document's outcome
                rec.record(doc_id, time.perf_counter() - t, ok=False)
                out.append((doc_id, None, None, type(exc).__name__))
                continue
            rec.record(doc_id, time.perf_counter() - t)
            out.append((doc_id, data, report, fp_class))
        self.last = out
        return out

    def raised(self):
        """Exception type name -> documents of the corpus that raise it."""
        counts = {}
        for _, _, report, name in self.last:
            if report is None:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def rows(self, items):
        raised = self.raised()
        n = sum(raised.values())
        return doc_rows("verify_edits.reports", items) + [
            ("verify_edits.failed_frac", "1", n / len(self.docs), len(self.docs),
             "%d of %d documents raise %s" % (n, len(self.docs),
                                              json.dumps(raised, sort_keys=True)))]

    def check(self, out):
        """Each document's outcome is the same on every pass."""
        got = [(doc_id, outcome_line(report, fp) if report is not None else "raised " + fp)
               for doc_id, _, report, fp in out]
        if self.first is None:
            self.first = got
        elif got != self.first:
            bad = next(a for a, b in zip(got, self.first) if a != b)
            raise Mismatch("verify-edits outcome changed between passes: %s" % (bad,))

    def export(self):
        for _, data, _, _ in self.last:
            if data is not None:
                self.sf.dumps_data(data)

    def gate(self):
        """On structurally valid data, where the oracle evaluates, a
        completed report's abbv-vanishing verdict says whether the oracle
        contributions sum to zero. (On data whose weights do not match its
        normal kinds the closed forms are not defined, and today they can
        disagree with the oracle.)"""
        loc = sys.modules["semifree8.localization"]
        cache = {}
        compared = 0
        for doc_id, data, report, _ in self.last:
            if report is None:
                continue
            verdicts = {it.id: it.verdict for it in report}
            if any(verdicts.get(c) != "PASS" for c in STRUCTURAL):
                continue
            verdict = verdicts.get("abbv-vanishing")
            if verdict not in ("PASS", "FAIL"):
                continue
            total = 0
            try:
                for comp in data:
                    key = (comp.weights, comp.normal)
                    if key not in cache:
                        cache[key] = loc.contribution_series_oracle(comp.weights, comp.normal)
                    total += cache[key]
            except (ValueError, TypeError, ArithmeticError, AttributeError, IndexError):
                continue  # the oracle does not evaluate on this data
            if (total == 0) != (verdict == "PASS"):
                raise Mismatch("%s: abbv-vanishing %s but the oracle sum is %s"
                               % (doc_id, verdict, total))
            compared += 1
        if compared < ABBV_COMPARED_FLOOR:
            raise Mismatch("the abbv-vs-oracle gate compared only %d of %d documents "
                           "(floor %d)" % (compared, len(self.last), ABBV_COMPARED_FLOOR))
        return [("gate.abbv_compared", "count", compared, len(self.last),
                 "abbv verdicts checked against the oracle sum (floor %d)"
                 % ABBV_COMPARED_FLOOR)]


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

def cli_record(code, stdout):
    return {"exit": code, "stdout_sha256": sha256(stdout)}


CLI_COMMANDS = ("verify", "enumerate", "classify-fano", "catalog")


class Cli:
    name = "cli"

    def __init__(self, sf, seed, golden, root, out_dir, inproc=False):
        self.sf = sf
        self.golden = golden["cli"]
        self.golden_enumerate = golden["enumerate"]
        self.enumerated = {}
        self.root = root
        self.inproc = inproc
        self.files = os.path.join(out_dir, "catalog")
        os.makedirs(self.files, exist_ok=True)
        self.export()
        rel = os.path.relpath(self.files, root).replace(os.sep, "/")
        self.argvs = [["verify", "%s/%s.json" % (rel, name)] for name in sf.catalog()]
        self.argvs += [["enumerate"], ["classify-fano"], ["catalog"]]
        random.Random(seed).shuffle(self.argvs)
        self.env = child_env(root)

    def export(self):
        for name, data in self.sf.catalog().items():
            with open(os.path.join(self.files, name + ".json"), "w", encoding="utf-8") as fh:
                fh.write(self.sf.dumps_data(data))

    def run_pass(self, rec):
        out = []
        for argv in self.argvs:
            cmd = argv[0]
            t = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "semifree8.cli"] + argv,
                                  cwd=self.root, env=self.env, capture_output=True)
            rec.record(" ".join(argv), time.perf_counter() - t)
            out.append((argv, proc.returncode, proc.stdout, proc.stderr))
            if self.inproc:
                rec.next_op()
                buf = io.StringIO()
                t = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = self.sf.cli.main(argv)
                rec.add("cli.%s.inproc_s" % cmd, time.perf_counter() - t)
                out.append((argv, code, buf.getvalue().encode(), b""))
        return out

    @staticmethod
    def command_seconds(items, field=2):
        """Command -> (median seconds of its runs, runs)."""
        out = {}
        for cmd in CLI_COMMANDS:
            runs = [item[field] for item in items if item[0].split()[0] == cmd]
            out[cmd] = (median(runs), len(runs))
        return out

    def rows(self, items):
        wall = self.command_seconds(items, field=1)
        return [("cli.%s_s" % cmd.replace("-", "_"), "s", seconds, n,
                 "wall %.6g s" % wall[cmd][0])
                for cmd, (seconds, n) in self.command_seconds(items).items()]

    def check(self, out):
        for argv, code, stdout, stderr in out:
            key = " ".join(argv)
            want = self.golden.get(key)
            got = cli_record(code, stdout)
            if got != want or stderr:
                raise Mismatch("cli %s: exit %s, stdout sha256 %s, stderr %r; pinned %s"
                               % (key, code, got["stdout_sha256"], stderr[-200:], want))

    def gate(self):
        """The enumeration at each cutoff equals its pinned digest. Its
        wall time, one sample outside the window, goes in the table."""
        rows = []
        self.enumerated = {}
        for b4_max in B4_CUTOFFS:
            t = time.perf_counter()
            results = [self.sf.enumerate_case(s, b4_max) for s in self.sf.ADMISSIBLE_SHAPES]
            seconds = time.perf_counter() - t
            got = enumeration_digest(results)
            if got != self.golden_enumerate["b%d" % b4_max]:
                raise Mismatch("enumeration at b4_max %d: digest %s, pinned %s"
                               % (b4_max, got, self.golden_enumerate["b%d" % b4_max]))
            self.enumerated.update(((shape, b4_max), r) for shape, r
                                   in zip(self.sf.ADMISSIBLE_SHAPES, results))
            rows.append(("enumerate.b%d_s" % b4_max, "s", seconds, 1,
                         "five enumerate_case calls, once, digest checked"))
        return rows


def make(name, sf, seed, golden, root, out_dir, inproc=False):
    if name == "verify-families":
        return VerifyFamilies(sf, seed, golden)
    if name == "verify-edits":
        return VerifyEdits(sf, seed, golden)
    return Cli(sf, seed, golden, root, out_dir, inproc)
