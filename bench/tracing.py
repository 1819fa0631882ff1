"""Spans around the package's public functions, for the traced run only.

The package itself is never edited. ``Tracer.install`` replaces each
traced function in every ``semifree8`` module namespace that holds it, so
callers that look the name up at call time (``classify.verification_report``
calling ``validate``, ``dh.positivity_check`` calling ``positive_on_open``,
...) go through a wrapper that records a span. ``Tracer.uninstall`` puts
the originals back.

A span is (id, parent id, name, start, end, op id). Spans are kept in
memory and written out once, at the end of the run. A span's self time is
its duration minus the durations of its direct children (one thread, so
children never overlap).
"""

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, layer name); "Class.method" patches the class attribute
TRACED = (
    ("semifree8.polynomial", "positive_on_open", "polynomial.positive_on_open"),
    ("semifree8.polynomial", "count_roots_open", "polynomial.count_roots_open"),
    ("semifree8.polynomial", "isolate_root", "polynomial.isolate_root"),
    ("semifree8.localization", "abbv_sum", "localization.abbv_sum"),
    ("semifree8.localization", "contribution_series_oracle",
     "localization.contribution_series_oracle"),
    ("semifree8.localization", "LaurentSeries.inverse", "localization.LaurentSeries.inverse"),
    ("semifree8.model", "validate", "model.validate"),
    ("semifree8.model", "betti_vector", "model.betti_vector"),
    ("semifree8.model", "signature_check", "model.signature_check"),
    ("semifree8.model", "fp_equivalent", "model.fp_equivalent"),
    ("semifree8.dh", "dh_profile", "dh.dh_profile"),
    ("semifree8.dh", "positivity_check", "dh.positivity_check"),
    ("semifree8.dh", "total_volume", "dh.total_volume"),
    ("semifree8.classify", "verification_report", "classify.verification_report"),
    ("semifree8.classify", "sphere_constraints", "classify.sphere_constraints"),
    ("semifree8.classify", "sphere_index_rules", "classify.sphere_index_rules"),
    ("semifree8.classify", "match_fp_class", "classify.match_fp_class"),
    ("semifree8.classify", "enumerate_case", "classify.enumerate_case"),
    ("semifree8.dataio", "loads_data", "dataio.loads_data"),
    ("semifree8.dataio", "dumps_data", "dataio.dumps_data"),
)


def shape_tag(shape):
    return "%d-%d" % tuple(sorted(int(v) for v in shape))


def _enumerate_case_name(name, args, kwargs):
    shape = args[0] if args else kwargs["shape"]
    b4_max = args[1] if len(args) > 1 else kwargs.get("b4_max", 14)
    return "%s.%s.b%d" % (name, shape_tag(shape), b4_max)


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end, op)
        self.stack = []
        self.next_id = 0
        self.op = 0
        self.inputs = set()      # distinct positive_on_open inputs this pass
        self.input_calls = 0
        self._undo = []

    # -- recording ----------------------------------------------------

    def _open(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end, self.op))

    def _wrap(self, func, name):
        tracer = self
        namer = _enumerate_case_name if name == "classify.enumerate_case" else None
        count_inputs = name == "polynomial.positive_on_open"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = namer(name, args, kwargs) if namer else name
            if count_inputs:
                tracer.inputs.add(tuple(args[:3]))
                tracer.input_calls += 1
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(sid, parent, label, start)
        return traced

    # -- patching -----------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "semifree8" or n.startswith("semifree8.")]
        for modname, attr, name in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo = []

    # -- results ------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\top\n")
            for sid, parent, name, start, end, op in self.spans:
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\n" % (sid, parent, name, start, end, op))

    def totals(self, spans):
        """name -> [calls, busy_s, self_s] over `spans`.

        busy_s counts a span only when no ancestor carries the same name,
        so recursion is not counted twice.
        """
        by_id = {s[0]: s for s in spans}
        child_time = defaultdict(float)
        for sid, parent, _, start, end, _ in spans:
            if parent in by_id:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, parent, name, start, end, _ in spans:
            row = out[name]
            row[0] += 1
            row[2] += (end - start) - child_time[sid]
            anc = parent
            while anc in by_id and by_id[anc][2] != name:
                anc = by_id[anc][1]
            if anc not in by_id:
                row[1] += end - start
        return out

    def nested(self, outer_prefix, inner_name):
        """For each outer span whose name starts with `outer_prefix`:
        (name, duration, busy time and call count of `inner_name` below it)."""
        by_id = {s[0]: s for s in self.spans}
        inner = defaultdict(lambda: [0.0, 0])
        for sid, parent, name, start, end, _ in self.spans:
            if name != inner_name:
                continue
            anc, hit = parent, None
            while anc in by_id:
                if by_id[anc][2] == inner_name:
                    break
                if by_id[anc][2].startswith(outer_prefix):
                    hit = anc
                    break
                anc = by_id[anc][1]
            if hit is not None:
                inner[hit][0] += end - start
                inner[hit][1] += 1
        return [(name, end - start, inner[sid][0], inner[sid][1])
                for sid, _, name, start, end, _ in self.spans
                if name.startswith(outer_prefix)]

