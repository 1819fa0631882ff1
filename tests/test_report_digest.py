"""One digest over the reports of mostly failing data.

The CLI bytes and the families digest pin outputs that mostly PASS. This
digest pins what the verifier says about data that fails, where the
structural checks report their details: the report lines, the overall
verdict and the fixed point class of

* every catalog entry,
* every single-field edit of each entry (a weight set to another value in
  -2..2, the type or the normal kind swapped, a Chern integer moved by one
  or a summand weight negated), and
* 3,000 random documents from ``random.Random(0)`` over every type and
  normal kind, weights in -2..2 and Chern integers in -3..3,

each as given and with the action reversed. The pinned value was computed
before the structural checks were rewritten to walk the components once.

Reversing the circle gives the same manifold, so over the same corpus the
data and its reversal must get the same verdict and the same WARN ids,
and well-typed data the same fixed point class.
"""

import copy
import hashlib
import json
import random

from semifree8.classify import catalog, match_fp_class, verification_report
from semifree8.dataio import dumps_data, loads_data
from semifree8.model import reverse_action

TYPES = ("point", "cp1", "cp2", "p1xp1", "cp3")
KINDS = ("point", "surface", "fourdim_extremal", "fourdim_split", "sixdim")
N_RANDOM = 3000
DIGEST = "f5c90a74b6734879be14461dbbf02705252ba34fda802b4e56b055b3de2273ef"


def fresh_normal(rng, kind):
    chern = lambda: rng.randint(-3, 3)  # noqa: E731
    if kind == "point":
        return {"kind": kind}
    if kind == "surface":
        return {"kind": kind, "summands": [[chern(), rng.choice((-1, 1))] for _ in range(3)]}
    if kind == "fourdim_extremal":
        return {"kind": kind, "c1": chern(), "c2": chern()}
    if kind == "fourdim_split":
        n = rng.choice((1, 2))
        return {"kind": kind, "minus": [chern() for _ in range(n)],
                "plus": [chern() for _ in range(n)]}
    return {"kind": kind, "c1": chern()}


def random_documents(seed=0, count=N_RANDOM):
    rng = random.Random(seed)
    for _ in range(count):
        yield {"dimension": 8, "b2": 1, "components": [
            {"type": rng.choice(TYPES), "weights": [rng.randint(-2, 2) for _ in range(4)],
             "normal": fresh_normal(rng, rng.choice(KINDS))}
            for _ in range(rng.randint(1, 5))]}


def int_leaves(normal):
    """(container, key) of every integer leaf of a normal document."""
    for key, value in normal.items():
        if isinstance(value, int):
            yield normal, key
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, list):
                    yield from ((item, j) for j in range(len(item)))
                else:
                    yield value, i


def single_edits(doc):
    """Every document that differs from doc in one field."""
    rng = random.Random(1)
    for i, comp in enumerate(doc["components"]):
        def edited(change):
            new = copy.deepcopy(doc)
            change(new["components"][i])
            return new
        for j, w in enumerate(comp["weights"]):
            for v in range(-2, 3):
                if v != w:
                    yield edited(lambda c: c["weights"].__setitem__(j, v))
        for t in TYPES:
            if t != comp["type"]:
                yield edited(lambda c: c.__setitem__("type", t))
        for kind in KINDS:
            if kind != comp["normal"]["kind"]:
                normal = fresh_normal(rng, kind)
                yield edited(lambda c: c.__setitem__("normal", normal))
        for n in range(len(list(int_leaves(comp["normal"])))):
            def moved(c, n=n):
                node, key = list(int_leaves(c["normal"]))[n]
                surface_weight = c["normal"]["kind"] == "surface" and key == 1
                node[key] = -node[key] if surface_weight else node[key] + 1
            yield edited(moved)


def corpus():
    docs = []
    for data in catalog().values():
        base = json.loads(dumps_data(data))
        docs.append(base)
        docs.extend(single_edits(base))
    docs.extend(random_documents())
    return docs


def outcome(data):
    rep = verification_report(data)
    return "%s %s\n%s\n" % (rep.ok, match_fp_class(data), "\n".join(rep.lines()))


def report_digest(docs):
    h = hashlib.sha256()
    for doc in docs:
        data = loads_data(json.dumps(doc))
        h.update(outcome(data).encode())
        h.update(outcome(reverse_action(data)).encode())
    return h.hexdigest()


def test_corpus_covers_failing_structure():
    docs = corpus()
    assert len(docs) > N_RANDOM + 6
    reports = [verification_report(loads_data(json.dumps(d))) for d in docs[::7]]
    failed = {it.id for rep in reports for it in rep.failures}
    assert {"semi-free", "weight-zeros", "normal-variant", "unique-minimum",
            "unique-maximum", "level-order", "kirwan-b2", "poincare", "b4-positive",
            "monotone-positive"} <= failed


def test_report_digest():
    assert report_digest(corpus()) == DIGEST


def test_reversal_keeps_verdict_warnings_and_class():
    # the class is compared on well-typed data only: on some ill-typed x8
    # edits it reads "d" one way round and "unclassified" the other
    warned = 0
    for doc in corpus():
        data = loads_data(json.dumps(doc))
        back = reverse_action(data)
        rep, rep_back = verification_report(data), verification_report(back)
        assert rep.ok == rep_back.ok, doc
        warns = sorted(it.id for it in rep if it.verdict == "WARN")
        assert warns == sorted(it.id for it in rep_back if it.verdict == "WARN"), doc
        warned += bool(warns)
        if data.well_typed:
            assert match_fp_class(data) == match_fp_class(back), doc
    assert warned
