"""Seeded input corpora for the verify workloads.

Both corpora are lists of (doc_id, json_text) pairs. The program only ever
sees the JSON text, through ``loads_data``; the ids exist so that results
can be keyed and compared across passes and against pinned digests.

* ``families_corpus(sf, seed)``: every member of the seven enumerated
  families, over every admissible n2 and a fixed box of free splits (the
  (4,4) c2 splits, the (2,4) degree triples and the (0,4) tails). The
  members are fixed; the seed only shuffles their order.
* ``edits_corpus(sf, seed, size)``: the six catalog entries with 1-3
  seeded field edits each, the "export, edit, re-verify" loop. Every edit
  keeps the document loadable in structure; whether the edited data is
  consistent is for verification to decide. The entries and the number of
  edits take turns, so every seed has the same share of each (verifying
  one entry costs up to four times another); the edits themselves and the
  order of the documents come from the seed.
"""

import json
import random

# the recorded box of free splits; widening it changes the corpus and its
# pinned digest in golden.json
NEG_SPLIT_MARGIN = 2          # (4,4)/negative: first c2 part in [-2, b4 + 2]
POS_SPLIT_RANGE = (-5, 7)     # (4,4)/positive: first c2 part, sum 2
TAIL_RANGE = (-5, 2)          # (0,4)/with-surface: a2 in range, a3 = 4 - a2
TRIPLE_FLOOR = -4             # (2,4): sorted degree triples summing to 3


def _free_choices(family):
    """(label, kwargs) for every free choice of a family member, per n2."""
    key = family.key
    if key == "4,4/negative":
        def choices(n2):
            b4 = 2 + n2
            return [("split=%d,%d" % (a, b4 - a), {"split": (a, b4 - a)})
                    for a in range(-NEG_SPLIT_MARGIN, b4 + NEG_SPLIT_MARGIN + 1)]
        return choices
    if key == "4,4/positive":
        lo, hi = POS_SPLIT_RANGE
        return lambda n2: [("split=%d,%d" % (a, 2 - a), {"split": (a, 2 - a)})
                           for a in range(lo, hi + 1)]
    if key == "0,4/with-surface":
        lo, hi = TAIL_RANGE
        return lambda n2: [("tail=%d,%d" % (a, 4 - a), {"tail": (a, 4 - a)})
                           for a in range(lo, hi + 1)]
    if key == "2,4":
        triples = [(d1, d2, 3 - d1 - d2)
                   for d1 in range(TRIPLE_FLOOR, 2)
                   for d2 in range(d1, 4 - TRIPLE_FLOOR)
                   if d2 <= 3 - d1 - d2]
        return lambda n2: [("degrees=%d,%d,%d" % t, {"degrees": t}) for t in triples]
    return lambda n2: [("", {})]


def families_corpus(sf, seed):
    """Every family member in the recorded box, in seeded order."""
    docs = []
    for result in sf.enumerate_all().values():
        for family in result.families:
            choices = _free_choices(family)
            for n2 in range(family.n2_min, family.n2_max + 1):
                for label, kwargs in choices(n2):
                    data = family.instantiate(n2, **kwargs)
                    doc_id = "%s|n2=%d|%s" % (family.key, n2, label)
                    docs.append((doc_id, sf.dumps_data(data)))
    random.Random(seed).shuffle(docs)
    return docs


# ----------------------------------------------------------------------
# field edits of catalog entries
# ----------------------------------------------------------------------

TYPES = ("point", "cp1", "cp2", "p1xp1", "cp3")
KINDS = ("point", "surface", "fourdim_extremal", "fourdim_split", "sixdim")


def _small(rng):
    return rng.randint(-3, 8)


def _fresh_normal(rng, kind):
    if kind == "point":
        return {"kind": "point"}
    if kind == "surface":
        return {"kind": "surface",
                "summands": [[_small(rng), rng.choice((-1, 1))] for _ in range(3)]}
    if kind == "fourdim_extremal":
        return {"kind": kind, "c1": _small(rng), "c2": _small(rng)}
    if kind == "fourdim_split":
        n = rng.choice((1, 2))
        return {"kind": kind, "minus": [_small(rng) for _ in range(n)],
                "plus": [_small(rng) for _ in range(n)]}
    return {"kind": "sixdim", "c1": _small(rng)}


def _int_fields(normal):
    """Paths (as key lists) to the integer leaves of a normal document."""
    kind = normal["kind"]
    if kind in ("fourdim_extremal", "sixdim"):
        return [[k] for k in ("c1", "c2") if k in normal]
    if kind == "surface":
        return [["summands", i, j] for i in range(3) for j in (0, 1)]
    if kind == "fourdim_split":
        return [[side, i] for side in ("minus", "plus")
                for i in range(len(normal[side]))]
    return []


def _edit(rng, doc):
    """One field edit, in place; returns a short label."""
    comps = doc["components"]
    i = rng.randrange(len(comps))
    comp = comps[i]
    what = rng.choice(("weight", "normal-int", "normal-int", "normal-int",
                       "type", "kind", "duplicate", "remove"))
    if what == "normal-int" and not _int_fields(comp["normal"]):
        what = "weight"
    if what == "remove" and len(comps) <= 2:
        what = "duplicate"
    if what == "weight":
        j = rng.randrange(4)
        comp["weights"][j] = rng.choice([w for w in (-1, 0, 1) if w != comp["weights"][j]])
        return "c%d.weights[%d]" % (i, j)
    if what == "normal-int":
        path = rng.choice(_int_fields(comp["normal"]))
        node = comp["normal"]
        for key in path[:-1]:
            node = node[key]
        if path[-1] == 1 and path[0] == "summands":
            node[1] = -node[1]
        else:
            node[path[-1]] += rng.choice((-2, -1, 1, 2))
        return "c%d.normal.%s" % (i, ".".join(str(p) for p in path))
    if what == "type":
        comp["type"] = rng.choice([t for t in TYPES if t != comp["type"]])
        return "c%d.type" % i
    if what == "kind":
        kind = rng.choice([k for k in KINDS if k != comp["normal"]["kind"]])
        comp["normal"] = _fresh_normal(rng, kind)
        return "c%d.normal.kind" % i
    if what == "duplicate":
        comps.insert(i, json.loads(json.dumps(comp)))
        return "c%d.duplicate" % i
    del comps[i]
    return "c%d.remove" % i


def edits_corpus(sf, seed, size):
    """`size` documents, each a catalog entry with 1-3 seeded field edits."""
    rng = random.Random(seed)
    bases = [(name, json.loads(sf.dumps_data(data)))
             for name, data in sf.catalog().items()]
    docs = []
    for n in range(size):
        name, base = bases[n % len(bases)]
        doc = json.loads(json.dumps(base))
        labels = [_edit(rng, doc) for _ in range(1 + n // len(bases) % 3)]
        docs.append(("%d|%s|%s" % (n, name, "+".join(labels)),
                     json.dumps(doc, indent=2, sort_keys=True) + "\n"))
    rng.shuffle(docs)
    return docs


def corpus_stats(sf, docs):
    """Documents, PASS/FAIL/raised mix and exception types of one corpus."""
    mix = {"PASS": 0, "FAIL": 0, "raised": 0}
    raised = {}
    for _, text in docs:
        try:
            ok = sf.verification_report(sf.loads_data(text)).ok
        except Exception as exc:  # crashes are what is being counted
            mix["raised"] += 1
            raised[type(exc).__name__] = raised.get(type(exc).__name__, 0) + 1
            continue
        mix["PASS" if ok else "FAIL"] += 1
    return {"documents": len(docs), **mix, "raised_by_type": raised}


if __name__ == "__main__":
    # python3 bench/corpus.py SEED...: the mix of each seed's corpora
    import os
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import semifree8
    from workloads import EDITS_PER_SEED
    print(json.dumps({
        "verify-families": corpus_stats(semifree8, families_corpus(semifree8, 0)),
        "verify-edits": {seed: corpus_stats(semifree8, edits_corpus(semifree8, int(seed), EDITS_PER_SEED))
                         for seed in sys.argv[1:]},
    }, indent=2))
