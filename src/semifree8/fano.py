"""The volume filter on the Fano table: which families of Fano 4-folds
with index at least 2 and b2 = 1 can carry a semi-free circle action.

``classify_fano`` reads the family table of :mod:`semifree8.classify`
(``default_fano_table`` unless a table is given), checks every record
against the index range (the indices the enumerated families realize), the
automorphism group, the degree-genus relation and, for index 2, the two
moment-interval volumes by halves, and names the enumerated shapes that
realize each index of at least 3. The indices and b4 of the families in
``_FAMILIES`` are read off their members at each call, not stated here.

Only ``semifree8 classify-fano`` compiles this module. Its public names
(``classify_fano``, ``FanoClassification``) still import from
:mod:`semifree8.classify` and the package, which load it on first use.
"""

from .classify import (
    _FAMILIES,
    REQUIRED_FAMILY_NAMES,
    ClassifyError,
    default_fano_table,
    fano_table_hash,
)
from .dh import b4_cap, half_volume_cp2, half_volume_isolated_pair
from .model import CheckItem
from .record import Record

# the enumerated families of each realized index >= 3, as classify-fano
# prints them; all of them have one b4
_INDEX_WITNESS = {
    3: "the (0,4) shape with an interior Morse-index-2 sphere",
    4: "the (0,0) shape and the positive (4,4) branch",
    5: "the (0,6) and (2,4) shapes",
}


class FanoClassification(Record):
    # traces: ((name, (CheckItem, ...)), ...)
    _fields = ("survivors", "traces", "table_hash")


def classify_fano(records=None):
    """Filter the Fano table down to the families that can carry an
    effective semi-free circle action with isolated-or-small fixed sets.

    Index-2 families must additionally match one of the two computable
    moment-interval volumes; a positive-dimensional symmetry group is
    required throughout. A table must list every required family, each
    name once.
    """
    records = default_fano_table() if records is None else tuple(records)
    names = set()
    for r in records:
        if r.name in names:
            raise ClassifyError("duplicate family record %r in the table" % (r.name,))
        names.add(r.name)
    missing = [n for n in REQUIRED_FAMILY_NAMES if n not in names]
    if missing:
        raise ClassifyError("incomplete family table, missing: %s" % ", ".join(missing))
    # the Fano index and b4 of each enumerated family, read off its member
    facts = [(f.iota, f.b4_base) for f in _FAMILIES.values()]
    realized = {iota for iota, _ in facts}
    survivors = []
    traces = []
    for rec in sorted(records, key=lambda r: (-r.fano_index, r.name)):
        items = []
        alive = True
        if rec.fano_index == 2 and rec.genus:
            expect = 32 * (rec.genus - 1)
            if expect != rec.c1_fourth:
                items.append(CheckItem(
                    "degree-genus", "WARN",
                    "genus %d predicts c1^4 = %d, record says %d"
                    % (rec.genus, expect, rec.c1_fourth)))
            else:
                items.append(CheckItem(
                    "degree-genus", "PASS",
                    "32*(%d - 1) = %d" % (rec.genus, rec.c1_fourth)))
        if rec.fano_index not in realized:
            items.append(CheckItem("index-range", "FAIL", "index %d is outside %d..%d"
                                   % (rec.fano_index, min(realized), max(realized))))
            alive = False
        if alive and rec.finite_automorphisms:
            items.append(CheckItem(
                "finite-automorphisms", "FAIL",
                "the family has no positive-dimensional automorphisms"))
            alive = False
        if alive and rec.fano_index == 2:
            # the isolated-minimum pattern (0,4) has plane coefficient b4;
            # the two-plane pattern (4,4) splits b4 between its planes, and
            # the half volume is affine in the coefficient, so any split
            # gives the same total
            vol_a = half_volume_isolated_pair() + half_volume_cp2(rec.b4)
            vol_b = half_volume_cp2(rec.b4) + half_volume_cp2(0)
            cap_a = b4_cap((0, 4))
            hit_a = rec.c1_fourth == vol_a and rec.b4 <= cap_a
            hit_b = rec.c1_fourth == vol_b and rec.b4 <= b4_cap((4, 4))
            note = ""
            if rec.b4 > cap_a:
                note = " (isolated-minimum pattern needs b4 <= %d, here %d)" % (cap_a, rec.b4)
            if hit_a or hit_b:
                items.append(CheckItem(
                    "volume-match", "PASS",
                    "volume %d matches the %s pattern%s"
                    % (rec.c1_fourth,
                       "two-plane" if hit_b else "isolated-minimum", note)))
            else:
                items.append(CheckItem(
                    "volume-match", "FAIL",
                    "candidate volumes %d and %d, target %d%s"
                    % (vol_a, vol_b, rec.c1_fourth, note)))
                alive = False
            items.append(CheckItem(
                "index-parity-surface", "INFO",
                "the odd-index surface pattern is excluded for index 2"))
        if alive and rec.fano_index >= 3:
            witness = _INDEX_WITNESS[rec.fano_index]
            (b4_there,) = {b4 for iota, b4 in facts if iota == rec.fano_index}
            items.append(CheckItem(
                "index-range", "PASS",
                "index %d realized by %s" % (rec.fano_index, witness)))
            if rec.b4 != b4_there:
                items.append(CheckItem(
                    "index-range", "WARN",
                    "that pattern pins b4 = %d, record has b4 = %d"
                    % (b4_there, rec.b4)))
        if alive:
            survivors.append(rec.name)
        traces.append((rec.name, tuple(items)))
    return FanoClassification(tuple(survivors), tuple(traces),
                              fano_table_hash(records))
