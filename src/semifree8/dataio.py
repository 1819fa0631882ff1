"""The JSON formats of the package: fixed point data and the Fano table.

A data document (``load_data``, ``dumps_data``) is deliberately small:

    {
      "dimension": 8,
      "b2": 1,
      "components": [
        {"type": "point", "weights": [1, 1, 1, 1],
         "normal": {"kind": "point"}},
        {"type": "cp2", "weights": [0, 0, -1, -1],
         "normal": {"kind": "fourdim_extremal", "c1": -1, "c2": 4}}
      ]
    }

Normal kinds and their fields:

    point             -- no fields
    surface           -- "summands": three [degree, weight] pairs
    fourdim_extremal  -- "c1", "c2" integers
    fourdim_split     -- "minus", "plus": lists of line bundle degrees
    sixdim            -- "c1" integer

A family table (``load_table``, for ``classify-fano --table``) is an array
of records, one per deformation family:

    [{"name": "X8m", "fano_index": 2, "b4": 8, "c1_fourth": 224,
      "genus": 8, "finite_automorphisms": false}, ...]

"genus" (default 0: not a genus-indexed family) and
"finite_automorphisms" (default false) may be left out.

Every record is read and written under its ``_fields`` names, a normal's
led by its ``kind``; a tuple is a JSON list, a component type its name.

The loader checks document structure only. Mathematical consistency
(semi-freeness, matching weights and normal kinds, Betti budgets) is the
job of the verification rules, so a structurally valid file describing an
impossible action loads fine and then fails verification.

A ``DataError``'s path names the failing node: ``components[1].normal.c1``,
or in a table ``table.json[3].b4``. Each reader raises with the path
relative to the node it reads and each parent prefixes its step on the way
out (``_prefix``). The loops over nodes (``_read_each``, a normal's fields)
and a component's read of its normal catch the error themselves, so a
loaded node costs one call, its reader's; the other reads go through
``_at``. A valid document formats no path. JSON decoding gives exact
types, so each value takes one exact-type test: a bool or a float is never
an integer.

Each distinct component is built once per process. A component node runs
all of its readers and is then built by ``_component``, one bounded
``functools.lru_cache`` keyed on the type name, the weights and the
normal's kind and field values as read (lists as tuples). Only values that
passed their exact-type test make a key, so ``true``, ``1.0`` or ``"1"``
never meet the key of ``1``: a hit returns the component a fresh build
would equal, and components are immutable, so documents share them. A
normal the constructor refuses raises on every load, since an exception is
never cached. The bound ``_COMPONENTS`` sits well above the benchmark's
corpora: the families corpus (seed 1) holds 107 distinct components among
1,685, the edits corpus of seed 1 holds 345 among 2,264, and the edits
seeds 1-8 hold 1,398 (393 and 1,597 keys, since weights and summands are
keyed in the order given).
"""

from __future__ import annotations

import json
from functools import lru_cache

from .classify import FanoFamilyRecord
from .localization import _Normal
from .model import ComponentType, FixedComponent, FixedPointData
from .record import Record


class DataError(ValueError):
    """A malformed document; `path` points at the offending node."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path

    def __str__(self):
        base = super().__str__()
        return "%s (at %s)" % (base, self.path) if self.path else base


# key, the one value supported, and what any other value is told
_HEADER = (("dimension", 8, "only dimension 8 is supported"),
           ("b2", 1, "only b2 = 1 is supported"))
_TYPES = {t.value: t for t in ComponentType}


def _prefix(exc, step):
    """Prefix a DataError's path with the step to the node its reader read:
    a key, or an int for a list index."""
    step = "[%d]" % step if type(step) is int else step
    exc.path = step + ("." + exc.path if exc.path[:1] not in ("", "[") else exc.path)


def _at(step, read, *args):
    """read(*args), a DataError from it prefixed with the step."""
    try:
        return read(*args)
    except DataError as exc:
        _prefix(exc, step)
        raise


def _read_each(read, nodes):
    out = []
    try:
        for node in nodes:
            out.append(read(node))
    except DataError as exc:
        _prefix(exc, len(out))      # the index of the node that failed
        raise
    return out


def _expect(cls, what):
    """The reader of a JSON scalar of exactly the type cls."""
    def read(value):
        if type(value) is not cls:
            raise DataError("expected %s, got %r" % (what, value))
        return value
    return read


_expect_int = _expect(int, "an integer")
_expect_str = _expect(str, "a string")
_expect_bool = _expect(bool, "true or false")


def _expect_int_list(value, length=None):
    if type(value) is not list:
        raise DataError("expected a list, got %r" % (value,))
    if length is not None and len(value) != length:
        raise DataError("expected %d entries, got %d" % (length, len(value)))
    for i, v in enumerate(value):
        if type(v) is not int:
            _at(i, _expect_int, v)
    return tuple(value)


def _expect_summands(value):
    if type(value) is not list or len(value) != 3:
        raise DataError("surface normals need exactly 3 summands")
    for i, pair in enumerate(value):
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            _at(i, _expect_int_list, pair, 2)
    return tuple(tuple(pair) for pair in value)


# the reader of each record field, by field name
_FIELDS = {"summands": _expect_summands, "c1": _expect_int, "c2": _expect_int,
           "minus": _expect_int_list, "plus": _expect_int_list,
           "name": _expect_str, "fano_index": _expect_int, "b4": _expect_int,
           "c1_fourth": _expect_int, "genus": _expect_int,
           "finite_automorphisms": _expect_bool}
_NORMALS = {cls.kind: (cls, [(name, _FIELDS[name]) for name in cls._fields])
            for cls in _Normal.__subclasses__()}
# the table fields a record may leave out, for FanoFamilyRecord's defaults
_OPTIONAL = ("genus", "finite_automorphisms")
# the bound of the component cache, above the 1,597 distinct keys of the
# edits seeds 1-8 (see the module docstring)
_COMPONENTS = 4096


def _read_normal(node):
    """The kind and field values of a normal node, each field read by its
    reader: the normal's part of the component cache's key."""
    if type(node) is not dict:
        raise DataError("expected an object, got %r" % (node,))
    kind = node.get("kind")
    if type(kind) is not str or kind not in _NORMALS:
        raise DataError("unknown normal kind %r" % (kind,), "kind")
    args = []
    try:
        for name, read in _NORMALS[kind][1]:
            args.append(read(node.get(name)))
    except DataError as exc:
        _prefix(exc, name)
        raise
    return kind, tuple(args)


@lru_cache(maxsize=_COMPONENTS)
def _component(tname, weights, kind, args):
    return FixedComponent(_TYPES[tname], weights, _NORMALS[kind][0](*args))


def _parse_component(node):
    if type(node) is not dict:
        raise DataError("expected an object, got %r" % (node,))
    tname = node.get("type")
    if type(tname) is not str or tname not in _TYPES:
        raise DataError("unknown component type %r (expected one of %s)"
                        % (tname, ", ".join(sorted(_TYPES))), "type")
    weights = node.get("weights")
    if not (type(weights) is list and len(weights) == 4 and type(weights[0])
            is type(weights[1]) is type(weights[2]) is type(weights[3]) is int):
        _at("weights", _expect_int_list, weights, 4)
    try:
        kind, args = _read_normal(node.get("normal"))
    except DataError as exc:
        _prefix(exc, "normal")
        raise
    try:
        return _component(tname, tuple(weights), kind, args)
    except ValueError as exc:       # the normal's constructor refuses its fields
        raise DataError(str(exc), "normal")


def _parse_record(node):
    if type(node) is not dict:
        raise DataError("expected an object")
    fields = {}
    for name in FanoFamilyRecord._fields:
        if name in node:
            fields[name] = _at(name, _FIELDS[name], node[name])
        elif name not in _OPTIONAL:
            raise DataError("record is missing the %r field" % (name,))
    return FanoFamilyRecord(**fields)


def _decode(text):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:   # also too deep, or too many digits
        raise DataError("invalid JSON: %s" % exc)


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError("not UTF-8 text: %s" % exc)


def parse_document(doc):
    """Build fixed point data from a decoded JSON document."""
    if type(doc) is not dict:
        raise DataError("top level must be an object")
    for key, value, message in _HEADER:
        got = doc.get(key)
        if type(got) is not int or got != value:
            raise DataError("%s, got %r" % (message, got), key)
    comps = doc.get("components")
    if type(comps) is not list or not comps:
        raise DataError("components must be a non-empty list", "components")
    return FixedPointData(_at("components", _read_each, _parse_component, comps))


def loads_data(text):
    return parse_document(_decode(text))


def load_data(path):
    """The data in a file; only an error in reading the file names it."""
    return loads_data(_at(path, _read_text, path))


def _read_table(path):
    doc = _decode(_read_text(path))
    if type(doc) is not list:
        raise DataError("a family table is a JSON array of records")
    return tuple(_read_each(_parse_record, doc))


def load_table(path):
    """The Fano family records in a table file, in file order."""
    return _at(path, _read_table, path)


def _plain(value):
    """A value as JSON: a tuple as a list, a component type as its name, a
    record as the object of its fields, a normal's led by its kind."""
    if type(value) is tuple:
        return [_plain(v) for v in value]
    if type(value) is ComponentType:
        return value.value
    if isinstance(value, Record):
        doc = {"kind": value.kind} if isinstance(value, _Normal) else {}
        doc.update((name, _plain(getattr(value, name))) for name in value._fields)
        return doc
    return value


def document_for(data):
    """The JSON document describing the data; inverse of parse_document."""
    doc = {key: value for key, value, _ in _HEADER}
    doc.update(_plain(data))
    return doc


def dumps_data(data):
    return json.dumps(document_for(data), indent=2, sort_keys=True) + "\n"


def dump_data(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_data(data))
