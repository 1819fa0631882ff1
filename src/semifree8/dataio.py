"""Fixed point data as JSON documents.

The format is deliberately small:

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

The loader checks document structure only. Mathematical consistency
(semi-freeness, matching weights and normal kinds, Betti budgets) is the
job of the verification rules, so a structurally valid file describing an
impossible action loads fine and then fails verification.
"""

from __future__ import annotations

import json

from .localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
)
from .model import ComponentType, FixedComponent, FixedPointData


class DataError(ValueError):
    """A malformed document; `path` points at the offending node."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path

    def __str__(self):
        base = super().__str__()
        return "%s (at %s)" % (base, self.path) if self.path else base


_TYPES = {t.value: t for t in ComponentType}


def _expect_int(value, path=""):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError("expected an integer, got %r" % (value,), path)
    return value


def _expect_str(value, path):
    if not isinstance(value, str):
        raise DataError("expected a string, got %r" % (value,), path)
    return value


def _expect_bool(value, path):
    if not isinstance(value, bool):
        raise DataError("expected true or false, got %r" % (value,), path)
    return value


# A reader raises with the path of the failing node relative to the node
# it reads, and each parent prefixes its own step (``_at``) on the way out,
# so a valid document formats no path at all. A list of integers first
# takes an exact-type fast test; only one that fails it goes through the
# general checks, which let an int or list subclass still pass.

def _at(step, read, *args):
    """read(*args); a DataError from it gets the step to the node it read
    (a key, or an int for a list index) prefixed to its path."""
    try:
        return read(*args)
    except DataError as exc:
        step = "[%d]" % step if type(step) is int else step
        exc.path = step + ("." + exc.path if exc.path[:1] not in ("", "[") else exc.path)
        raise


def _read_each(read, nodes):
    return [_at(i, read, node) for i, node in enumerate(nodes)]


def _expect_int_list(value, length=None):
    if not isinstance(value, list):
        raise DataError("expected a list, got %r" % (value,))
    if length is not None and len(value) != length:
        raise DataError("expected %d entries, got %d" % (length, len(value)))
    for i, v in enumerate(value):
        if type(v) is not int:
            _expect_int(v, "[%d]" % i)
    return value


def _expect_summands(value):
    if not isinstance(value, list) or len(value) != 3:
        raise DataError("surface normals need exactly 3 summands")
    for i, pair in enumerate(value):
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            _at(i, _expect_int_list, pair, 2)
    return tuple(tuple(pair) for pair in value)


# each normal class reads its JSON fields under its record field names
_FIELDS = {"summands": _expect_summands, "c1": _expect_int, "c2": _expect_int,
           "minus": _expect_int_list, "plus": _expect_int_list}
_NORMALS = {cls.kind: (cls, [(name, _FIELDS[name]) for name in cls._fields])
            for cls in (PointNormal, SurfaceNormal, FourDimExtremalNormal,
                        FourDimSplitNormal, SixDimNormal)}


def _parse_normal(node):
    if not isinstance(node, dict):
        raise DataError("expected an object, got %r" % (node,))
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in _NORMALS:
        raise DataError("unknown normal kind %r" % (kind,), "kind")
    cls, readers = _NORMALS[kind]
    args = [_at(name, read, node.get(name)) for name, read in readers]
    try:
        return cls(*args)
    except ValueError as exc:
        raise DataError(str(exc))


def _parse_component(node):
    if not isinstance(node, dict):
        raise DataError("expected an object, got %r" % (node,))
    tname = node.get("type")
    if not isinstance(tname, str) or tname not in _TYPES:
        raise DataError("unknown component type %r (expected one of %s)"
                        % (tname, ", ".join(sorted(_TYPES))), "type")
    weights = node.get("weights")
    if not (type(weights) is list and len(weights) == 4 and type(weights[0])
            is type(weights[1]) is type(weights[2]) is type(weights[3]) is int):
        _at("weights", _expect_int_list, weights, 4)
    return FixedComponent(_TYPES[tname], weights, _at("normal", _parse_normal, node.get("normal")))


def parse_document(doc):
    """Build fixed point data from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise DataError("top level must be an object", "")
    if doc.get("dimension") != 8:
        raise DataError("only dimension 8 is supported, got %r"
                        % (doc.get("dimension"),), "dimension")
    if doc.get("b2") != 1:
        raise DataError("only b2 = 1 is supported, got %r"
                        % (doc.get("b2"),), "b2")
    comps = doc.get("components")
    if not isinstance(comps, list) or not comps:
        raise DataError("components must be a non-empty list", "components")
    return FixedPointData(_at("components", _read_each, _parse_component, comps))


def loads_data(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError("invalid JSON: %s" % exc, "")
    return parse_document(doc)


def read_text(path):
    """The contents of a UTF-8 text file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError("not UTF-8 text: %s" % exc, path)


def load_data(path):
    return loads_data(read_text(path))


def document_for(data):
    """The JSON document describing the data; inverse of parse_document."""
    return {
        "dimension": 8,
        "b2": 1,
        "components": [{
            "type": c.type.value,
            "weights": list(c.weights),
            "normal": c.normal.document,
        } for c in data],
    }


def dumps_data(data):
    return json.dumps(document_for(data), indent=2, sort_keys=True) + "\n"


def dump_data(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_data(data))
