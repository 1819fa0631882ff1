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


def _expect_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError("expected an integer, got %r" % (value,), path)
    return value


def _expect_bool(value, path):
    if not isinstance(value, bool):
        raise DataError("expected true or false, got %r" % (value,), path)
    return value


def _expect_int_list(value, path, length=None):
    if not isinstance(value, list):
        raise DataError("expected a list, got %r" % (value,), path)
    if length is not None and len(value) != length:
        raise DataError("expected %d entries, got %d" % (length, len(value)), path)
    return [_expect_int(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]


def _parse_normal(node, path):
    if not isinstance(node, dict):
        raise DataError("expected an object, got %r" % (node,), path)
    kind = node.get("kind")
    try:
        if kind == "point":
            return PointNormal()
        if kind == "surface":
            raw = node.get("summands")
            if not isinstance(raw, list) or len(raw) != 3:
                raise DataError("surface normals need exactly 3 summands",
                                path + ".summands")
            summands = []
            for i, pair in enumerate(raw):
                vals = _expect_int_list(pair, "%s.summands[%d]" % (path, i), 2)
                summands.append((vals[0], vals[1]))
            return SurfaceNormal(tuple(summands))
        if kind == "fourdim_extremal":
            return FourDimExtremalNormal(
                _expect_int(node.get("c1"), path + ".c1"),
                _expect_int(node.get("c2"), path + ".c2"))
        if kind == "fourdim_split":
            return FourDimSplitNormal(
                tuple(_expect_int_list(node.get("minus"), path + ".minus")),
                tuple(_expect_int_list(node.get("plus"), path + ".plus")))
        if kind == "sixdim":
            return SixDimNormal(_expect_int(node.get("c1"), path + ".c1"))
    except DataError:
        raise
    except ValueError as exc:
        raise DataError(str(exc), path)
    raise DataError("unknown normal kind %r" % (kind,), path + ".kind")


def _parse_component(node, path):
    if not isinstance(node, dict):
        raise DataError("expected an object, got %r" % (node,), path)
    tname = node.get("type")
    if tname not in _TYPES:
        raise DataError("unknown component type %r (expected one of %s)"
                        % (tname, ", ".join(sorted(_TYPES))), path + ".type")
    weights = _expect_int_list(node.get("weights"), path + ".weights", 4)
    normal = _parse_normal(node.get("normal"), path + ".normal")
    try:
        return FixedComponent(_TYPES[tname], tuple(weights), normal)
    except ValueError as exc:
        raise DataError(str(exc), path)


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
    parsed = tuple(_parse_component(node, "components[%d]" % i)
                   for i, node in enumerate(comps))
    return FixedPointData(parsed)


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


def _normal_document(normal):
    if isinstance(normal, PointNormal):
        return {"kind": "point"}
    if isinstance(normal, SurfaceNormal):
        return {"kind": "surface",
                "summands": [[d, w] for d, w in normal.summands]}
    if isinstance(normal, FourDimExtremalNormal):
        return {"kind": "fourdim_extremal", "c1": normal.c1, "c2": normal.c2}
    if isinstance(normal, FourDimSplitNormal):
        return {"kind": "fourdim_split",
                "minus": list(normal.minus), "plus": list(normal.plus)}
    if isinstance(normal, SixDimNormal):
        return {"kind": "sixdim", "c1": normal.c1}
    raise DataError("unknown normal variant %r" % (normal,))


def document_for(data):
    """The JSON document describing the data; inverse of parse_document."""
    return {
        "dimension": 8,
        "b2": 1,
        "components": [{
            "type": c.type.value,
            "weights": list(c.weights),
            "normal": _normal_document(c.normal),
        } for c in data],
    }


def dumps_data(data):
    return json.dumps(document_for(data), indent=2, sort_keys=True) + "\n"


def dump_data(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_data(data))
