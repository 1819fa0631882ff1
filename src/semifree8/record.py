"""Immutable value records, written by hand.

Every value type of the package (fixed components and their normal data,
check items, density pieces, enumeration results, the Fano table records)
is a ``Record``: a class that names its fields once, in ``_fields``.
``Record``'s constructor binds them from positional values, then keywords,
then the class's ``_defaults`` (field name -> value), and raises
``TypeError`` on a field that is missing, given twice or unknown.
Equality, hashing and repr read the fields in that order, exactly as a
frozen dataclass of the same fields would; a field named in ``_hidden`` is
bound but neither compared nor shown, as ``field(compare=False,
repr=False)`` would state it:

>>> class Pair(Record):
...     _fields = ("a", "b", "note")
...     _defaults = {"b": 0, "note": ""}
...     _hidden = ("note",)
>>> Pair(1, (2,), note="seen")
Pair(a=1, b=(2,))
>>> Pair(1, 2) == Pair(1, b=2, note="x"), hash(Pair(1, 2)) == hash((1, 2))
(True, True)
>>> Pair(1).b, Pair(1, 2).__eq__((1, 2))
(0, NotImplemented)
>>> Pair(1, a=1)
Traceback (most recent call last):
TypeError: Pair() got multiple values for field 'a'
>>> Pair(1, 2).a = 3
Traceback (most recent call last):
AttributeError: cannot assign to field 'a'

A subclass whose ``__init__`` derives a value from its fields calls
``Record.__init__`` and then sets the value through ``set_field`` (which is
``object.__setattr__``), so nothing is written after construction. An
attribute outside ``_fields`` is invisible to equality, hashing and repr.
A constructor that coerces or validates its input binds its fields itself,
through ``set_field``, or straight into ``self.__dict__``, one item
assignment each, which bypasses ``__setattr__`` just as ``set_field`` does
and builds no keyword dict; ``model.FixedPointData`` does, for the values
its one pass derives.

``model.CheckItem`` is the one value type that is not a ``Record`` but a
tuple subclass with no instance dict. Some twenty items are built per
verification report and make up most of what a report holds, and a
``Record`` is two allocations for the collector to track, the instance
and its dict, where a tuple is one. It keeps the rest of this contract by
hand: read-only fields, equality only with its own class (a plain tuple
included), the hash and repr of its fields, and no ordering.

``serve_lazily`` builds the PEP 562 module ``__getattr__`` by which a
module serves names that another module of the package defines, loading
that module on first use.
"""

from importlib import import_module

set_field = object.__setattr__


def serve_lazily(namespace, served):
    """The ``__getattr__`` of the module whose globals are ``namespace``:
    each name of ``served`` (name -> module of this package) comes from its
    module, imported on first use. The name is then bound in ``namespace``,
    so later lookups, and whatever reads the module's ``__dict__``, find it
    there."""

    def __getattr__(name):
        # PEP 562: reached only for names the module does not hold
        if name not in served:
            raise AttributeError("module %r has no attribute %r" % (namespace["__name__"], name))
        value = getattr(import_module("." + served[name], namespace["__package__"]), name)
        namespace[name] = value
        return value

    return __getattr__


class Record:
    """Base of the frozen value types; see the module docstring."""

    _fields = ()
    _defaults = {}
    _hidden = ()

    def __init__(self, *args, **kwargs):
        fields, cls, given = self._fields, self.__class__.__qualname__, len(args)
        if given > len(fields):
            raise TypeError("%s() takes %d fields but %d were given" % (cls, len(fields), given))
        bound = self.__dict__
        bound.update(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError("%s() got an unknown field %r" % (cls, name))
            if name in bound:
                raise TypeError("%s() got multiple values for field %r" % (cls, name))
            bound[name] = value
        for name in fields[given:]:
            if name not in bound:
                if name not in self._defaults:
                    raise TypeError("%s() is missing the field %r" % (cls, name))
                bound[name] = self._defaults[name]

    def _shown(self):
        return [name for name in self._fields if name not in self._hidden]

    def _key(self):
        return tuple([getattr(self, name) for name in self._shown()])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._shown()))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
