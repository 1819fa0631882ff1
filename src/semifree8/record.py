"""Immutable value records, written by hand.

Every value type of the package (fixed components and their normal data,
check items, density pieces, enumeration results, the Fano table records)
is a ``Record``: a class that names its fields once, in ``_fields``, and
sets them in its own ``__init__`` through ``set_field`` (which is
``object.__setattr__``). Equality, hashing and repr read those fields in
that order, exactly as a frozen dataclass of the same fields would:

>>> class Pair(Record):
...     _fields = ("a", "b")
...     def __init__(self, a, b):
...         set_field(self, "a", a)
...         set_field(self, "b", b)
>>> Pair(1, (2,))
Pair(a=1, b=(2,))
>>> Pair(1, 2) == Pair(1, 2), hash(Pair(1, 2)) == hash((1, 2))
(True, True)
>>> Pair(1, 2).__eq__((1, 2))
NotImplemented
>>> Pair(1, 2).a = 3
Traceback (most recent call last):
AttributeError: cannot assign to field 'a'

An attribute outside ``_fields`` (a value an ``__init__`` derives from the
fields) is invisible to all three. An ``__init__`` may also write its
values straight into ``self.__dict__``, one item assignment each, which
bypasses ``__setattr__`` just as ``set_field`` does and builds no keyword
dict; ``model.CheckItem``, built some twenty times per verification
report, does.

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

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
