"""The base of the library's value classes.

A record class names its fields, in constructor order, in ``_fields`` and
writes its own ``__init__``, which checks its arguments and stores each
field (a :class:`Record` with ``object.__setattr__``).  From the fields
the base gives it value equality (same class and equal fields), a hash of
the tuple of the fields, a ``Name(field=...)`` repr, and pickling and
copying through the constructor, so that a copy is checked as the
original was.  A :class:`Record` refuses to assign or delete an
attribute; a :class:`MutableRecord` allows both and is unhashable.

The classes are written out rather than made by :mod:`dataclasses`, which
builds their methods from generated source at import: about 20 ms of the
start of every command.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable record, compared and hashed by the tuple of its fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls):
            get = attrgetter(*cls._fields)
            if len(cls._fields) == 1:
                get = lambda self, one=get: (one(self),)
            cls._values = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MutableRecord(Record):
    """A record whose attributes may be assigned; it has no hash."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
