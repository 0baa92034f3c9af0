"""Immutable value classes: the subshift specs, generator sets and step
measures, which key dictionaries and print in error messages."""

from __future__ import annotations


class Frozen:
    """Base of a class whose objects are compared, hashed and printed by
    the fields that `_fields` names, in order.

    An object equals only an object of its own class with equal fields, so
    it never equals a bare tuple of them; it hashes as the tuple of its
    fields and prints as ``Class(field=value, ...)``.  A subclass lists its
    fields and any derived attribute in `__slots__`; its `__init__` takes
    the fields in `_fields` order and sets them with `_set`.  Past that,
    setting or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # the default copy sets the slots through the refusing __setattr__;
        # a copy or an unpickled object is made and validated by __init__
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
