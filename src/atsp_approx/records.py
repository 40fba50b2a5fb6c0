"""Value semantics for the public result records.

A record lists its fields in ``__slots__``, in constructor order.  It then
compares equal to a record of the same class whose fields are equal, and
its repr is ``Name(field=value, ...)``.  A frozen record refuses assignment
after construction and hashes by its fields.  Plain classes with an explicit
``__init__`` keep importing the package free of generated code.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
