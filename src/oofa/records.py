"""The base of the package's records: immutable classes with fixed fields.

A record is a plain class whose ``__slots__`` name its fields in order and
whose ``__init__`` checks them and stores them with ``object.__setattr__``.
Setting or deleting an attribute afterwards raises AttributeError, and there
is no instance ``__dict__``.  A :class:`Record` compares and hashes by
identity, as the records holding arrays do; a :class:`ValueRecord` compares
and hashes by its field values, so equal specs share cache entries.
"""

from __future__ import annotations


class Record:
    """A frozen record; compares by identity."""

    __slots__ = ()
    #: Fields the repr leaves out.
    _unshown: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                          if name not in self._unshown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        """Copies and pickles are rebuilt through ``__init__``, which stores
        the fields."""
        return type(self), self._values()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)


class ValueRecord(Record):
    """A frozen record that compares and hashes by its field values."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())
