"""The base of the package's immutable records."""


class Record:
    """A record whose ``__init__`` writes its fields once, into ``__dict__``.

    Assigning or deleting an attribute afterwards raises ``AttributeError``; ``cached_property``
    writes through ``__dict__``, so it still caches.  ``_fields`` names the fields in constructor
    order.  Records compare by identity.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


class ValueRecord(Record):
    """A record equal to another of its own class with an equal field tuple, and hashed by it."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())
