"""The base of cwlab's immutable records.

A record names its fields in `__slots__`, in positional order; its own
`__init__` validates them and stores each through `_setters`, the bound
`__set__` of each slot's member descriptor in `__slots__` order, which the
base binds once per class.  `_values`, `__repr__` and `__reduce__` read the
fields in that same order, so records stay leaf classes: a subclass adds
no slots.  The base compares, hashes and prints the field tuple, refuses
assignment and deletion, and pickles and copies through the constructor.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
