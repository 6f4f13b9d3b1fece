"""
Record: the shared base of the package's immutable value classes.

A subclass names its fields in __slots__, sets them in its own __init__
through object.__setattr__, and returns them from _key() in __init__'s
argument order. Record then makes it frozen (assignment raises
AttributeError), equal only to an instance of the same class with an equal
key, hashable over that key, and picklable by calling __init__ again.
"""


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._key()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
