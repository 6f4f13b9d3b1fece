"""
Record: the shared base of the package's immutable value classes.

A subclass names its fields in a __slots__ tuple and nowhere else. Record
reads the fields from __slots__ alone (a subclass's after its bases'), and
Record.__init__ takes one value per field, in that order; a subclass that
normalises its arguments ends its own __init__ in one super().__init__
call. Record makes the class frozen (assignment raises AttributeError),
equal only to an instance of the same class with equal fields, hashable
over them, and picklable by calling the constructor again.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for c in reversed(cls.__mro__)
                            for f in c.__dict__.get("__slots__", ()))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__} takes "
                            f"{len(self._fields)} values, got {len(values)}")
        for f, v in zip(self._fields, values):
            object.__setattr__(self, f, v)

    def _key(self):
        return tuple([getattr(self, f) for f in self._fields])

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
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
