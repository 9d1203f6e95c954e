"""The base of the library's record classes.

A record lists its fields in ``_fields``; the base compares records of
the same class by their field values, writes ``Name(field=value, ...)``
and leaves the record unhashable.  FrozenRecord hashes the field values,
so such a record is not changed after construction.  The shared
``__init__`` takes the fields positionally or by keyword, as a dataclass
does; a class attribute named like a field is that field's default.
"""


class Record:
    _fields = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        cls, names = self.__class__, self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        for name in names[len(args):]:
            if name not in kwargs and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        values = self.__dict__
        values.update(zip(names, args))
        values.update(kwargs)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class FrozenRecord(Record):
    def __hash__(self):
        return hash(self._values())
