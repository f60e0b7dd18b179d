"""Frozen value records: the one value-type mechanism of the library.

A record class lists its fields as annotations, in order, each with an
optional default.  `Record` reads them once per class and serves every
record from the same methods: `__init__` takes the fields positionally or
by keyword and then calls `__post_init__`, attributes cannot be set or
deleted afterwards (`__post_init__` fills derived attributes with
`object.__setattr__`), `__repr__` shows the fields, and `__eq__` and
`__hash__` compare the field tuple within one class.  A class declared
with `eq=False` compares and hashes by identity.  No source is compiled
per class.
"""

from __future__ import annotations

import operator


class Record:
    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        cls._fields = names
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        if not eq:
            return
        # attrgetter of one name returns the bare value, not a 1-tuple
        get = operator.attrgetter(*names)
        key = get if len(names) > 1 else (lambda obj: (get(obj),))

        def __eq__(self, other):
            if other.__class__ is cls:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                            f"arguments, {len(args)} given")
        values = self.__dict__
        values.update(zip(names, args))
        for name in kwargs:
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__}() got an unknown or "
                                f"repeated argument {name!r}")
        values.update(kwargs)
        if len(values) < len(names):
            for name in names:
                if name not in values:
                    if name not in self._defaults:
                        raise TypeError(f"{type(self).__name__}() missing "
                                        f"argument {name!r}")
                    values[name] = self._defaults[name]
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: "
                             f"{type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is frozen")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"
