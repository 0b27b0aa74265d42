"""Frozen value records with slots: the base of every report and spec class.

A subclass lists its fields in ``__slots__``, in order, and keeps their
annotations as documentation; every field is required and none has a default.
An optional ``__post_init__`` validates (or canonicalizes, through
``object.__setattr__``) after the fields are set.  Records compare equal only
to records of the same class with equal fields, hash like their field tuple,
refuse assignment and deletion with ``AttributeError``, print as
``QualName(field=value!r, ...)`` and copy and pickle through ``__reduce__``.
Building these classes costs nothing at import: no code is generated.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            object.__setattr__(self, name, values[name])
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()
