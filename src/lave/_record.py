"""The methods that lave's records share.

Every record (ReturnSeries, EstimatorConfig, GarchParams, RunConfig, ...) is
a dataclass declared with ``@dataclass(init=False, repr=False, eq=False)`` on
one of the two bases below. ``dataclasses`` still builds its fields, so
``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass`` work on
it, but generates no method. Generated methods are new source that
``dataclasses`` writes and ``exec``s at every ``import lave``: on Python 3.10
and 3.11 one per method, about 120 for the 23 records. The two bases are
written once instead:

- ``__init__`` binds arguments by position or keyword, fills field defaults
  and calls ``default_factory`` for fields left out, then calls the record's
  ``__post_init__`` if it has one. Too many, missing, repeated or unknown
  arguments raise ``TypeError``.
- ``__repr__`` reads ``Name(field=value, ...)``, as a dataclass's does.
- Instances are frozen: assigning or deleting an attribute raises
  ``dataclasses.FrozenInstanceError``. ``__post_init__`` sets a converted
  field through ``object.__setattr__``, as on any frozen dataclass.

A ``Record`` compares and hashes by identity, as ``@dataclass(frozen=True,
eq=False)`` does. A ``ValueRecord`` compares and hashes by the tuple of its
fields, as ``@dataclass(frozen=True)`` does. Of a field's options only
``default`` and ``default_factory`` are read.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, FrozenInstanceError, fields


@functools.cache
def _fields(cls: type) -> tuple:
    return fields(cls)


class Record:
    """Base of the records that compare by identity."""

    def __init__(self, *args, **kwargs):
        cls = type(self)
        record_fields = _fields(cls)
        if len(args) > len(record_fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(record_fields)} positional arguments"
                f" but {len(args)} were given"
            )
        for i, f in enumerate(record_fields):
            value = kwargs.pop(f.name, MISSING)
            if i < len(args):
                if value is not MISSING:
                    raise TypeError(f"{cls.__name__}() got multiple values for {f.name!r}")
                value = args[i]
            elif value is MISSING:
                if f.default is not MISSING:
                    value = f.default
                elif f.default_factory is not MISSING:
                    value = f.default_factory()
                else:
                    raise TypeError(f"{cls.__name__}() missing required argument {f.name!r}")
            object.__setattr__(self, f.name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def __repr__(self) -> str:
        values = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in _fields(type(self)))
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _values(record: Record) -> tuple:
    return tuple(getattr(record, f.name) for f in _fields(type(record)))


class ValueRecord(Record):
    """Base of the records that compare and hash by their fields."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self))
