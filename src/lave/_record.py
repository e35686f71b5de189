"""The methods that lave's records share.

A record (ReturnSeries, EstimatorConfig, GarchParams, RunConfig, ...) is
declared by subclassing one of the two bases below and nothing else: a
``ValueRecord`` compares and hashes by the tuple of its fields, as
``@dataclass(frozen=True)`` does, and a ``Record`` by identity, as
``@dataclass(frozen=True, eq=False)`` does. ``Record.__init_subclass__``
makes each subclass a dataclass that generates no method, so
``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass`` work on
it, and ``inspect.signature`` reads its fields. Generated methods are
new source that ``dataclasses`` writes and ``exec``s at every ``import
lave``: on Python 3.10 and 3.11 one per method, about 120 for the 23
records. The two bases are written once instead:

- ``__init__`` binds arguments by position or keyword, fills field defaults
  and calls ``default_factory`` for fields left out, then calls the record's
  ``__post_init__`` if it has one. Too many, missing, repeated or unknown
  arguments raise ``TypeError``.
- ``__repr__`` reads ``Name(field=value, ...)``, as a dataclass's does.
- Instances are frozen: assigning or deleting an attribute raises
  ``dataclasses.FrozenInstanceError``. ``__post_init__`` sets a converted
  field through ``object.__setattr__``, as on any frozen dataclass.

Of a field's options only ``default`` and ``default_factory`` are read.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, is_dataclass


class _Factory:
    """The default a signature shows for a field with a default_factory."""

    def __repr__(self) -> str:
        return "<factory>"


def _parameter(f) -> inspect.Parameter:
    if f.default is not MISSING:
        default = f.default
    elif f.default_factory is not MISSING:
        default = _Factory()
    else:
        default = inspect.Parameter.empty
    return inspect.Parameter(
        f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default=default, annotation=f.type
    )


class _Signature:
    """A record's inspect.signature, built when asked for: its fields in
    order, with their defaults and annotations, in place of Record.__init__'s
    (*args, **kwargs)."""

    def __get__(self, record, cls):
        if not is_dataclass(cls):  # Record or ValueRecord
            return None
        return inspect.Signature([_parameter(f) for f in fields(cls)])


@functools.cache
def _fields(cls: type) -> tuple:
    return fields(cls)


class Record:
    """Base of the records that compare by identity."""

    __signature__ = _Signature()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__module__ != __name__:  # a record, not ValueRecord
            dataclass(init=False, repr=False, eq=False)(cls)

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
