"""Immutable value records: the part of frozen dataclasses covercalc uses.

A class decorated with @record lists its fields as annotations, in order;
a class attribute of the same name is that field's default.  Instances
take the fields positionally or by keyword, run __post_init__ when the
class has one, compare equal when their classes and fields are, hash as
the tuple of their fields, print as Name(field=value, ...) and refuse
assignment, as @dataclass(frozen=True) does.  The dataclasses module
itself is not imported: it loads inspect, ast and dis, which cost every
run of the program about 1.3 MB and a fifth of its start-up time.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to a field of a record."""


_MISSING = object()


def record(cls):
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    # every field in order, with its default or _MISSING
    template = {f: cls.__dict__.get(f, _MISSING) for f in fields}
    count = len(fields)
    post_init = cls.__dict__.get("__post_init__")
    # after n positional arguments: the other fields in order, with their
    # defaults, and the ones of them that have no default
    tails = [({f: template[f] for f in fields[n:]},
              frozenset(f for f in fields[n:] if template[f] is _MISSING))
             for n in range(count)]

    def __init__(self, *args, **kwargs):
        n = len(args)
        if n == count and not kwargs:
            self.__dict__.update(zip(fields, args))
        else:
            if n >= count:
                raise _call_error(cls.__name__, fields)
            tail, required = tails[n]
            d = self.__dict__
            d.update(zip(fields, args))
            if kwargs:
                # a keyword that is no field, or repeats a positional one,
                # adds a key; a field with no default must be given
                values = tail | kwargs
                if len(values) != count - n or not kwargs.keys() >= required:
                    raise _call_error(cls.__name__, fields)
                d.update(values)
            elif required:
                raise _call_error(cls.__name__, fields)
            else:
                d.update(tail)
        if post_init is not None:
            post_init(self)

    # the tuple of the fields, as a dataclass hashes it
    key = attrgetter(*fields) if count > 1 else lambda self: (
        getattr(self, fields[0]),)

    def __hash__(self):
        return hash(key(self))

    cls.__init__ = __init__
    cls.__eq__ = _eq
    cls.__hash__ = __hash__
    cls.__setattr__ = cls.__delattr__ = _frozen
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _repr
    return cls


def _call_error(name, fields) -> TypeError:
    return TypeError(f"{name}() takes the fields {', '.join(fields)}: "
                     f"missing, unknown or repeated arguments")


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self.__dict__ == other.__dict__


def _repr(self):
    fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
    return f"{type(self).__qualname__}({fields})"


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")
