"""What the command line needs before it loads any algorithm: the base of
qk's result records, the closure orientation rules and the vertex limit of
edge-list files.  This module imports nothing."""

from __future__ import annotations

# Closure orientation rules (qk.qt): a seeded coin, or along the path.
RANDOM = "RANDOM"
FORWARD = "FORWARD"

# Largest vertex count an edge-list header may announce, checked before any
# row is allocated.  A bitmask row costs up to n bits, so n rows can cost
# n*n/8 bytes (2 MB here) however short the file is.
MAX_VERTICES = 1 << 12


class _RecordType(type):
    """Makes a record class's annotated names, in order, its __slots__, and
    moves the class-level values given to them into _defaults."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["__slots__"] = fields
        ns["_defaults"] = {field: ns.pop(field) for field in fields if field in ns}
        cls = super().__new__(mcls, name, bases, ns)
        # the slots' own setters, which skip the __setattr__ that forbids change
        cls._setters = tuple(vars(cls)[field].__set__ for field in fields)
        if len(fields) == 1 and "__init__" not in ns:
            cls.__init__ = _one_field_init(cls._setters[0])
        return cls


_MISSING = object()


def _one_field_init(put):
    """__init__ for a record of one field, such as qk.qt.QtViolation, which
    recognition builds by the ten thousand: a lone positional value is set
    without packing it into a tuple and zipping it with the setters, at half
    the cost of Record.__init__.  Any other call binds as that does."""

    def __init__(self, value=_MISSING, /, *more, **kwargs):
        if more or kwargs or value is _MISSING:
            (value,) = self._bind(() if value is _MISSING else (value, *more), kwargs)
        put(self, value)

    return __init__


class Record(metaclass=_RecordType):
    """Base of qk's result records.

    A subclass declares its fields, in order, as annotations, and trailing
    fields may have defaults, as in a dataclass; the fields become the
    class's ``__slots__``.  Records are built by position or keyword,
    cannot be changed once built, compare and hash as the tuple of their
    fields, print as ``Name(field=value, ...)`` and pickle by their field
    values."""

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from positional and keyword values
        and the defaults."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated fields {sorted(kwargs)}")
        return values

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
