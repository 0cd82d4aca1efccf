"""Exception types shared across the package."""

from __future__ import annotations


class QkError(Exception):
    """Base class for all library errors.

    Errors pickle by their message and attributes, not by constructor
    arguments: a subclass's __init__ takes its fields and builds the
    message, so default pickling, which calls the class with the message,
    would garble every subclass a caller pickles."""

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    err = cls.__new__(cls)
    err.args = args
    err.__dict__.update(state)
    return err


class LoopArc(QkError):
    """An arc (v, v) was supplied; loops are not allowed."""

    def __init__(self, v: int) -> None:
        super().__init__(f"loop arc ({v}, {v}) is not allowed")
        self.v = v


class DuplicateArc(QkError):
    """The same ordered pair was supplied more than once."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"duplicate arc ({u}, {v})")
        self.u = u
        self.v = v


class VertexOutOfRange(QkError):
    """A vertex id is outside 0..n-1."""

    def __init__(self, v: int, n: int) -> None:
        super().__init__(f"vertex {v} out of range for n={n}")
        self.v = v
        self.n = n


class InstanceTooLarge(QkError):
    """The instance exceeds a size cap; limit names it (the k-path
    enumeration cap by default)."""

    def __init__(self, n: int, cap: int, limit: str = "enumeration cap") -> None:
        super().__init__(f"instance with n={n} exceeds {limit} {cap}")
        self.n = n
        self.cap = cap
        self.limit = limit


class NotQuasiTransitiveInput(QkError):
    """An operation whose contract requires k-quasi-transitive input detected
    that the precondition was violated."""


class EdgeListParseError(QkError):
    """An edge-list file failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str, source: str | None = None) -> None:
        where = f"{source}: line {line}" if source else f"line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.message = message
        self.source = source
