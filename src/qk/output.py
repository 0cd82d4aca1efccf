"""What every command shares for its output: the byte-stable JSON writer,
the report (JSON document or human text), vertex sets as text, and the
integer lists that some options take.  The commands load it when they
run, so argument parsing compiles none of it."""

from __future__ import annotations

import math
import sys
from argparse import ArgumentTypeError

from . import __version__
from .base import Record
from .errors import QkError

_BATCH = 4096  # pieces of text per write


def write_json(doc, write) -> None:
    """Write doc through write() as json.dumps(doc, sort_keys=True,
    indent=2) writes it, with qk's conversions: a record is an object of
    all of its fields, an infinite or NaN float is null and an integral
    float an int, a tuple or an iterator is an array (an iterator drawn as
    it is written), and mapping keys become str() of themselves.  Any other
    type (subclasses of str, int, float, list and tuple too) raises
    TypeError.

    The text goes out in batches of pieces, so memory does not grow with
    the document; strings are quoted by the C escaper of `_json` (by
    json.encoder's, which falls back to pure Python, where `_json` is
    missing), so no command imports the json package."""
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:
        from json.encoder import encode_basestring_ascii as quote

    parts: list[str] = []
    append = parts.append
    fields: dict[type, tuple[str, ...]] = {}  # per record type, sorted

    def put(x, nl: str) -> None:
        t = type(x)
        if t is int:
            append(repr(x))
        elif t is str:
            append(quote(x))
        elif t is tuple or t is list:
            array(x, nl)
        elif t is float:
            if math.isinf(x) or math.isnan(x):
                append("null")
            else:
                append(repr(int(x)) if x.is_integer() else repr(x))
        elif x is None:
            append("null")
        elif t is bool:
            append("true" if x else "false")
        elif (names := fields.get(t)) is not None:
            members([(name, getattr(x, name)) for name in names], nl)
        elif isinstance(x, Record):
            fields[t] = tuple(sorted(x.__slots__))
            put(x, nl)
        elif isinstance(x, dict):
            keyed = {str(key): value for key, value in x.items()}
            members(sorted(keyed.items()), nl)
        elif hasattr(x, "__next__"):
            array(x, nl)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    def array(x, nl: str) -> None:
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            if type(v) is int:
                append(sep + repr(v))
            else:
                append(sep)
                put(v, inner)
            sep = "," + inner
            if len(parts) > _BATCH:
                flush()
        append("[]" if sep[0] == "[" else nl + "]")

    def members(items, nl: str) -> None:
        if not items:
            append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, v in items:
            append(sep + quote(key) + ": ")
            put(v, inner)
            sep = "," + inner
            if len(parts) > _BATCH:
                flush()
        append(nl + "}")

    def flush() -> None:
        write("".join(parts))
        parts.clear()

    put(doc, "\n")
    flush()


def _emit(args, d, result, human: str) -> None:
    """Print the report: under --json the document, for the command
    argparse stored in args, with the content digest of the input digraph
    d (None for commands without a file), else the human text."""
    if args.json:
        digest = None
        if d is not None:
            from .edgelist import content_digest

            digest = content_digest(d)
        doc = {
            "tool_version": __version__,
            "command": args.command,
            "input_digest": digest,
            "result": result,
        }
        write_json(doc, sys.stdout.write)
        sys.stdout.write("\n")
    elif human:
        print(human)


def _fmt_set(vs) -> str:
    return "{" + ", ".join(str(v) for v in vs) + "}"


def _parse_ints(text: str, what: str, item) -> tuple[int, ...]:
    """Comma- or space-separated integers, each read by the argparse type
    item; what names them in the error."""
    text = text.strip()
    try:
        return tuple(map(item, text.replace(",", " ").split()))
    except ArgumentTypeError as exc:
        raise QkError(f"cannot parse {what} {text!r}: {exc}")
