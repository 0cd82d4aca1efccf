"""Plain-text digraph files: a "n m" header then one "u v" line per arc.

Lines whose first non-blank character is '#' are comments; blank lines are
skipped.  Vertex ids are 0-based.  The emitter writes a canonical form
(arcs in lexicographic order, LF endings, no comments), so equal digraphs
produce byte-identical files and `content_digest` is well defined no matter
how the input file was formatted.
"""

from __future__ import annotations

import hashlib

from .digraph import Digraph
from .errors import EdgeListParseError

# Largest vertex count a header may announce, checked before any row is
# allocated.  A bitmask row costs up to n bits, so n rows can cost n*n/8
# bytes (2 MB here) however short the file is.
MAX_VERTICES = 1 << 12


def emit(d: Digraph) -> str:
    """Canonical edge-list text for d."""
    out = [f"{d.n} {d.arc_count}\n"]
    for u, row in enumerate(d.adj):
        if row:
            head = f"{u} "
            out.append(head + f"\n{head}".join(map(str, row)) + "\n")
    return "".join(out)


def content_digest(d: Digraph) -> str:
    """SHA-256 hex digest of the canonical edge list."""
    return hashlib.sha256(emit(d).encode("ascii")).hexdigest()


def parse(text: str) -> Digraph:
    """Parse edge-list text into a Digraph in one pass over its lines.

    Raises EdgeListParseError (with a 1-based line number).  When a text
    has several faults, the first of these wins: a bad line (field count,
    non-integer, negative or oversized header, more arcs than announced),
    then a missing header or too few arcs at the end, then the first
    out-of-range id, loop or duplicate arc.
    """
    n = m = -1  # until the header is read
    masks: list[int] = []
    count = 0
    fault: tuple[int, str] | None = None
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected two fields, got {len(tokens)}")
        try:
            # a field reads -?[0-9]+; int() alone would also take '+1', '1_0'
            # and non-ASCII digits
            if "+" in raw or "_" in raw or not (tokens[0] + tokens[1]).isascii():
                raise ValueError
            a, b = map(int, tokens)
        except ValueError:
            raise EdgeListParseError(line_no, f"expected integers, got {' '.join(tokens)!r}")
        if n < 0:
            if a < 0 or b < 0:
                raise EdgeListParseError(line_no, f"negative header field in {raw.strip()!r}")
            if a > MAX_VERTICES:
                raise EdgeListParseError(
                    line_no, f"header announces {a} vertices, above the limit of {MAX_VERTICES}"
                )
            n, m = a, b
            masks = [0] * n
            continue
        if count == m:
            raise EdgeListParseError(line_no, f"more than the {m} arcs announced in the header")
        count += 1
        if fault is not None:
            continue
        if not (0 <= a < n and 0 <= b < n):
            fault = (line_no, f"vertex out of range for n={n}: {a} {b}")
        elif a == b:
            fault = (line_no, f"loop arc ({a}, {b})")
        elif masks[a] >> b & 1:
            fault = (line_no, f"duplicate arc ({a}, {b})")
        else:
            masks[a] |= 1 << b
    if n < 0:
        raise EdgeListParseError(line_no + 1, "missing header line 'n m'")
    if count != m:
        raise EdgeListParseError(line_no + 1, f"header announced {m} arcs but file has {count}")
    if fault is not None:
        raise EdgeListParseError(*fault)
    return Digraph(n, tuple(masks))


def read_digraph(path: str) -> Digraph:
    """Parse the file at path; parse errors are tagged with the file name.

    The file must be ASCII: a non-ASCII byte is a parse error on its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data.decode("ascii"))
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("ascii") + "x").splitlines())
        raise EdgeListParseError(
            line, f"non-ASCII byte 0x{data[exc.start]:02x}", source=path
        ) from None
    except EdgeListParseError as exc:
        raise EdgeListParseError(exc.line, exc.message, source=path) from None


def write_digraph(path: str, d: Digraph) -> str:
    """Write d canonically to path and return its content digest."""
    text = emit(d)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("ascii")).hexdigest()
