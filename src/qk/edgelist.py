"""Plain-text digraph files: a "n m" header then one "u v" line per arc.

Lines whose first non-blank character is '#' are comments; blank lines are
skipped.  Vertex ids are 0-based.  The emitter writes a canonical form
(arcs in lexicographic order, LF endings, no comments), so equal digraphs
produce byte-identical files and `content_digest` is well defined no matter
how the input file was formatted.

Two readers share the work.  The bulk reader takes only texts it can prove
well formed: ASCII, every line (the last one included) two runs of digits
joined by one space and ended by LF, a header with n at most MAX_VERTICES
and m equal to the number of arc lines, and arcs that are in range, not
loops and pairwise distinct.  The emitter's output is such a text.  It
reads a text in blocks of whole lines, about _CHUNK bytes each, and holds
one block at a time besides the rows: a file costs memory in its order n,
not in its length.  Ids are looked up in a table of str(v), v < n; a block
with any other id (a leading zero, out of range, too long) is read again
by int().  Any other text goes to the line loop, which alone decides what
is wrong with a text and on which line, and reads comments, blank lines,
tabs and CRLF; a file the bulk reader declines is read again, whole.

The digest hashes the canonical text row by row with the interpreter's
built-in SHA-256 (`_sha2`, or `_sha256` before 3.12).  hashlib, which
maps OpenSSL's libcrypto (about 3 MB of RSS and 5 ms of import per
process), is the fallback where the built-in module is missing.
"""

from __future__ import annotations

from collections.abc import Iterator
from io import BytesIO
from itertools import compress

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .base import MAX_VERTICES
from .digraph import _SPARSE, Digraph, _bits
from .errors import EdgeListParseError

_FLAGS = bytes.maketrans(b"01", b"\0\1")  # bin(row) digits as compress() flags


def _pieces(d: Digraph) -> Iterator[str]:
    """The canonical edge-list text of d, the header and then the lines of
    each row with an arc; bin(row) picks a row's heads, or a walk over its
    set bits when they are fewer than n / _SPARSE."""
    n = d.n
    names = [str(v) for v in range(n)]
    yield f"{n} {d.arc_count}\n"
    for u, row in enumerate(d.masks):
        if row:
            head = f"{u} "
            if row.bit_count() * _SPARSE < n:
                tails = [names[v] for v in _bits(row)]
            else:
                tails = compress(names, bin(row)[:1:-1].encode().translate(_FLAGS))
            yield head + f"\n{head}".join(tails) + "\n"


def emit(d: Digraph) -> str:
    """Canonical edge-list text for d."""
    return "".join(_pieces(d))


def content_digest(d: Digraph) -> str:
    """SHA-256 hex digest of the canonical edge list, fed a row at a time
    so the text is never held whole."""
    h = sha256()
    for piece in _pieces(d):
        h.update(piece.encode("ascii"))
    return h.hexdigest()


_CHUNK = 1 << 14  # bytes read at a time; each block of whole lines is split on its own


def _slices(seq):
    """seq (bytes or str) in pieces of _CHUNK items."""
    return (seq[i:i + _CHUNK] for i in range(0, len(seq), _CHUNK))


def _blocks(chunks) -> Iterator[bytes]:
    """The bytes of chunks regrouped into blocks of whole lines: a block
    ends at the last LF of a chunk and carries the partial line before it
    from the chunks before.  Text after the last LF comes last, alone."""
    head: list[bytes] = []
    for chunk in chunks:
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*head, chunk[:cut]])
            head = [chunk[cut:]]
        else:
            head.append(chunk)
    if rest := b"".join(head):
        yield rest


def _bulk_read(chunks) -> Digraph | None:
    """The digraph of the bytes of chunks if the bulk reader can prove
    them well formed (see the module docstring), else None.  Only one
    block of lines (_blocks) is held at a time.

    The shape check runs at C speed per block: deleting the digits must
    leave one " \n" per line, and no field may be empty.  The header
    comes first; each later block's arcs are read by the id table, else
    by int(), and the arc lines are counted against the header as they
    come.  An id out of range is an IndexError, a field int() refuses
    (over 4,300 digits) a ValueError, and loops and duplicates show in
    the finished rows.
    """
    masks: list[int] = []
    m = -1  # until the header is read
    arcs = 0
    try:
        for block in _blocks(chunks):
            shape = block.translate(None, b"0123456789")
            lines = shape.count(b" \n")
            if (not lines or len(shape) != 2 * lines or block[:1] == b" "
                    or b"\n " in block or b" \n" in block):
                return None
            if m < 0:
                start = block.index(b"\n") + 1
                n, m = map(int, block[:start].split())
                if n > MAX_VERTICES:
                    return None
                masks = [0] * n
                bits = [1 << v for v in range(n)]
                ids = {str(v).encode(): v for v in range(n)}
                block = block[start:]
                lines -= 1
            arcs += lines
            if arcs > m:
                return None
            tokens = block.split()
            try:
                fields = iter(list(map(ids.__getitem__, tokens)))
            except KeyError:  # a leading zero, an id out of range or too long
                fields = map(int, tokens)
            for a, b in zip(fields, fields):
                masks[a] |= bits[b]
    except (IndexError, ValueError):
        return None
    if arcs != m:  # too few arc lines, or no text at all
        return None
    if any(row >> x & 1 for x, row in enumerate(masks)):
        return None
    if sum(row.bit_count() for row in masks) != m:  # a duplicate set no new bit
        return None
    return Digraph(len(masks), tuple(masks))


def _bulk_parse(data: bytes) -> Digraph | None:
    """_bulk_read over data, a _CHUNK at a time."""
    return _bulk_read(_slices(data))


def parse(text: str) -> Digraph:
    """Parse edge-list text into a Digraph.

    Raises EdgeListParseError (with a 1-based line number).  When a text
    has several faults, the first of these wins: a bad line (field count,
    non-integer, negative or oversized header, more arcs than announced),
    then a missing header or too few arcs at the end, then the first
    out-of-range id, loop or duplicate arc.
    """
    d = _bulk_read(map(str.encode, _slices(text))) if text.isascii() else None
    return _parse_lines(text) if d is None else d


def _parse_lines(text: str) -> Digraph:
    """parse() in one pass over the lines: the reader of every text the
    bulk reader declines, and the only source of EdgeListParseError."""
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
        if not fh.seekable():  # a pipe: read it once, then as a file
            fh = BytesIO(fh.read())
        d = _bulk_read(iter(lambda: fh.read(_CHUNK), b""))
        if d is not None:
            return d
        fh.seek(0)
        data = fh.read()
    try:
        return _parse_lines(data.decode("ascii"))
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("ascii") + "x").splitlines())
        raise EdgeListParseError(
            line, f"non-ASCII byte 0x{data[exc.start]:02x}", source=path
        ) from None
    except EdgeListParseError as exc:
        raise EdgeListParseError(exc.line, exc.message, source=path) from None


def write_digraph(path: str, d: Digraph) -> str:
    """Write d canonically to path and return its content digest."""
    h = sha256()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for piece in _pieces(d):
            fh.write(piece)
            h.update(piece.encode("ascii"))
    return h.hexdigest()
