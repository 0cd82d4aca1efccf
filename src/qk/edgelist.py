"""Plain-text digraph files: a "n m" header then one "u v" line per arc.

Lines whose first non-blank character is '#' are comments; blank lines are
skipped.  Vertex ids are 0-based.  The emitter writes a canonical form
(arcs in lexicographic order, LF endings, no comments), so equal digraphs
produce byte-identical files and `content_digest` is well defined no matter
how the input file was formatted.

One reader takes each text once, in blocks of whole lines of about
_CHUNK bytes, and holds one block besides the rows: a file or a pipe costs
memory in its order n, not in its length.  A block in the emitter's shape
(every line two runs of digits joined by one space and ended by LF) whose
ids are all in a table of str(v), v < n, is committed in bulk when its
lines stay within the header's count and its arcs set one new bit each and
no loop bit.  Any other block (a comment, blank line, tab, CRLF, leading
zero or fault) goes through the line loop, which alone decides what is
wrong with a text and on which line.

The digest hashes the canonical text row by row with the interpreter's
built-in SHA-256 (`_sha2`, or `_sha256` before 3.12).  hashlib, which
maps OpenSSL's libcrypto (about 3 MB of RSS and 5 ms of import per
process), is the fallback where the built-in module is missing.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    """seq in pieces of _CHUNK items."""
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


def _lines(block: bytes, line_no: int, codec: str) -> list[str]:
    """The lines of block, line_no lines into the text, as str.splitlines()
    splits them; a byte codec cannot decode is a parse error on its line."""
    try:
        return block.decode(codec, "surrogatepass").splitlines()
    except UnicodeDecodeError as exc:
        line = line_no + len((block[:exc.start].decode("ascii") + "x").splitlines())
        raise EdgeListParseError(line, f"non-ASCII byte 0x{block[exc.start]:02x}") from None


def _commit(masks: list[int], ids: dict, bits: list[int], block: bytes, lines: int) -> bool:
    """Set the arcs of block, lines canonical arc lines, in masks if all
    their ids are in ids and each sets one new bit and no loop bit; else
    leave masks as they were.  Whether the arcs were set."""
    try:
        fields = list(map(ids.__getitem__, block.split()))
    except KeyError:  # a leading zero, an id out of range or too long
        return False
    tails = [*{*fields[::2]}]
    rows = [masks[u] for u in tails]
    pairs = iter(fields)
    for a, b in zip(pairs, pairs):
        masks[a] |= bits[b]
    if (sum(masks[u].bit_count() for u in tails) - sum(row.bit_count() for row in rows) == lines
            and not any(masks[u] >> u & 1 for u in tails)):
        return True
    for u, row in zip(tails, rows):  # a loop, or an arc that set no new bit
        masks[u] = row
    return False


def _read(chunks, codec: str = "ascii") -> Digraph:
    """The digraph of the bytes of chunks, decoded by codec where the line
    loop reads them (see the module docstring).  Once the line loop
    raises, the rest is still decoded, so a non-ASCII byte further on wins.
    """
    n = m = -1  # until the header is read
    masks: list[int] = []
    ids: dict = {}
    count = 0
    fault: tuple[int, str] | None = None
    line_no = 0
    blocks = _blocks(chunks)
    for block in blocks:
        shape = block.translate(None, b"0123456789")
        lines = shape.count(b" \n")
        if (lines and len(shape) == 2 * lines and block[:1] != b" "
                and b"\n " not in block and b" \n" not in block):
            if n < 0:
                cut = block.index(b"\n") + 1
                a, b = block[:cut].split()  # any longer header goes to the line loop
                if len(a) <= 4 and len(b) <= 9 and int(a) <= MAX_VERTICES:
                    n, m = int(a), int(b)
                    masks = [0] * n
                    block, lines, line_no = block[cut:], lines - 1, line_no + 1
            if not ids:
                ids = {str(v).encode(): v for v in range(n)}
                bits = [1 << v for v in range(n)]
            if count + lines <= m and _commit(masks, ids, bits, block, lines):
                count += lines
                line_no += lines
                continue
        text = _lines(block, line_no, codec)
        end = line_no + len(text)
        try:
            for raw in text:
                line_no += 1
                tokens = raw.split()
                if not tokens or tokens[0][0] == "#":
                    continue
                if len(tokens) != 2:
                    raise EdgeListParseError(line_no, f"expected two fields, got {len(tokens)}")
                try:
                    # a field reads -?[0-9]+; int() alone would also take
                    # '+1', '1_0' and non-ASCII digits
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
                            line_no,
                            f"header announces {a} vertices, above the limit of {MAX_VERTICES}",
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
        except EdgeListParseError:
            for rest in blocks:  # a non-ASCII byte further on raises instead
                end += len(_lines(rest, end, codec))
            raise
    if n < 0:
        raise EdgeListParseError(line_no + 1, "missing header line 'n m'")
    if count != m:
        raise EdgeListParseError(line_no + 1, f"header announced {m} arcs but file has {count}")
    if fault is not None:
        raise EdgeListParseError(*fault)
    return Digraph(n, tuple(masks))


def parse(text: str) -> Digraph:
    """Parse edge-list text into a Digraph.

    Raises EdgeListParseError (with a 1-based line number).  When a text
    has several faults, the first of these wins: a bad line (field count,
    non-integer, negative or oversized header, more arcs than announced),
    then a missing header or too few arcs at the end, then the first
    out-of-range id, loop or duplicate arc.
    """
    return _read((s.encode("utf-8", "surrogatepass") for s in _slices(text)), "utf-8")


def read_digraph(path: str) -> Digraph:
    """Parse the file or pipe at path; parse errors are tagged with its
    name.  It must be ASCII: a non-ASCII byte is a parse error on its line,
    and it wins over any other fault in the file."""
    with open(path, "rb") as fh:
        try:
            return _read(iter(lambda: fh.read(_CHUNK), b""))
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
