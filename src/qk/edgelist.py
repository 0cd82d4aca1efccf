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
wrong with a text and on which line: it raises at the first faulty line,
and no block after it is read.  The digraph it returns carries its
predecessor rows too, one transpose of the rows read (`_transpose`).

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
from .digraph import Digraph, _bits
from .errors import EdgeListParseError

_FLAGS = bytes.maketrans(b"01", b"\0\1")  # bin(row) digits as compress() flags
# Rows spelled out as binary strings cost one digit per vertex, walked set
# bit by set bit about 64 digits per arc (CPython 3.11, n = 500..4096).  So
# _transpose walks the bits when n * n exceeds _SPARSE times the arc count,
# and _pieces walks a row with fewer than n / _SPARSE bits.
_SPARSE = 64
# _transpose takes dense rows _BAND columns (_LOW) at a time;
# _DIGITS[i] maps a byte to b"1" where its bit i is set, else to b"0".
_BAND = 256
_LOW = (1 << _BAND) - 1
_DIGITS = [(b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8)]


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


def _lines(block: bytes, line_no: int, codec: str) -> tuple[list[str], EdgeListParseError | None]:
    """The lines of block, line_no lines into the text, as str.splitlines()
    splits them, up to the first line with a byte codec cannot decode, and
    that line's parse error (None if there is no such line)."""
    try:
        return block.decode(codec, "surrogatepass").splitlines(), None
    except UnicodeDecodeError as exc:
        head = (block[:exc.start].decode(codec, "surrogatepass") + "x").splitlines()[:-1]
        byte = block[exc.start]
        return head, EdgeListParseError(line_no + len(head) + 1, f"non-ASCII byte 0x{byte:02x}")


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


def _transpose(n: int, masks: list[int], count: int) -> tuple[int, ...]:
    """The predecessor rows of masks, count arcs on n vertices.

    Taken set bit by set bit below one arc per _SPARSE cells of the
    n x n grid, else a band of _BAND columns at a time: the band's
    grid holds each row's bits in the band as 32 little-endian bytes,
    rows from the last up, so every 32nd byte from byte j >> 3 is
    column j, which _DIGITS[j & 7] spells in binary for int().  The
    grid takes 32 n bytes, not the 2 n^2 of all n columns at once."""
    pred = [0] * n
    if count * _SPARSE < n * n:
        for x, row in enumerate(masks):
            for y in _bits(row):
                pred[y] |= 1 << x
    else:
        for shift in range(0, n, _BAND):
            grid = b"".join([(row >> shift & _LOW).to_bytes(32, "little") for row in reversed(masks)])
            pred[shift:shift + _BAND] = [int(grid[j >> 3::32].translate(_DIGITS[j & 7]), 2)
                                         for j in range(min(_BAND, n - shift))]
    return tuple(pred)


def _read(chunks, codec: str = "ascii") -> Digraph:
    """The digraph of the bytes of chunks, decoded by codec where the line
    loop reads them (see the module docstring).  The first faulty line
    raises, and nothing after it is read; a missing header or too few arcs
    shows only at the end."""
    n = m = -1  # until the header is read
    masks: list[int] = []
    ids: dict = {}
    count = 0
    line_no = 0
    for block in _blocks(chunks):
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
        text, fault = _lines(block, line_no, codec)
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
            if not (0 <= a < n and 0 <= b < n):
                raise EdgeListParseError(line_no, f"vertex out of range for n={n}: {a} {b}")
            if a == b:
                raise EdgeListParseError(line_no, f"loop arc ({a}, {b})")
            if masks[a] >> b & 1:
                raise EdgeListParseError(line_no, f"duplicate arc ({a}, {b})")
            masks[a] |= 1 << b
            count += 1
        if fault:
            raise fault
    if n < 0:
        raise EdgeListParseError(line_no + 1, "missing header line 'n m'")
    if count != m:
        raise EdgeListParseError(line_no + 1, f"header announced {m} arcs but file has {count}")
    return Digraph(n, tuple(masks), _transpose(n, masks, count))


def parse(text: str) -> Digraph:
    """Parse edge-list text into a Digraph.

    Raises EdgeListParseError (with a 1-based line number).  The first
    faulty line wins, whatever its fault, and nothing after it is read; a
    missing header or too few arcs shows only at the end.
    """
    return _read((s.encode("utf-8", "surrogatepass") for s in _slices(text)), "utf-8")


def read_digraph(path: str) -> Digraph:
    """Parse the file or pipe at path; parse errors are tagged with its
    name.  It must be ASCII: a non-ASCII byte is a parse error on its line.
    As in parse, the first faulty line wins and nothing after it is read."""
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
