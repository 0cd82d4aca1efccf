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


def emit(d: Digraph) -> str:
    """Canonical edge-list text for d."""
    lines = [f"{d.n} {d.arc_count}"]
    lines.extend(f"{u} {v}" for u in range(d.n) for v in d.adj[u])
    return "\n".join(lines) + "\n"


def content_digest(d: Digraph) -> str:
    """SHA-256 hex digest of the canonical edge list."""
    return hashlib.sha256(emit(d).encode("ascii")).hexdigest()


def _ints(tokens: list[str], line_no: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise EdgeListParseError(line_no, f"expected integers, got {' '.join(tokens)!r}")


def parse(text: str) -> Digraph:
    """Parse edge-list text into a Digraph.

    Raises EdgeListParseError (with a 1-based line number) on malformed
    headers, bad tokens, out-of-range ids, loops, duplicate arcs, or an arc
    count that disagrees with the header.
    """
    header: tuple[int, int] | None = None
    arcs: list[tuple[int, int, int]] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected two fields, got {len(tokens)}")
        a, b = _ints(tokens, line_no)
        if header is None:
            if a < 0 or b < 0:
                raise EdgeListParseError(line_no, f"negative header field in {stripped!r}")
            header = (a, b)
            continue
        if len(arcs) == header[1]:
            raise EdgeListParseError(
                line_no, f"more than the {header[1]} arcs announced in the header"
            )
        arcs.append((a, b, line_no))
    if header is None:
        raise EdgeListParseError(last_line + 1, "missing header line 'n m'")
    n, m = header
    if len(arcs) != m:
        raise EdgeListParseError(
            last_line + 1, f"header announced {m} arcs but file has {len(arcs)}"
        )
    seen = set()
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v, line_no in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(line_no, f"vertex out of range for n={n}: {u} {v}")
        if u == v:
            raise EdgeListParseError(line_no, f"loop arc ({u}, {v})")
        if (u, v) in seen:
            raise EdgeListParseError(line_no, f"duplicate arc ({u}, {v})")
        seen.add((u, v))
        rows[u].append(v)
    return Digraph(n, tuple(tuple(sorted(row)) for row in rows))


def read_digraph(path: str) -> Digraph:
    """Parse the file at path; parse errors are tagged with the file name."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    try:
        return parse(text)
    except EdgeListParseError as exc:
        raise EdgeListParseError(exc.line, exc.message, source=path) from None


def write_digraph(path: str, d: Digraph) -> str:
    """Write d canonically to path and return its content digest."""
    text = emit(d)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("ascii")).hexdigest()
