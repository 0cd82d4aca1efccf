"""Independent brute-force oracles used only by the test suite.

Nothing here shares algorithmic code with the library: distances come from
Floyd-Warshall instead of BFS, components from a reachability matrix instead
of depth-first passes, path/violation enumeration from raw vertex
permutations, single k-path queries from a depth-first search with no cuts,
kernels from a full power-set scan, the closure from a replayed pair scan
that asks the permutation scan which pairs a k-arc path joins, and
edge-list parsing from a reader of whole lines that keeps a set of the
arcs seen instead of bitmask rows and blocks.  Slow on purpose; keep n
small.
"""

from __future__ import annotations

import random
import re
from itertools import combinations, permutations

from qk import INF, Digraph, build
from qk.base import MAX_VERTICES
from qk.errors import EdgeListParseError
from qk.qt import RANDOM


def floyd_distances(d: Digraph) -> list[list[float]]:
    n = d.n
    dist: list[list[float]] = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in d.arcs():
        dist[u][v] = 1
    for m in range(n):
        dm = dist[m]
        for u in range(n):
            dum = dist[u][m]
            if dum is INF:
                continue
            du = dist[u]
            for v in range(n):
                alt = dum + dm[v]
                if alt < du[v]:
                    du[v] = alt
    return dist


def reach_components(d: Digraph) -> list[tuple[int, ...]]:
    """Strong components via mutual reachability, ordered by smallest vertex."""
    dist = floyd_distances(d)
    comps: list[tuple[int, ...]] = []
    assigned = [False] * d.n
    for v in range(d.n):
        if assigned[v]:
            continue
        comp = tuple(
            w
            for w in range(d.n)
            if dist[v][w] is not INF and dist[w][v] is not INF
        )
        for w in comp:
            assigned[w] = True
        comps.append(comp)
    return comps


def sequence_paths(d: Digraph, k: int) -> list[tuple[int, ...]]:
    """Every directed path of exactly k arcs, by scanning all vertex tuples."""
    out = []
    for seq in permutations(range(d.n), k + 1):
        if all(d.has_arc(seq[i], seq[i + 1]) for i in range(k)):
            out.append(seq)
    return sorted(out)


def dfs_k_path(d: Digraph, u: int, v: int, k: int) -> bool:
    """Whether a k-arc vertex-distinct path runs from u to v, by a plain
    depth-first search through every such path of at most k arcs from u,
    with no cut of any kind."""
    path = [u]

    def extend(x: int, depth: int) -> bool:
        if depth == k:
            return x == v
        for y in range(d.n):
            if d.has_arc(x, y) and y not in path:
                path.append(y)
                if extend(y, depth + 1):
                    return True
                path.pop()
        return False

    return extend(u, 0)


def sequence_violations(d: Digraph, k: int) -> list[tuple[int, ...]]:
    """Length-k paths whose endpoints have no arc either way."""
    return [
        p
        for p in sequence_paths(d, k)
        if not d.has_arc(p[0], p[-1]) and not d.has_arc(p[-1], p[0])
    ]


def scan_closure(d: Digraph, k: int, rule: str, seed: int) -> Digraph:
    """The k-quasi-transitive closure by the library's documented scan:
    unordered non-adjacent pairs u < v in lexicographic order, u -> v tried
    before v -> u, adjacency and paths read from the arcs as they are when
    the scan reaches the pair, a random.Random(seed) coin per added arc
    under RANDOM, passes until one adds nothing."""
    rng = random.Random(seed)
    arcs = set(d.arcs())
    ends: set[tuple[int, int]] | None = None
    while True:
        added = False
        for u in range(d.n):
            for v in range(u + 1, d.n):
                if (u, v) in arcs or (v, u) in arcs:
                    continue
                if ends is None:
                    ends = {(p[0], p[-1]) for p in sequence_paths(build(d.n, arcs), k)}
                if (u, v) in ends:
                    a, b = u, v
                elif (v, u) in ends:
                    a, b = v, u
                else:
                    continue
                if rule == RANDOM and rng.random() >= 0.5:
                    a, b = b, a
                arcs.add((a, b))
                ends = None
                added = True
        if not added:
            return build(d.n, arcs)


def is_kernel(d: Digraph, s: tuple[int, ...], k: int, l: int) -> bool:
    dist = floyd_distances(d)
    for u, v in permutations(s, 2):
        if dist[u][v] < k:
            return False
    members = set(s)
    for w in range(d.n):
        if w in members:
            continue
        if all(dist[w][v] > l for v in s):
            return False
    return True


def powerset_kernel(d: Digraph, k: int, l: int) -> tuple[int, ...] | None:
    """Smallest (k,l)-kernel by unpruned power-set scan, or None."""
    for size in range(1, d.n + 1):
        for s in combinations(range(d.n), size):
            if is_kernel(d, s, k, l):
                return s
    return None


def r_kings(d: Digraph, r: int) -> tuple[int, ...]:
    dist = floyd_distances(d)
    return tuple(v for v in range(d.n) if all(dv <= r for dv in dist[v]))


_INTEGER = re.compile(r"-?[0-9]+")


def _ints(tokens: list[str], line_no: int) -> list[int]:
    if all(_INTEGER.fullmatch(t) for t in tokens):
        try:
            return [int(t) for t in tokens]
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            pass
    raise EdgeListParseError(line_no, f"expected integers, got {' '.join(tokens)!r}")


def first_fault_parse(text: str) -> Digraph:
    """Edge-list parse in one pass over the lines: each line is checked in
    full (fields, integers, header, count, range, loop, duplicate) and the
    first faulty one raises; a missing header and the arc count are checked
    at the end."""
    header: tuple[int, int] | None = None
    seen: set[tuple[int, int]] = set()
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected two fields, got {len(tokens)}")
        u, v = _ints(tokens, line_no)
        if header is None:
            if u < 0 or v < 0:
                raise EdgeListParseError(line_no, f"negative header field in {stripped!r}")
            if u > MAX_VERTICES:
                raise EdgeListParseError(
                    line_no, f"header announces {u} vertices, above the limit of {MAX_VERTICES}"
                )
            header = (u, v)
            continue
        n, m = header
        if len(seen) == m:
            raise EdgeListParseError(line_no, f"more than the {m} arcs announced in the header")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(line_no, f"vertex out of range for n={n}: {u} {v}")
        if u == v:
            raise EdgeListParseError(line_no, f"loop arc ({u}, {v})")
        if (u, v) in seen:
            raise EdgeListParseError(line_no, f"duplicate arc ({u}, {v})")
        seen.add((u, v))
    if header is None:
        raise EdgeListParseError(last_line + 1, "missing header line 'n m'")
    n, m = header
    if len(seen) != m:
        raise EdgeListParseError(last_line + 1, f"header announced {m} arcs but file has {len(seen)}")
    return build(n, sorted(seen))
