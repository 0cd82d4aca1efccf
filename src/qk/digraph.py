"""Core digraph representation, strong components and BFS distances.

Vertices are dense integer ids 0..n-1.  Digraphs are loop-free and have no
repeated arc in the same direction (opposite arcs forming a digon are fine).

A Digraph stores its arcs once, as successor bitmask rows: row x is a
Python int with bit y set for each arc x -> y.  Equality, hashing, degree
counts, arc lists and the k-path searches read the rows, and distances come
from one bit-parallel BFS over them: a BFS level is the OR of its frontier's
rows, so a dense row costs one big-int operation rather than one step per arc.

A Digraph is immutable, so it derives each of these from `masks` at most
once, on first use, and keeps it:
- `pred`, the predecessor bitmask rows, one transpose of `masks`, taken
  set bit by set bit on sparse rows and a band of columns at a time on
  dense ones; a generator that already holds them passes them to the
  constructor instead;
- `dist`, the all-pairs distance rows (`distance_matrix`);
- `ecc`, the out-eccentricities: the row maxima of `dist` when it is
  held, else one far sweep (`eccentricities`) rooted in an initial strong
  component C, which settles most of C by one bound rule, runs at most
  |C| + 1 BFS and never holds the n x n matrix;
- `cond`, the strong components and which of them are initial or
  terminal (`strong_components`, two bitmask passes).

Unreachable distances are the float sentinel INF (math.inf), never a large
finite number: the structural results implemented elsewhere branch on
reachability, so "cannot reach" must be unmistakable.
"""

from __future__ import annotations

import math

from .base import Record
from .errors import DuplicateArc, LoopArc, VertexOutOfRange

INF = math.inf

# Rows spelled out as binary strings cost one digit per vertex, walked set
# bit by set bit about 64 digits per arc (CPython 3.11, n = 500..4096).  So
# Digraph.pred walks the bits when n * n exceeds _SPARSE times the arc
# count, and edgelist.emit walks a row with fewer than n / _SPARSE bits.
_SPARSE = 64
# Digraph.pred transposes dense rows _BAND columns (_LOW) at a time;
# _DIGITS[i] maps a byte to b"1" where its bit i is set, else to b"0".
_BAND = 256
_LOW = (1 << _BAND) - 1
_DIGITS = [(b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8)]


class Digraph:
    """Immutable loop-free digraph stored as successor bitmask rows.

    Use :func:`build` to construct one with validation; the constructor
    trusts its rows: masks[x] has no bit at x or at n and above, and pred,
    when given, holds the same arcs reversed.
    """

    __slots__ = ("n", "masks", "_pred", "_dist", "_ecc", "_cond")

    def __init__(self, n: int, masks: tuple[int, ...],
                 pred: tuple[int, ...] | None = None) -> None:
        self.n = n
        self.masks = masks
        self._pred = pred
        self._dist: tuple[tuple[float, ...], ...] | None = None
        self._ecc: tuple[float, ...] | None = None
        self._cond: Condensation | None = None

    @property
    def pred(self) -> tuple[int, ...]:
        """Predecessor rows: bit x of pred[y] is set iff x -> y is an arc.

        Taken set bit by set bit below one arc per _SPARSE cells of the
        n x n grid, else a band of _BAND columns at a time: the band's
        grid holds each row's bits in the band as 32 little-endian bytes,
        rows from the last up, so every 32nd byte from byte j >> 3 is
        column j, which _DIGITS[j & 7] spells in binary for int().  The
        grid takes 32 n bytes, not the 2 n^2 of all n columns at once."""
        if self._pred is None:
            n, masks = self.n, self.masks
            pred = [0] * n
            if self.arc_count * _SPARSE < n * n:
                for x, row in enumerate(masks):
                    for y in _bits(row):
                        pred[y] |= 1 << x
            else:
                for shift in range(0, n, _BAND):
                    grid = b"".join([(row >> shift & _LOW).to_bytes(32, "little") for row in reversed(masks)])
                    pred[shift:shift + _BAND] = [int(grid[j >> 3::32].translate(_DIGITS[j & 7]), 2)
                                                 for j in range(min(_BAND, n - shift))]
            self._pred = tuple(pred)
        return self._pred

    @property
    def dist(self) -> tuple[tuple[float, ...], ...]:
        """All-pairs hop counts: dist[u][v], INF when v is unreachable."""
        if self._dist is None:
            self._dist = distance_matrix(self)
        return self._dist

    @property
    def ecc(self) -> tuple[float, ...]:
        """Out-eccentricities: ecc[v] = max over u of d(v, u), INF iff some
        vertex is unreachable from v."""
        if self._ecc is None:
            held = self._dist
            self._ecc = eccentricities(self) if held is None else tuple(map(max, held))
        return self._ecc

    @property
    def cond(self) -> Condensation:
        """Strong components and their initial/terminal sets."""
        if self._cond is None:
            self._cond = strong_components(self)
        return self._cond

    # -- queries ------------------------------------------------------------

    def out_degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_arc(self, u: int, v: int) -> bool:
        return (self.masks[u] >> v) & 1 == 1

    def adjacent(self, u: int, v: int) -> bool:
        """True if there is an arc between u and v in either direction."""
        masks = self.masks
        return (masks[u] >> v | masks[v] >> u) & 1 == 1

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs as ordered pairs, sorted lexicographically."""
        return [(u, v) for u, row in enumerate(self.masks) for v in _bits(row)]

    @property
    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.masks)

    def max_out_degree(self) -> int:
        return max((row.bit_count() for row in self.masks), default=0)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.arc_count})"


def build(n: int, arc_list) -> Digraph:
    """Validate an arc list into a Digraph.

    Rejects loops, duplicate arcs and out-of-range endpoints.  The input
    order of arcs is irrelevant.
    """
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    masks = [0] * n
    for u, v in arc_list:
        if not (0 <= u < n):
            raise VertexOutOfRange(u, n)
        if not (0 <= v < n):
            raise VertexOutOfRange(v, n)
        if u == v:
            raise LoopArc(u)
        if masks[u] >> v & 1:
            raise DuplicateArc(u, v)
        masks[u] |= 1 << v
    return Digraph(n, tuple(masks))


def reverse(d: Digraph) -> Digraph:
    """The digraph with every arc reversed (an involution)."""
    return Digraph(d.n, d.pred, d.masks)


def _bits(row: int) -> tuple[int, ...]:
    """The set bits of row, ascending."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return tuple(out)


def distances_from(d: Digraph, s: int) -> list[float]:
    """BFS hop counts from s; unreachable vertices get INF."""
    if not (0 <= s < d.n):
        raise VertexOutOfRange(s, d.n)
    return bfs(d.masks, 1 << s)


def bfs(masks, start: int) -> list[float]:
    """BFS hop counts from the vertex set start over bitmask rows.

    Bit y of masks[x] is set when y is one hop from x; start is a bitmask
    too, so a single vertex s is 1 << s and a larger set gives each vertex
    its distance to the nearest member.  Each level ORs the rows of its
    frontier and keeps the bits not seen before.  Unreachable vertices get
    INF.  Trusts start to lie within range(len(masks)).
    """
    dist: list[float] = [INF] * len(masks)
    seen = frontier = start
    level = 0
    while frontier:
        reach = 0
        rest = frontier
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            dist[x] = level
            reach |= masks[x]
            rest ^= low
        frontier = reach & ~seen
        seen |= frontier
        level += 1
    return dist


def eccentricities(d: Digraph) -> tuple[float, ...]:
    """Out-eccentricities by one far sweep; read them as `d.ecc`.

    The vertex that finishes last in `finish_order` lies in an initial
    strong component C, and a backward BFS from it reaches exactly C, as
    no arc enters C.  Only a vertex of C can reach every vertex, so every
    other eccentricity is INF.  p, the smallest vertex farthest back, gets
    a BFS; when it misses a vertex, so does every vertex of C.  Otherwise
    the rest of C is taken in order of decreasing d(p, w) and settled
    without a BFS when lo = ecc(p) - d(p, w) > 0 and a successor was
    settled at lo - 1, as lo <= ecc(w) <= ecc(x) + 1; any other vertex of
    C gets one BFS, so the sweep runs at most |C| + 1.  The settled
    vertices are kept in one bitmask per value, so the rule costs one AND.
    """
    n = d.n
    if not n:
        return ()
    masks = d.masks
    back = bfs(d.pred, 1 << finish_order(masks)[-1])
    p = back.index(max(b for b in back if b < INF))
    dp = distances_from(d, p)
    ep = max(dp)
    ecc = [INF] * n
    if ep == INF:
        return tuple(ecc)
    ecc[p] = ep
    level = [0] * n  # level[e]: the vertices settled at eccentricity e
    level[ep] = 1 << p
    comp = (w for w, b in enumerate(back) if b < INF)
    for w in sorted(comp, key=dp.__getitem__, reverse=True)[:-1]:  # p comes last
        lo = ep - dp[w]
        e = lo if lo > 0 and masks[w] & level[lo - 1] else max(distances_from(d, w))
        ecc[w] = e
        level[e] |= 1 << w
    return tuple(ecc)


def distance_matrix(d: Digraph) -> tuple[tuple[float, ...], ...]:
    """All-pairs hop counts, one BFS per vertex; read it as `d.dist`."""
    return tuple(tuple(distances_from(d, s)) for s in range(d.n))


class Condensation(Record):
    """Strong components of a digraph and which of them are initial or
    terminal.

    components are numbered by smallest contained vertex id, so the
    decomposition is deterministic; each lists its vertices ascending.  A
    component is initial when no arc enters it from outside, and terminal
    when no arc leaves it.
    """

    components: tuple[tuple[int, ...], ...]
    initial: frozenset[int]
    terminal: frozenset[int]

    @property
    def initial_component(self) -> tuple[int, ...] | None:
        """The vertices of the only initial component, or None when there
        are several (or none, on the empty digraph)."""
        if len(self.initial) != 1:
            return None
        (idx,) = self.initial
        return self.components[idx]


def finish_order(masks) -> list[int]:
    """Every vertex in the order a depth-first search over the successor
    rows finishes it, each search started from the smallest vertex not yet
    entered.  The last to finish lies in an initial strong component: a
    vertex outside its component that reached it would finish later."""
    left = (1 << len(masks)) - 1
    order: list[int] = []
    while left:
        low = left & -left
        left ^= low
        stack = [low.bit_length() - 1]
        while stack:
            step = masks[stack[-1]] & left
            if step:
                low = step & -step
                left ^= low
                stack.append(low.bit_length() - 1)
            else:
                order.append(stack.pop())
    return order


def strong_components(d: Digraph) -> Condensation:
    """Strong components and the initial/terminal sets by Kosaraju's two
    passes over the bitmask rows; read it as `d.cond`.

    Pass 1 is `finish_order`; pass 2 takes the vertices in reverse finish
    order and gives each one not yet placed the unplaced vertices that
    reach it, by a BFS over the predecessor rows.  Each pass enters a
    vertex once, so the cost is O(n) row operations whatever the arc
    count.
    """
    masks, pred = d.masks, d.pred
    left = (1 << d.n) - 1
    found = []
    for root in reversed(finish_order(masks)):
        if not left >> root & 1:
            continue
        comp = frontier = 1 << root
        left ^= frontier
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= pred[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & left
            left ^= frontier
            comp |= frontier
        found.append(comp)
    found.sort(key=lambda comp: comp & -comp)
    comps = tuple(_bits(comp) for comp in found)
    initial, terminal = [], []
    for idx, (comp, verts) in enumerate(zip(found, comps)):
        into = out = 0
        for v in verts:
            into |= pred[v]
            out |= masks[v]
        if not into & ~comp:
            initial.append(idx)
        if not out & ~comp:
            terminal.append(idx)
    return Condensation(comps, frozenset(initial), frozenset(terminal))


def max_degree_vertex(rows, comp) -> int:
    """Smallest vertex of the non-empty vertex tuple comp whose out-degree
    over the bitmask rows (`d.masks`, or `d.pred` for in-degree), counted
    inside comp, is maximum."""
    if len(comp) == 1:
        return comp[0]
    members = sum(1 << v for v in comp)
    return min(comp, key=lambda v: (-(rows[v] & members).bit_count(), v))


def induced(d: Digraph, s) -> tuple[Digraph, dict[int, int]]:
    """Subdigraph induced by vertex set s, densely re-numbered.

    Returns (subdigraph, remap) where remap maps original id -> new id.
    """
    verts = sorted(set(s))
    for v in verts:
        if not (0 <= v < d.n):
            raise VertexOutOfRange(v, d.n)
    remap = {v: i for i, v in enumerate(verts)}
    arcs = [(remap[u], remap[v]) for u in verts for v in _bits(d.masks[u]) if v in remap]
    return build(len(verts), arcs), remap
