"""Core digraph representation, strong components and BFS distances.

Vertices are dense integer ids 0..n-1.  Digraphs are loop-free, have no
repeated arc in the same direction (opposite arcs forming a digon are fine)
and keep every out-neighbor list sorted ascending, which makes equality,
serialization and traversal order canonical.

Distances come from one bit-parallel BFS over bitmask rows: row x is a
Python int with bit y set for each arc x -> y, and a BFS level is the OR of
its frontier's rows, so a dense row costs one big-int operation rather than
one step per arc.  Each Digraph computes its rows once, on first use
(`Digraph.masks`); they are also its arc index for `has_arc` and
`adjacent`.

Unreachable distances are the float sentinel INF (math.inf), never a large
finite number: the structural results implemented elsewhere branch on
reachability, so "cannot reach" must be unmistakable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DuplicateArc, LoopArc, VertexOutOfRange

INF = math.inf


class Digraph:
    """Immutable loop-free digraph with sorted adjacency lists.

    Use :func:`build` to construct one with validation; the constructor
    trusts its input.
    """

    __slots__ = ("n", "adj", "_masks")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]) -> None:
        self.n = n
        self.adj = adj
        self._masks: tuple[int, ...] | None = None

    @property
    def masks(self) -> tuple[int, ...]:
        """Bitmask rows: bit y of masks[x] is set iff x -> y is an arc."""
        if self._masks is None:
            self._masks = tuple(sum(1 << y for y in row) for row in self.adj)
        return self._masks

    # -- queries ------------------------------------------------------------

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def out_degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_arc(self, u: int, v: int) -> bool:
        return (self.masks[u] >> v) & 1 == 1

    def adjacent(self, u: int, v: int) -> bool:
        """True if there is an arc between u and v in either direction."""
        masks = self.masks
        return (masks[u] >> v | masks[v] >> u) & 1 == 1

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs as ordered pairs, sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in self.adj[u]]

    @property
    def arc_count(self) -> int:
        return sum(len(row) for row in self.adj)

    def max_out_degree(self) -> int:
        return max((len(row) for row in self.adj), default=0)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.arc_count})"


def build(n: int, arc_list) -> Digraph:
    """Validate and canonicalize an arc list into a Digraph.

    Rejects loops, duplicate arcs and out-of-range endpoints.  The input
    order of arcs is irrelevant; adjacency lists come out sorted.
    """
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    seen: set[tuple[int, int]] = set()
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in arc_list:
        if not (0 <= u < n):
            raise VertexOutOfRange(u, n)
        if not (0 <= v < n):
            raise VertexOutOfRange(v, n)
        if u == v:
            raise LoopArc(u)
        if (u, v) in seen:
            raise DuplicateArc(u, v)
        seen.add((u, v))
        rows[u].append(v)
    return Digraph(n, tuple(tuple(sorted(row)) for row in rows))


def reverse(d: Digraph) -> Digraph:
    """The digraph with every arc reversed (an involution)."""
    rows: list[list[int]] = [[] for _ in range(d.n)]
    for u in range(d.n):
        for v in d.adj[u]:
            rows[v].append(u)
    return Digraph(d.n, tuple(tuple(sorted(row)) for row in rows))


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


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop counts; dist[u][v] uses INF for unreachable."""

    dist: tuple[tuple[float, ...], ...]

    def __getitem__(self, u: int) -> tuple[float, ...]:
        return self.dist[u]

    @property
    def n(self) -> int:
        return len(self.dist)


def distance_matrix(d: Digraph) -> DistanceMatrix:
    """One BFS per vertex."""
    return DistanceMatrix(tuple(tuple(distances_from(d, s)) for s in range(d.n)))


@dataclass(frozen=True)
class Condensation:
    """Strong components of a digraph plus its condensation DAG.

    components are numbered by smallest contained vertex id, so the
    decomposition is deterministic.  initial components have in-degree 0 in
    the dag, terminal components out-degree 0.
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    dag: Digraph
    initial: frozenset[int]
    terminal: frozenset[int]


def _tarjan_components(d: Digraph) -> list[list[int]]:
    """Iterative Tarjan SCC; each component's vertex list is unsorted."""
    n = d.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            row = d.adj[v]
            for i in range(ptr, len(row)):
                w = row[i]
                if index[w] == -1:
                    work[-1][1] = i + 1
                    work.append([w, 0])
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
    return comps


def strong_components(d: Digraph) -> Condensation:
    """Strong components, condensation DAG and initial/terminal sets."""
    raw = _tarjan_components(d)
    comps = sorted((tuple(sorted(c)) for c in raw), key=lambda c: c[0])
    comp_of = [0] * d.n
    for idx, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = idx
    dag_arcs: set[tuple[int, int]] = set()
    for u in range(d.n):
        cu = comp_of[u]
        for v in d.adj[u]:
            cv = comp_of[v]
            if cu != cv:
                dag_arcs.add((cu, cv))
    dag = build(len(comps), sorted(dag_arcs))
    has_in = {b for _, b in dag_arcs}
    has_out = {a for a, _ in dag_arcs}
    initial = frozenset(i for i in range(len(comps)) if i not in has_in)
    terminal = frozenset(i for i in range(len(comps)) if i not in has_out)
    return Condensation(tuple(comp_of), tuple(comps), dag, initial, terminal)


def induced(d: Digraph, s) -> tuple[Digraph, dict[int, int]]:
    """Subdigraph induced by vertex set s, densely re-numbered.

    Returns (subdigraph, remap) where remap maps original id -> new id.
    """
    verts = sorted(set(s))
    for v in verts:
        if not (0 <= v < d.n):
            raise VertexOutOfRange(v, d.n)
    remap = {v: i for i, v in enumerate(verts)}
    arcs = [
        (remap[u], remap[v])
        for u in verts
        for v in d.adj[u]
        if v in remap
    ]
    return build(len(verts), arcs), remap
