"""Recognition of k-quasi-transitivity and arc-closure generation.

A digraph is k-quasi-transitive when every directed path of exactly k arcs
(k+1 pairwise-distinct vertices) from u to v forces an arc between u and v in
at least one direction.  "Path" always means vertex-distinct path, never a
walk.

Path enumeration is exact DFS with an instance-size cap: worst-case blowup
becomes an explicit InstanceTooLarge instead of a hang.  The default cap of
64 vertices can be overridden with the QK_ENUM_CAP environment variable
(read at call time).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .digraph import Digraph, bfs, build
from .errors import InstanceTooLarge

RANDOM = "RANDOM"
FORWARD = "FORWARD"

DEFAULT_ENUM_CAP = 64

_MASK64 = (1 << 64) - 1


def mix_seed(*parts: int) -> int:
    """Deterministic 64-bit hash of integer parts (splitmix64 finalizer),
    so nearby seed tuples land on unrelated generator states."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x + (p & _MASK64) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x


def enum_cap() -> int:
    return int(os.environ.get("QK_ENUM_CAP", str(DEFAULT_ENUM_CAP)))


def _require_enumerable(n: int) -> None:
    cap = enum_cap()
    if n > cap:
        raise InstanceTooLarge(n, cap)


@dataclass(frozen=True)
class QtViolation:
    """A length-k path whose endpoints are non-adjacent both ways."""

    path: tuple[int, ...]

    @property
    def u(self) -> int:
        return self.path[0]

    @property
    def v(self) -> int:
        return self.path[-1]


@dataclass(frozen=True)
class GenConfig:
    """Parameters for random instance generation.

    arc_prob seeds an Erdos-Renyi-style loop-free digraph, which is then
    closed under the k-quasi-transitivity condition with the given
    orientation rule.  Fully deterministic given seed.
    """

    n: int
    k: int
    arc_prob: float
    seed: int
    orientation_rule: str = RANDOM

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not 0.0 <= self.arc_prob <= 1.0:
            raise ValueError("arc_prob must be in [0, 1]")
        if self.orientation_rule not in (RANDOM, FORWARD):
            raise ValueError(f"unknown orientation rule {self.orientation_rule!r}")


def _spread(reach: list[int], bit: int, via: int) -> None:
    """OR via into every row of reach that has bit set."""
    for x, row in enumerate(reach):
        if row & bit:
            reach[x] = row | via


def _reach_masks(succ: list[int]) -> list[int]:
    """reach[x]: the vertices x reaches over the rows succ, x included
    (Warshall's closure on bitmask rows)."""
    reach = [row | 1 << x for x, row in enumerate(succ)]
    for m in range(len(reach)):
        _spread(reach, 1 << m, reach[m])
    return reach


def _k_path_exists(succ: list[int], pred: list[int], u: int, v: int, k: int) -> bool:
    """Exact DFS for a k-arc vertex-distinct path u -> v over bitmask rows;
    pred must hold the same arcs as succ, reversed.

    A backward BFS capped at k-1 levels gives near[j], the vertices within
    j arcs of v.  The query fails at once unless u is within k arcs of v,
    and holds at once when u is exactly k arcs from v, since a shortest
    path repeats no vertex.  Otherwise the DFS enters only a vertex from
    which v is still within the arcs left, and never v itself before the
    last arc; with two arcs left, one mask test settles both.
    """
    if u == v:
        return False
    ball = frontier = 1 << v
    near = [ball]
    for _ in range(k - 1):
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= pred[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~ball
        ball |= frontier
        near.append(ball)
    if not succ[u] & ball:
        return False
    if not ball >> u & 1:
        return True
    into_v = pred[v]

    def walk(x: int, rem: int, used: int) -> bool:
        if rem == 2:
            return bool(succ[x] & into_v & ~used)
        cand = succ[x] & near[rem - 1] & ~used
        while cand:
            low = cand & -cand
            if walk(low.bit_length() - 1, rem - 1, used | low):
                return True
            cand ^= low
        return False

    return walk(u, k, 1 << u | 1 << v)


def is_k_quasi_transitive(d: Digraph, k: int) -> list[QtViolation]:
    """All witnesses against k-quasi-transitivity; empty list means yes.

    Lists every length-k path whose endpoints have no arc in either
    direction, in lexicographic path order.  The search starts from each
    vertex s that has a non-neighbour: one backward BFS gives every vertex
    its hop count to the set F of s's non-neighbours, and the DFS enters a
    vertex only if F is still within reach in the arcs left.  Subtrees cut
    this way hold no witness, so the list is that of the full enumeration.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    _require_enumerable(d.n)
    n = d.n
    succ = d.masks
    pred = d.pred
    everyone = (1 << n) - 1
    violations: list[QtViolation] = []
    pathbuf = [0] * (k + 1)
    visited = [False] * n

    def extend(x: int, depth: int) -> None:
        if depth == k:
            # back[x] <= 0 was required to get here, so x is in F
            violations.append(QtViolation(tuple(pathbuf)))
            return
        rem = k - depth - 1
        for y in d.adj[x]:
            if not visited[y] and back[y] <= rem:
                visited[y] = True
                pathbuf[depth + 1] = y
                extend(y, depth + 1)
                visited[y] = False

    for s in range(n):
        far = everyone & ~(1 << s | succ[s] | pred[s])
        if not far:
            continue
        back = bfs(pred, far)
        if back[s] > k:
            continue
        visited[s] = True
        pathbuf[0] = s
        extend(s, 0)
        visited[s] = False
    return violations


def _joined_pairs(succ: list[int], pred: list[int], reach: list[int], k: int):
    """Yield (a, b) for each unordered non-adjacent pair {u, v}, u < v in
    lexicographic order, that a k-arc path joins, oriented along the path
    (u -> v is tried first).

    succ and pred are the successor and predecessor bitmask rows, reach the
    reachability rows of _reach_masks.  A direction in which u cannot reach
    v at all costs one bit test; only the others run the k-path query.

    Lazy on purpose: adjacency and reachability are read from the rows as
    they are when the scan reaches a pair, so arcs the consumer adds between
    yields (keeping all three row lists current) are seen by the rest of
    the scan.
    """
    n = len(succ)
    for u in range(n):
        for v in range(u + 1, n):
            if succ[u] >> v & 1 or succ[v] >> u & 1:
                continue
            if reach[u] >> v & 1 and _k_path_exists(succ, pred, u, v, k):
                yield u, v
            elif reach[v] >> u & 1 and _k_path_exists(succ, pred, v, u, k):
                yield v, u


def qt_closure(d: Digraph, k: int, rule: str = RANDOM, seed: int = 0) -> Digraph:
    """Add arcs until the digraph is k-quasi-transitive.

    Scans unordered non-adjacent pairs in lexicographic order; whenever some
    k-arc path joins a pair, one arc is added between its endpoints (FORWARD:
    from the path's first vertex to its last; RANDOM: seeded coin between the
    two orientations).  Passes repeat until one full pass finds nothing, so
    the result is certified k-quasi-transitive.  Terminates because the arc
    count strictly grows and is bounded by n(n-1).

    The arcs live in successor and predecessor bitmask rows.  Reachability
    rows are kept exact as arcs are added (incremental transitive closure,
    Italiano 1986): a new arc a -> b that a could not already use to reach
    b gives every vertex that reaches a all that b reaches.  Pairs that
    cannot reach each other are then skipped with one bit test each.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if rule not in (RANDOM, FORWARD):
        raise ValueError(f"unknown orientation rule {rule!r}")
    _require_enumerable(d.n)
    rng = random.Random(seed)
    succ, pred = list(d.masks), list(d.pred)
    reach = _reach_masks(succ)
    while True:
        added = False
        for a, b in _joined_pairs(succ, pred, reach, k):
            if rule == RANDOM and rng.random() >= 0.5:
                a, b = b, a
            succ[a] |= 1 << b
            pred[b] |= 1 << a
            if not reach[a] >> b & 1:
                _spread(reach, 1 << a, reach[b])
            added = True
        if not added:
            return Digraph(d.n, tuple(succ))


def random_qt(cfg: GenConfig) -> Digraph:
    """Seed an Erdos-Renyi loop-free digraph, then close it under the
    k-quasi-transitivity condition.  Deterministic per seed."""
    rng = random.Random(cfg.seed)
    arcs = [
        (u, v)
        for u in range(cfg.n)
        for v in range(cfg.n)
        if u != v and rng.random() < cfg.arc_prob
    ]
    base = build(cfg.n, arcs)
    return qt_closure(base, cfg.k, cfg.orientation_rule, seed=rng.getrandbits(64))


def certify_qt(d: Digraph, k: int) -> bool:
    """Cheap yes/no recognition via the pair scan (no violation list).

    Equivalent to `not is_k_quasi_transitive(d, k)`, but stops at the first
    non-adjacent pair that a k-arc path joins.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    _require_enumerable(d.n)
    return next(_joined_pairs(d.masks, d.pred, _reach_masks(d.masks), k), None) is None
