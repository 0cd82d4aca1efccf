"""Recognition of k-quasi-transitivity and arc-closure generation.

A digraph is k-quasi-transitive when every directed path of exactly k arcs
(k+1 pairwise-distinct vertices) from u to v forces an arc between u and v in
at least one direction.  "Path" always means vertex-distinct path, never a
walk.

Path enumeration is exact DFS under a fixed instance-size cap, ENUM_CAP
vertices: an order above it raises InstanceTooLarge before any search.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .base import FORWARD, RANDOM, Record
from .digraph import Digraph
from .errors import InstanceTooLarge

ENUM_CAP = 64

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


def _require_enumerable(n: int) -> None:
    if n > ENUM_CAP:
        raise InstanceTooLarge(n, ENUM_CAP)


class QtViolation(Record):
    """A length-k path whose endpoints are non-adjacent both ways."""

    path: tuple[int, ...]

    @property
    def u(self) -> int:
        return self.path[0]

    @property
    def v(self) -> int:
        return self.path[-1]


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


def _walk(succ: list[int], pred: list[int], near: list[int], into_v: int,
          x: int, rem: int, used: int) -> bool:
    """Whether rem arcs lead from x to v through vertices outside used.

    near[j] holds the vertices within j arcs of v and into_v is pred[v];
    used holds x, v and the path so far.  With 7 or more arcs left, a BFS
    back from v over unused vertices gives the only vertices that a
    completion can pass through: the walk cuts when they are fewer than
    the rem - 1 it needs, and enters no vertex outside them.
    """
    cand = succ[x] & near[rem - 1] & ~used
    if rem >= 7:
        ball = frontier = into_v & ~used
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= pred[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~(used | ball)
            ball |= frontier
        if ball.bit_count() < rem - 1:
            return False
        cand &= ball
    if rem == 2:
        return bool(cand)
    if rem == 3:
        last = into_v & ~used
        while cand:
            low = cand & -cand
            if succ[low.bit_length() - 1] & last:
                return True
            cand ^= low
        return False
    while cand:
        low = cand & -cand
        if _walk(succ, pred, near, into_v, low.bit_length() - 1, rem - 1, used | low):
            return True
        cand ^= low
    return False


def _k_path_exists(succ: list[int], pred: list[int], u: int, v: int, k: int) -> bool:
    """Exact DFS for a k-arc vertex-distinct path u -> v over bitmask rows;
    pred must hold the same arcs as succ, reversed.

    A backward BFS capped at k-1 levels gives near[j], the vertices within
    j arcs of v; its first level is pred[v] itself.  The query fails at
    once unless u is within k arcs of v, and holds at once when u is
    exactly k arcs from v, since a shortest path repeats no vertex.
    Otherwise the DFS (_walk) enters only a vertex from which v is still
    within the arcs left, and never v itself before the last arc; with two
    or three arcs left, mask tests settle the level.
    """
    if u == v:
        return False
    if k == 1:
        return bool(succ[u] >> v & 1)
    into_v = frontier = pred[v]
    ball = 1 << v | into_v
    near = [1 << v, ball]
    for _ in range(k - 2):
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
    return _walk(succ, pred, near, into_v, u, k, 1 << u | 1 << v)


def _violations(succ: tuple[int, ...], within: list[int], path: tuple[int, ...],
                rem: int, used: int, out: list[QtViolation]) -> None:
    """Append to out a QtViolation for each way to extend path by rem >= 2
    arcs through vertices outside used into F = within[0], in lexicographic
    order; within[j] holds the vertices within j arcs of F."""
    cand = succ[path[-1]] & within[rem - 1] & ~used
    if rem > 2:
        while cand:
            low = cand & -cand
            cand ^= low
            _violations(succ, within, path + (low.bit_length() - 1,), rem - 1, used | low, out)
        return
    last = within[0] & ~used
    while cand:
        low = cand & -cand
        cand ^= low
        y = low.bit_length() - 1
        ends = succ[y] & last
        while ends:
            end = ends & -ends
            out.append(QtViolation(path + (y, end.bit_length() - 1)))
            ends ^= end


def is_k_quasi_transitive(d: Digraph, k: int) -> list[QtViolation]:
    """All witnesses against k-quasi-transitivity; empty list means yes.

    Lists every length-k path whose endpoints have no arc in either
    direction, in lexicographic path order; with k >= n there is none.
    The list is that of violation_batches, joined.
    """
    return [v for batch in violation_batches(d, k) for v in batch]


def violation_batches(d: Digraph, k: int) -> Iterator[list[QtViolation]]:
    """The witnesses of is_k_quasi_transitive, one list per start vertex
    that has any, in lexicographic path order, so a caller can write them
    out without holding them all.  k and the order are checked at the
    first next().

    The search starts from each vertex s that has a non-neighbour: a
    backward BFS of k-1 levels gives within[j], the vertices within j arcs
    of the set F of s's non-neighbours, and the walk enters a vertex only
    if F is still within the arcs left.  Subtrees cut this way hold no
    witness, so the lists are those of the full enumeration.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    _require_enumerable(d.n)
    n, succ, pred = d.n, d.masks, d.pred
    if k >= n:
        return
    for s in range(n):
        far = ((1 << n) - 1) & ~(1 << s | succ[s] | pred[s])
        if not far:
            continue
        within, frontier = [far], far
        for _ in range(k - 1):
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= pred[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~within[-1]
            within.append(within[-1] | frontier)
        batch: list[QtViolation] = []
        _violations(succ, within, (s,), k, 1 << s, batch)
        if batch:
            yield batch


def _joined_pairs(succ: list[int], pred: list[int], reach: list[int], k: int):
    """Yield (a, b) for each unordered non-adjacent pair {u, v}, u < v in
    lexicographic order, that a k-arc path joins, oriented along the path
    (u -> v is tried first).

    succ and pred are the successor and predecessor bitmask rows, reach the
    reachability rows of _reach_masks.  Row u visits only the vertices
    above u outside succ[u] | pred[u], read once when the row starts.  A
    direction in which u cannot reach v at all costs one bit test; only
    the others run the k-path query.

    Lazy on purpose: paths and reachability are read from the rows as they
    are when the scan reaches a pair, so arcs the consumer adds between
    yields (keeping all three row lists current) are seen by the rest of
    the scan.  The consumer may add an arc only between the two ends of
    the pair just yielded: row u's non-neighbours then stay exact, since
    the one neighbour u gains is behind the scan.  With k >= n nothing is
    yielded: a k-arc path needs k + 1 distinct vertices.
    """
    n = len(succ)
    if k >= n:
        return
    for u in range(n):
        rest = ((1 << n) - (2 << u)) & ~(succ[u] | pred[u])
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if reach[u] & low and _k_path_exists(succ, pred, u, v, k):
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

    The arcs live in successor and predecessor bitmask rows, and the
    result keeps both, so it never transposes its rows.  Reachability
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
    rng = None  # seeded at the first coin: a closure that adds no arc needs none
    succ, pred = list(d.masks), list(d.pred)
    reach = _reach_masks(succ)
    while True:
        added = False
        for a, b in _joined_pairs(succ, pred, reach, k):
            if rule == RANDOM:
                rng = rng or random.Random(seed)
                if rng.random() >= 0.5:
                    a, b = b, a
            succ[a] |= 1 << b
            pred[b] |= 1 << a
            if not reach[a] >> b & 1:
                _spread(reach, 1 << a, reach[b])
            added = True
        if not added:
            return Digraph(d.n, tuple(succ), tuple(pred))


def random_qt(n: int, k: int, arc_prob: float, seed: int, rule: str = RANDOM) -> Digraph:
    """Seed an Erdos-Renyi loop-free digraph of order n, each arc drawn
    with probability arc_prob, then close it under the k-quasi-transitivity
    condition with the orientation rule.  Deterministic per seed.  An
    arc_prob outside [0, 1], then a negative order or one above the
    enumeration cap, fails before any arc is drawn; k and rule are checked
    by qt_closure.  Arcs are drawn u-major, straight into successor and
    predecessor rows."""
    if not 0.0 <= arc_prob <= 1.0:
        raise ValueError("arc_prob must be in [0, 1]")
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    _require_enumerable(n)
    rng = random.Random(seed)
    draw = rng.random
    succ, pred = [0] * n, [0] * n
    for u in range(n):
        row, bit = 0, 1 << u
        for v in range(n):
            if v != u and draw() < arc_prob:
                row |= 1 << v
                pred[v] |= bit
        succ[u] = row
    base = Digraph(n, tuple(succ), tuple(pred))
    return qt_closure(base, k, rule, seed=rng.getrandbits(64))


def certify_qt(d: Digraph, k: int) -> bool:
    """Cheap yes/no recognition via the pair scan (no violation list).

    Equivalent to `not is_k_quasi_transitive(d, k)`, but stops at the first
    non-adjacent pair that a k-arc path joins.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    _require_enumerable(d.n)
    return next(_joined_pairs(d.masks, d.pred, _reach_masks(d.masks), k), None) is None
