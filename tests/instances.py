"""Small named digraphs shared by the tests and demos."""

from __future__ import annotations

import random

from qk import Digraph, build


def d4() -> Digraph:
    """Four vertices; the max-out-degree vertex (1) is not the 5-king (0).

    Arcs: 0->1, 1->2, 1->3, 2->3, 3->2.  Vacuously 4-quasi-transitive (no
    path of four arcs exists on four vertices) and the standard example that
    degree maxima and kings can differ.
    """
    return build(4, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 2)])


def cycle(m: int) -> Digraph:
    """Directed cycle 0 -> 1 -> ... -> m-1 -> 0."""
    return build(m, [(i, (i + 1) % m) for i in range(m)])


def path(m: int) -> Digraph:
    """Directed path 0 -> 1 -> ... -> m-1."""
    return build(m, [(i, i + 1) for i in range(m - 1)])


def chorded_path(k: int) -> Digraph:
    """Path (0, 1, ..., k+1) plus the two chords (k, 0) and (k+1, 1).

    Strong and k-quasi-transitive; its two-element set {0, k+1} is a
    (k+1, k)-kernel while no singleton works at those radii.
    """
    arcs = [(i, i + 1) for i in range(k + 1)]
    arcs += [(k, 0), (k + 1, 1)]
    return build(k + 2, arcs)


def complete(n: int) -> Digraph:
    """All ordered pairs: the complete digraph (every digon present)."""
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def long_tournament(n: int) -> Digraph:
    """Strong tournament with diameter n-1: i -> i+1, and j -> i for j >= i+2.

    Tournaments are k-quasi-transitive for every k (all pairs adjacent), so
    this is a handy source of long geodesics inside the class.
    """
    arcs = [(i, i + 1) for i in range(n - 1)]
    arcs += [(j, i) for i in range(n) for j in range(i + 2, n)]
    return build(n, arcs)


def two_cycles() -> Digraph:
    """Two disjoint digons: two initial components, so no king of any radius."""
    return build(4, [(0, 1), (1, 0), (2, 3), (3, 2)])


def no_two_king_blowup() -> Digraph:
    """long_tournament(5) with each of its 2-kings (2, 3, 4) replaced by two
    non-adjacent vertices (2-3, 4-5, 6-7).

    Quasi-transitive, with no 2-king and exactly seven 3-kings.
    """
    return build(8, [
        (0, 1), (1, 2), (1, 3), (2, 0), (2, 4), (2, 5), (3, 0), (3, 4), (3, 5),
        (4, 0), (4, 1), (4, 6), (4, 7), (5, 0), (5, 1), (5, 6), (5, 7),
        (6, 0), (6, 1), (6, 2), (6, 3), (7, 0), (7, 1), (7, 2), (7, 3),
    ])


def gnp(n: int, p: float, seed: int) -> Digraph:
    """Seeded loop-free G(n, p) digraph: each arc u -> v, u-major, with
    probability p under random.Random(seed)."""
    rng = random.Random(seed)
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
