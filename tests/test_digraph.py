"""Core representation, distances and strong components."""

from __future__ import annotations

import random

import pytest
from hypothesis import given

import bruteforce
from instances import complete, cycle, d4, long_tournament, path, two_cycles
from qk import (
    INF,
    DuplicateArc,
    LoopArc,
    VertexOutOfRange,
    build,
    distance_matrix,
    distances_from,
    induced,
    reverse,
    strong_components,
)
from qk.digraph import bfs
from strategies import digraphs


class TestBuild:
    def test_d4_canonical(self):
        g = d4()
        assert g.n == 4
        assert g.adj == ((1,), (2, 3), (3,), (2,))
        assert g.arc_count == 5

    def test_single_vertex(self):
        g = build(1, [])
        assert g.n == 1
        assert g.adj == ((),)

    def test_loop_rejected(self):
        with pytest.raises(LoopArc):
            build(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateArc):
            build(3, [(0, 1), (0, 1)])

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build(2, [(0, 2)])
        with pytest.raises(VertexOutOfRange):
            build(2, [(-1, 0)])

    def test_digon_allowed(self):
        g = build(2, [(0, 1), (1, 0)])
        assert g.has_arc(0, 1) and g.has_arc(1, 0)

    def test_adjacency_sorted_regardless_of_input_order(self):
        g = build(4, [(1, 3), (1, 2), (0, 1), (2, 3), (3, 2)])
        assert g == d4()


class TestReverse:
    def test_d4(self):
        assert sorted(reverse(d4()).arcs()) == [(1, 0), (2, 1), (2, 3), (3, 1), (3, 2)]

    def test_single_vertex(self):
        g = build(1, [])
        assert reverse(g) == g

    def test_three_cycle(self):
        assert reverse(cycle(3)) == build(3, [(0, 2), (2, 1), (1, 0)])

    @given(digraphs())
    def test_involution(self, g):
        assert reverse(reverse(g)) == g

    @given(digraphs())
    def test_distance_duality(self, g):
        dm = distance_matrix(g)
        rm = distance_matrix(reverse(g))
        for u in range(g.n):
            for v in range(g.n):
                assert rm[u][v] == dm[v][u]


class TestDistances:
    def test_d4_row0(self):
        assert distances_from(d4(), 0) == [0, 1, 2, 2]

    def test_d4_row3(self):
        assert distances_from(d4(), 3) == [INF, INF, 1, 0]

    def test_source_is_zero(self):
        for s in range(4):
            assert distances_from(d4(), s)[s] == 0

    def test_path_from_end(self):
        assert distances_from(path(3), 2) == [INF, INF, 0]

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            distances_from(d4(), 4)

    def test_complete_symmetric(self):
        dm = distance_matrix(complete(3))
        for u in range(3):
            for v in range(3):
                assert dm[u][v] == (0 if u == v else 1)

    def test_empty_arcs_identity_pattern(self):
        dm = distance_matrix(build(3, []))
        for u in range(3):
            for v in range(3):
                assert dm[u][v] == (0 if u == v else INF)

    @given(digraphs())
    def test_rows_match_matrix(self, g):
        dm = distance_matrix(g)
        for u in range(g.n):
            assert list(dm[u]) == distances_from(g, u)

    @given(digraphs())
    def test_against_floyd_warshall(self, g):
        dm = distance_matrix(g)
        fw = bruteforce.floyd_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dm[u][v] == fw[u][v]

    @given(digraphs())
    def test_triangle_inequality(self, g):
        dm = distance_matrix(g)
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    if dm[u][v] is not INF and dm[v][w] is not INF:
                        assert dm[u][w] <= dm[u][v] + dm[v][w]


def _sparse_digraph(n: int, p: float, seed: int):
    rng = random.Random(seed)
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])


class TestBitsetBfs:
    """Rows wider than one machine word, checked against Floyd-Warshall."""

    def test_long_tournament_130(self):
        g = long_tournament(130)
        fw = tuple(tuple(row) for row in bruteforce.floyd_distances(g))
        assert g.dist == fw
        assert g.ecc == tuple(max(row) for row in fw)
        assert g.dist[0][129] == 129

    def test_sparse_100_with_unreachable_pairs(self):
        g = _sparse_digraph(100, 0.015, seed=7)
        fw = tuple(tuple(row) for row in bruteforce.floyd_distances(g))
        assert g.dist == fw
        assert g.ecc == tuple(max(row) for row in fw)
        assert any(INF in row for row in g.dist)
        assert any(1 < x < INF for row in g.dist for x in row)

    def test_masks_agree_with_adj(self):
        for g in (d4(), long_tournament(130), _sparse_digraph(100, 0.015, seed=7), build(0, [])):
            assert len(g.masks) == g.n
            for x in range(g.n):
                assert [y for y in range(g.n) if g.masks[x] >> y & 1] == list(g.adj[x])

    def test_start_set_is_minimum_over_members(self):
        g = _sparse_digraph(100, 0.03, seed=11)
        rows = [distances_from(g, s) for s in range(g.n)]
        for members in ((0,), (3, 70), (5, 64, 65, 99), tuple(range(0, 100, 9))):
            start = sum(1 << s for s in members)
            expected = [min(rows[s][v] for s in members) for v in range(g.n)]
            assert bfs(g.masks, start) == expected


class TestStrongComponents:
    def test_d4(self):
        c = strong_components(d4())
        assert c.components == ((0,), (1,), (2, 3))
        assert c.component_of == (0, 1, 2, 2)
        assert sorted(c.dag.arcs()) == [(0, 1), (1, 2)]
        assert c.initial == {0}
        assert c.terminal == {2}

    def test_cycle_is_one_component(self):
        c = strong_components(cycle(3))
        assert c.components == ((0, 1, 2),)
        assert c.initial == c.terminal == {0}

    def test_path_three_singletons(self):
        c = strong_components(path(3))
        assert c.components == ((0,), (1,), (2,))
        assert c.initial == {0}
        assert c.terminal == {2}

    def test_two_cycles_two_initial(self):
        c = strong_components(two_cycles())
        assert c.components == ((0, 1), (2, 3))
        assert c.initial == {0, 1}
        assert c.terminal == {0, 1}

    @given(digraphs())
    def test_against_reachability_oracle(self, g):
        c = strong_components(g)
        assert c.components == tuple(bruteforce.reach_components(g))

    @given(digraphs())
    def test_components_partition_vertices(self, g):
        c = strong_components(g)
        seen = sorted(v for comp in c.components for v in comp)
        assert seen == list(range(g.n))

    @given(digraphs())
    def test_dag_is_acyclic(self, g):
        dag = strong_components(g).dag
        assert all(len(comp) == 1 for comp in strong_components(dag).components)

    @given(digraphs())
    def test_mutual_reachability_iff_same_component(self, g):
        c = strong_components(g)
        dm = distance_matrix(g)
        for u in range(g.n):
            for v in range(g.n):
                same = c.component_of[u] == c.component_of[v]
                mutual = dm[u][v] is not INF and dm[v][u] is not INF
                assert same == mutual


class TestInduced:
    def test_d4_digon(self):
        sub, remap = induced(d4(), {2, 3})
        assert remap == {2: 0, 3: 1}
        assert sorted(sub.arcs()) == [(0, 1), (1, 0)]

    def test_full_set_is_identity(self):
        g = d4()
        sub, remap = induced(g, range(4))
        assert sub == g
        assert remap == {v: v for v in range(4)}

    def test_empty_set(self):
        sub, remap = induced(d4(), set())
        assert sub.n == 0 and remap == {}

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            induced(d4(), {0, 7})
