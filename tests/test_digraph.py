"""Core representation, distances and strong components."""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from instances import complete, cycle, d4, gnp, long_tournament, path, two_cycles
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
from qk import digraph
from qk.digraph import Digraph, bfs
from qk.edgelist import emit, parse
from qk.qt import FORWARD, RANDOM, qt_closure, random_qt
from strategies import digraphs


class TestBuild:
    def test_d4_canonical(self):
        g = d4()
        assert g.n == 4
        assert g.arcs() == [(0, 1), (1, 2), (1, 3), (2, 3), (3, 2)]
        assert g.arc_count == 5

    def test_single_vertex(self):
        g = build(1, [])
        assert g.n == 1
        assert g.arcs() == []

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

    def test_arcs_sorted_regardless_of_input_order(self):
        g = build(4, [(1, 3), (1, 2), (0, 1), (2, 3), (3, 2)])
        assert g == d4()
        assert g.arcs() == sorted(g.arcs())


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

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 500, 256, 257, 700])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.05, 0.5, 1.0])
    def test_pred_is_the_per_arc_definition(self, n, p):
        # pred is one transpose of the rows, set bit by set bit below
        # p = 1/64 (so at 0.01) and a band of 256 columns at a time above
        # it; around 64 a row spans a machine-word boundary, and 257 and
        # 700 leave a last band that is partial and not a whole byte
        rng = random.Random(n * 1000 + int(p * 100))
        arcs = [(x, y) for x in range(n) for y in range(n) if x != y and rng.random() < p]
        pred = [0] * n
        for x, y in arcs:
            pred[y] |= 1 << x
        g = build(n, arcs)
        assert g.pred == tuple(pred)
        assert reverse(g).masks == g.pred
        assert reverse(reverse(g)) == g

    def test_long_tournament_takes_the_string_transpose(self):
        g = long_tournament(500)
        assert g.arc_count * digraph._SPARSE >= g.n * g.n
        assert path(4096).arc_count * digraph._SPARSE < 4096 * 4096

    def test_dense_transpose_works_in_bands(self):
        # one grid of all n columns spelled in binary took 2 n^2 bytes
        # (2.2 MB here); a band of _BAND columns takes n / 8 bytes each.
        # The working memory is the peak above the rows pred keeps
        n = 1024
        g = gnp(n, 0.25, seed=1)
        assert g.arc_count * digraph._SPARSE >= n * n
        tracemalloc.start()
        try:
            g.pred
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < n * n / 4
        assert g.pred == build(n, [(y, x) for x, y in g.arcs()]).masks

    def test_pred_of_a_path_at_the_header_cap(self):
        g = path(4096)
        assert g.pred == (0, *(1 << y - 1 for y in range(1, 4096)))
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


class TestBitsetBfs:
    """Rows wider than one machine word, checked against Floyd-Warshall."""

    def test_long_tournament_130(self):
        g = long_tournament(130)
        fw = tuple(tuple(row) for row in bruteforce.floyd_distances(g))
        assert g.dist == fw
        assert g.ecc == tuple(max(row) for row in fw)
        assert g.dist[0][129] == 129

    def test_sparse_100_with_unreachable_pairs(self):
        g = gnp(100, 0.015, seed=7)
        fw = tuple(tuple(row) for row in bruteforce.floyd_distances(g))
        assert g.dist == fw
        assert g.ecc == tuple(max(row) for row in fw)
        assert any(INF in row for row in g.dist)
        assert any(1 < x < INF for row in g.dist for x in row)

    def test_masks_agree_with_arcs(self):
        for g in (d4(), long_tournament(130), gnp(100, 0.015, seed=7), build(0, [])):
            assert len(g.masks) == g.n
            rows = [[y for y in range(g.n) if g.masks[x] >> y & 1] for x in range(g.n)]
            assert g.arcs() == [(x, y) for x in range(g.n) for y in rows[x]]

    def test_start_set_is_minimum_over_members(self):
        g = gnp(100, 0.03, seed=11)
        rows = [distances_from(g, s) for s in range(g.n)]
        for members in ((0,), (3, 70), (5, 64, 65, 99), tuple(range(0, 100, 9))):
            start = sum(1 << s for s in members)
            expected = [min(rows[s][v] for s in members) for v in range(g.n)]
            assert bfs(g.masks, start) == expected


class TestStrongComponents:
    def test_d4(self):
        c = strong_components(d4())
        assert c.components == ((0,), (1,), (2, 3))
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
    def test_initial_and_terminal_against_arc_oracle(self, g):
        comps = bruteforce.reach_components(g)
        index = {v: i for i, comp in enumerate(comps) for v in comp}
        crossing = [(index[u], index[v]) for u, v in g.arcs() if index[u] != index[v]]
        c = strong_components(g)
        assert c.initial == set(range(len(comps))) - {j for _, j in crossing}
        assert c.terminal == set(range(len(comps))) - {i for i, _ in crossing}

    @given(digraphs())
    def test_last_to_finish_lies_in_an_initial_component(self, g):
        c = strong_components(g)
        last = digraph.finish_order(g.masks)[-1]
        assert any(last in c.components[idx] for idx in c.initial)

    @given(digraphs())
    def test_mutual_reachability_iff_same_component(self, g):
        comps = strong_components(g).components
        dm = distance_matrix(g)
        for comp in comps:
            for u in comp:
                for v in range(g.n):
                    mutual = dm[u][v] is not INF and dm[v][u] is not INF
                    assert (v in comp) == mutual


def _transitive_tournament(n: int):
    return build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestStrongComponentsAtScale:
    """Known answers on large inputs, each within a time bound that a
    per-vertex forward/backward BFS sweep (quadratic in n) does not meet."""

    @pytest.mark.parametrize(
        "make, n_comps, initial, terminal",
        [
            (lambda: path(4096), 4096, {0}, {4095}),
            (lambda: reverse(path(4096)), 4096, {4095}, {0}),
            (lambda: cycle(4096), 1, {0}, {0}),
            (lambda: _transitive_tournament(500), 500, {0}, {499}),
            (lambda: reverse(_transitive_tournament(500)), 500, {499}, {0}),
            (lambda: long_tournament(500), 1, {0}, {0}),
        ],
        ids=["path", "reversed-path", "cycle", "transitive", "reversed-transitive", "LT500"],
    )
    def test_known_answer_within_bound(self, make, n_comps, initial, terminal):
        g = make()
        start = time.perf_counter()
        c = strong_components(g)
        elapsed = time.perf_counter() - start
        assert len(c.components) == n_comps
        if n_comps == g.n:
            assert c.components == tuple((v,) for v in range(g.n))
        else:
            assert c.components == (tuple(range(g.n)),)
        assert (c.initial, c.terminal) == (initial, terminal)
        assert elapsed < 2.0, elapsed


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


def _producers(g, k, seed):
    """Every way the library makes a Digraph, each applied once to g."""
    return {
        "build": build(g.n, g.arcs()),
        "parse(emit)": parse(emit(g)),
        "reverse": reverse(g),
        "reverse(reverse)": reverse(reverse(g)),
        "qt_closure": qt_closure(g, k, RANDOM, seed),
        "random_qt": random_qt(n=g.n, k=k, arc_prob=0.3, seed=seed, rule=FORWARD),
    }


class TestDerivedViews:
    """A Digraph stores only its bitmask rows; every other view is derived
    from them, and must say the same as the rows whoever made the digraph."""

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=7), st.integers(2, 4), st.integers(0, 2**32))
    def test_views_agree_with_the_rows(self, g, k, seed):
        made = _producers(g, k, seed)
        for name, d in made.items():
            n, masks = d.n, d.masks
            assert len(masks) == n, name
            rows = [[y for y in range(n) if masks[x] >> y & 1] for x in range(n)]
            for x in range(n):
                assert not masks[x] >> n and not masks[x] >> x & 1, name
            assert d.arcs() == [(x, y) for x in range(n) for y in rows[x]], name
            pred = [0] * n
            for u, v in d.arcs():
                pred[v] |= 1 << u
            assert d.pred == tuple(pred), name
            assert [d.out_degree(x) for x in range(n)] == [len(row) for row in rows], name
            assert d.arc_count == len(d.arcs()), name
            assert d.max_out_degree() == max((len(row) for row in rows), default=0), name
        for a in made.values():
            for b in made.values():
                same_arcs = (a.n, set(a.arcs())) == (b.n, set(b.arcs()))
                assert (a == b) == same_arcs
                if same_arcs:
                    assert hash(a) == hash(b)

    def test_rows_and_four_derived_views_only(self):
        # no per-arc view: a Digraph holds its rows, pred, dist, ecc and cond
        assert Digraph.__slots__ == ("n", "masks", "_pred", "_dist", "_ecc", "_cond")
