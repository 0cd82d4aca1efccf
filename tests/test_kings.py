"""Eccentricities, r-kings, the degree-based finder, census audits, and
the argument checks of the library entry points."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from instances import (
    chorded_path,
    complete,
    cycle,
    d4,
    long_tournament,
    no_two_king_blowup,
    path,
    two_cycles,
)
from qk import INF, Digraph, build, distances_from, reverse
from qk import digraph
from qk.checks import check_king_theorems
from qk.digraph import max_degree_vertex
from qk.errors import NotQuasiTransitiveInput, VertexOutOfRange
from qk.kernels import hunt_conjecture
from qk.kings import (
    all_r_kings,
    census,
    degree_threshold_vertices,
    final_disjunction,
    find_kplus1_king_fast,
)
from qk.qt import certify_qt, random_qt
from strategies import digraphs


class TestEccentricity:
    def test_four_vertex_instance(self):
        assert d4().ecc == (2, INF, INF, INF)

    def test_single_vertex(self):
        assert max(distances_from(build(1, []), 0)) == 0

    def test_chorded_path(self):
        assert chorded_path(2).ecc == (3, 2, 2, 3)

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            max(distances_from(d4(), 4))

    @given(digraphs())
    def test_matches_distance_rows(self, d):
        rows = bruteforce.floyd_distances(d)
        assert d.ecc == tuple(max(row) for row in rows)
        for v in range(d.n):
            assert max(distances_from(d, v)) == max(rows[v])


def _relabeled(d: Digraph, seed: int) -> Digraph:
    """d with its vertices renamed by a seeded permutation."""
    perm = list(range(d.n))
    random.Random(seed).shuffle(perm)
    return build(d.n, [(perm[u], perm[v]) for u, v in d.arcs()])


def _two_long_tournaments(m: int) -> Digraph:
    """Two disjoint copies of long_tournament(m), interleaved by id: two
    initial components, and every eccentricity INF."""
    return build(2 * m, [(2 * u + c, 2 * v + c) for u, v in long_tournament(m).arcs() for c in (0, 1)])


_SWEEP_FAMILIES = {
    **{f"lt{n}-seed{seed}": _relabeled(long_tournament(n), seed) for n in (2, 3, 7, 20, 45) for seed in (0, 1)},
    **{f"path{m}": path(m) for m in (2, 5, 9)},
    **{f"reversed-path{m}": reverse(path(m)) for m in (2, 5, 9)},
    "cycle7": cycle(7),
    "two-cycles": two_cycles(),
    "two-long-tournaments": _two_long_tournaments(6),
    "p-misses-a-vertex": build(4, [(1, 0), (1, 2)]),
    # 0's farthest-back vertex, 2, lies outside the initial component {1}
    "far-back-outside-c": build(4, [(1, 0), (1, 2), (2, 3), (3, 0)]),
    "empty": build(0, []),
    "single": build(1, []),
}


class TestEccentricitySweep:
    """d.ecc settles most of the initial component C from bounds after one
    backward and one forward BFS, and the rest of the digraph at INF; it
    must still equal the row maxima of the distances."""

    @pytest.fixture
    def bfs_calls(self, monkeypatch):
        calls = []

        def counted(d, s, _fn=digraph.distances_from):
            calls.append(s)
            return _fn(d, s)

        monkeypatch.setattr(digraph, "distances_from", counted)
        return calls

    @pytest.mark.parametrize("name", sorted(_SWEEP_FAMILIES))
    def test_matches_floyd_row_maxima(self, name):
        d = _SWEEP_FAMILIES[name]
        assert d.ecc == tuple(max(row) for row in bruteforce.floyd_distances(d))

    def test_p_that_misses_settles_what_it_reaches(self, bfs_calls):
        # 3 finishes last and is its own initial component; p = 3 reaches
        # nothing, so every vertex is INF after its one BFS
        assert build(4, [(1, 0), (1, 2)]).ecc == (INF,) * 4
        assert bfs_calls == [3]

    def test_infinity_passes_along_arcs(self, bfs_calls):
        # 2 finishes last; p = 2 misses 0, so every vertex is INF
        assert build(4, [(1, 0), (2, 3)]).ecc == (INF,) * 4
        assert bfs_calls == [2]

    def test_path_at_the_header_cap_takes_one_bfs(self, bfs_calls):
        # only the initial component {0} can reach every vertex; one BFS
        # per vertex took 4,096 here
        assert path(4096).ecc == (4095, *[INF] * 4095)
        assert bfs_calls == [0]

    def test_reversed_path_at_the_header_cap_takes_one_bfs(self, bfs_calls):
        assert reverse(path(4096)).ecc == (*[INF] * 4095, 4095)
        assert bfs_calls == [4095]

    def test_successor_bound_settles_a_long_tournament(self, bfs_calls):
        assert long_tournament(30).ecc == (29, 28, *range(27, 1, -1), 2, 2)
        assert len(bfs_calls) == 5

    def test_relabeled_lt300_runs_few_bfs(self, bfs_calls):
        d = _relabeled(long_tournament(300), 7)
        assert sorted(d.ecc) == [2, 2, *range(2, 300)]
        assert len(bfs_calls) <= 6


class TestRKings:
    def test_four_vertex_unique_five_king(self):
        assert all_r_kings(d4(), 5) == (0,)

    def test_four_vertex_two_king(self):
        assert all_r_kings(d4(), 2) == (0,)

    def test_complete_one_kings(self):
        assert all_r_kings(complete(4), 1) == (0, 1, 2, 3)

    def test_radius_zero(self):
        assert all_r_kings(build(1, []), 0) == (0,)
        assert all_r_kings(complete(3), 0) == ()

    def test_cycle_exact_kings(self):
        # an m-cycle has every vertex at eccentricity m-1, so exactly m
        # (m-1)-kings and no (m-2)-king
        for m in range(3, 8):
            assert all_r_kings(cycle(m), m - 1) == tuple(range(m))
            assert all_r_kings(cycle(m), m - 2) == ()

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            all_r_kings(d4(), -1)

    @given(digraphs())
    def test_matches_bruteforce(self, d):
        for r in range(d.n + 1):
            assert all_r_kings(d, r) == bruteforce.r_kings(d, r)

    @given(digraphs())
    def test_monotone_in_radius(self, d):
        prev: tuple[int, ...] = ()
        for r in range(d.n + 2):
            cur = all_r_kings(d, r)
            assert set(prev) <= set(cur)
            prev = cur


class TestUniqueInitial:
    def test_four_vertex_instance(self):
        assert d4().cond.initial_component == (0,)

    def test_two_disjoint_cycles(self):
        assert two_cycles().cond.initial_component is None

    def test_strong_digraph(self):
        assert cycle(5).cond.initial_component == (0, 1, 2, 3, 4)


class TestFastFinder:
    def test_four_vertex_instance(self):
        assert find_kplus1_king_fast(d4(), 4) == 0

    def test_chorded_path(self):
        # vertex 2 is the unique out-degree maximum of the (strong) digraph
        assert find_kplus1_king_fast(chorded_path(2), 2) == 2

    def test_no_king_without_unique_initial(self):
        assert find_kplus1_king_fast(two_cycles(), 2) is None

    def test_rejects_non_quasi_transitive(self):
        # a bare path has a unique initial component but its source sits at
        # eccentricity n-1, so the degree argument's guarantee breaks
        with pytest.raises(NotQuasiTransitiveInput):
            find_kplus1_king_fast(path(6), 2)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            find_kplus1_king_fast(d4(), 1)

    def test_degree_counted_inside_the_component(self):
        # vertex 0 has the largest out-degree overall, but three of its four
        # arcs leave the unique initial component {0, 1, 2}; inside it,
        # vertex 1 leads.  No path has 4 arcs, so d is 4-quasi-transitive.
        d = build(6, [(0, 1), (1, 0), (1, 2), (2, 0), (0, 3), (0, 4), (0, 5)])
        assert d.max_out_degree() == d.out_degree(0) == 4
        assert d.cond.initial_component == (0, 1, 2)
        assert max_degree_vertex(d.masks, (0, 1, 2)) == 1
        assert find_kplus1_king_fast(d, 4) == 1
        assert certify_qt(d, 4)
        assert census(d, 4).fast_king == 1

    @given(digraphs())
    def test_max_degree_vertex_by_definition(self, d):
        # smallest id among the largest degrees counted inside comp, over
        # successor and predecessor rows alike
        arcs = d.arcs()
        for comp in d.cond.components:
            for rows, end in ((d.masks, 0), (d.pred, 1)):
                deg = {v: sum(a[end] == v and a[1 - end] in comp for a in arcs) for v in comp}
                top = max(deg.values())
                assert max_degree_vertex(rows, comp) == min(v for v in comp if deg[v] == top)

    @given(digraphs(), st.integers(min_value=2, max_value=7))
    def test_threshold_vertices_by_definition(self, d, k):
        # the unique initial component is the set of vertices that reach
        # every vertex; degrees count arcs inside it, and the cutoff is
        # strict, k below the maximum (even k) or (k-1)/2 below it (odd k)
        dist = bruteforce.floyd_distances(d)
        comp = [v for v in range(d.n) if INF not in dist[v]]
        deg = {v: sum(u == v and w in comp for u, w in d.arcs()) for v in comp}
        step = k if k % 2 == 0 else (k - 1) // 2
        cutoff = max(deg.values(), default=0) - step
        assert degree_threshold_vertices(d, k) == tuple(v for v in comp if deg[v] > cutoff)

    def test_threshold_vertices_chorded_path(self):
        # cutoff = max_degree - k = 2 - 2 = 0, so every vertex with an
        # outgoing arc qualifies; all four are 3-kings
        assert degree_threshold_vertices(chorded_path(2), 2) == (0, 1, 2, 3)

    def test_threshold_vertices_not_unique(self):
        assert degree_threshold_vertices(two_cycles(), 2) == ()

    def test_threshold_vertices_are_kings_on_generated_input(self):
        for k in (2, 3, 4):
            for seed in range(15):
                d = random_qt(n=8, k=k, arc_prob=0.3, seed=seed)
                for v in degree_threshold_vertices(d, k):
                    assert max(distances_from(d, v)) <= k + 1


class TestCensus:
    def test_four_vertex_instance(self):
        rep = census(d4(), 4)
        assert rep.kings_by_radius[5] == (0,)
        assert rep.unique_initial and rep.initial_component == (0,)
        assert rep.fast_king == 0
        assert rep.max_out_degree == 2
        assert rep.max_out_degree_vertices == (1,)
        tags = [row.tag for row in rep.counting_audit]
        assert tags == ["small-component-exact", "even-disjunction"]
        assert not rep.failed_audits

    def test_cycle_boundary_count(self):
        # a (k+1)-cycle is strong with |C| = k+1: exactly k+1 k-kings
        for k in (2, 3, 4, 5):
            rep = census(cycle(k + 1), k)
            row = next(r for r in rep.counting_audit if r.tag == "boundary-exact")
            assert row.passed and row.observed == k + 1
            assert not rep.failed_audits

    def test_no_two_king_blowup(self):
        # replace every 2-king of the strong 5-tournament long_tournament(5)
        # by two non-adjacent vertices: the result is quasi-transitive, has
        # no 2-king, and gets exactly seven 3-kings
        d = no_two_king_blowup()
        assert certify_qt(d, 2)
        rep = census(d, 2)
        assert rep.kings_by_radius[2] == ()
        assert rep.kings_by_radius[3] == (1, 2, 3, 4, 5, 6, 7)
        tags = {row.tag: row for row in rep.counting_audit}
        assert tags["quasi-transitive-four"].passed
        assert tags["quasi-transitive-seven"].passed
        assert tags["quasi-transitive-seven"].observed == 7
        assert rep.fast_king == 4

    def test_all_three_kings_skip_the_seven_row(self):
        # strong and 2-quasi-transitive on six vertices with no 2-king:
        # every vertex is a 3-king, the paper's alternative to seven of them
        d = build(6, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 0), (2, 5),
                      (3, 0), (3, 5), (4, 2), (4, 3), (5, 1), (5, 4)])
        assert certify_qt(d, 2)
        rep = census(d, 2)
        assert rep.ecc_out == (3,) * 6
        assert rep.initial_component == tuple(range(6))
        assert not rep.failed_audits
        assert "quasi-transitive-seven" not in {row.tag for row in rep.counting_audit}

    def test_tournament_exactly_four_three_kings(self):
        rep = census(long_tournament(6), 2)
        row = next(
            r for r in rep.counting_audit if r.tag == "quasi-transitive-four"
        )
        assert row.passed and row.observed == 4

    def test_multiple_initial_components(self):
        rep = census(two_cycles(), 3)
        assert not rep.unique_initial
        assert rep.initial_component is None
        assert rep.fast_king is None
        assert rep.counting_audit == ()

    def test_k_validation(self):
        with pytest.raises(ValueError):
            census(d4(), 1)

    @given(digraphs())
    @settings(deadline=None)
    def test_report_invariants(self, d):
        if d.n == 0:
            return
        rep = census(d, 3)
        assert len(rep.ecc_out) == d.n
        for r in range(1, 5):
            assert set(rep.kings_by_radius[r]) <= set(rep.kings_by_radius[r + 1])
        assert rep.kings_by_radius[4] == all_r_kings(d, 4)
        if rep.fast_king is not None:
            assert rep.unique_initial
            assert rep.fast_king in rep.kings_by_radius[4]
        if not rep.unique_initial:
            assert rep.fast_king is None and rep.counting_audit == ()

    def test_generated_instances_pass_all_audits(self):
        for k in (2, 3, 4, 5):
            for seed in range(25):
                d = random_qt(n=7, k=k, arc_prob=0.25, seed=seed)
                rep = census(d, k)
                assert not rep.failed_audits, (k, seed, rep.failed_audits)


class TestSharpness:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_long_tournament_has_exactly_k_plus_2_kings(self, k):
        # the headline bound is attained: the long tournament is strong and
        # k-quasi-transitive, not all of it are (k+1)-kings, and exactly
        # k+2 of its vertices are
        for m in range(k + 3, k + 6):
            d = long_tournament(m)
            assert certify_qt(d, k), (k, m)
            assert len(d.cond.components) == 1, (k, m)
            assert len(all_r_kings(d, k + 1)) == k + 2 < m, (k, m)
            if k >= 3:
                row = census(d, k).counting_audit[-1]
                assert row.tag.endswith("-disjunction"), (k, m)
                assert row.passed and row.observed.startswith("all_C=False "), (k, m)


class TestFinalDisjunction:
    @pytest.mark.parametrize("k, tag, witness, detail", [
        (3, "odd-disjunction", (False, 0), "no 3-king in C and only 0 4-kings"),
        (4, "even-disjunction", (0, 0), "not all of C are (k+1)-kings yet only 0 2-kings / 0 3-kings"),
    ])
    def test_census_and_checker_share_the_clause(self, k, tag, witness, detail):
        # path(7): C = {0} has eccentricity 6 > k+1, and no vertex is a 4-king
        d = path(7)
        row = census(d, k).counting_audit[-1]
        assert (row.tag, row.passed) == (tag, False)
        assert final_disjunction(k, d.cond.initial_component, d.ecc) == (row, witness, detail)
        _, found = check_king_theorems(d, k)
        assert ("final-disjunction", witness, detail) in found


ARGUMENT_CHECKS = {
    "degree_threshold_vertices": (lambda: degree_threshold_vertices(d4(), 1), "k must be >= 2"),
    "census": (lambda: census(build(0, []), 2), "census needs at least one vertex"),
    "certify_qt": (lambda: certify_qt(d4(), 1), "k must be >= 2"),
    "build": (lambda: build(-1, []), "vertex count must be >= 0"),
    "hunt_conjecture": (lambda: hunt_conjecture(2, trials=1, radii=(0, 1)), "kernel radii must be >= 1"),
}


@pytest.mark.parametrize("call, message", ARGUMENT_CHECKS.values(), ids=list(ARGUMENT_CHECKS))
def test_argument_check_raises(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
