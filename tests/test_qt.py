"""Recognition, k-path search and closure generation."""

from __future__ import annotations

import gc
import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from instances import chorded_path, complete, cycle, d4, gnp, long_tournament, path
from qk import INF, InstanceTooLarge, build, reverse
from qk import qt
from qk.checks import _long_diameter_instance
from qk.edgelist import emit
from qk.qt import (
    FORWARD,
    RANDOM,
    certify_qt,
    is_k_quasi_transitive,
    mix_seed,
    qt_closure,
    random_qt,
    violation_batches,
)


def has_k_path(g, u, v, k):
    return qt._k_path_exists(g.masks, g.pred, u, v, k)


class TestHasKPath:
    def test_d4_three_arcs(self):
        assert has_k_path(d4(), 0, 3, 3)

    def test_same_vertex_never(self):
        assert not has_k_path(d4(), 0, 0, 1)
        assert not has_k_path(cycle(4), 0, 0, 4)

    def test_cycle_spans_k(self):
        for k in range(2, 7):
            assert has_k_path(cycle(k + 1), 0, k, k)

    def test_too_long_for_vertex_count(self):
        assert not has_k_path(d4(), 0, 3, 4)

    @given(st.data())
    def test_matches_sequence_scan(self, data):
        from strategies import digraphs

        g = data.draw(digraphs(max_n=6))
        k = data.draw(st.integers(min_value=1, max_value=4))
        expected = {(p[0], p[-1]) for p in bruteforce.sequence_paths(g, k)}
        for u in range(g.n):
            for v in range(g.n):
                assert has_k_path(g, u, v, k) == ((u, v) in expected)

    @pytest.mark.parametrize("k", range(7, 11))
    def test_matches_plain_dfs_past_the_cut(self, monkeypatch, k):
        # with 7 or more arcs left the walk also cuts by what can still
        # reach v over unused vertices; sparse orders up to 12 keep the
        # uncut oracle cheap and give both answers
        walk = qt._walk
        deep_misses = []

        def counted(succ, pred, near, into_v, x, rem, used):
            found = walk(succ, pred, near, into_v, x, rem, used)
            if rem >= 7 and not found:
                deep_misses.append(x)
            return found

        monkeypatch.setattr(qt, "_walk", counted)
        answers = set()
        for seed in range(25):
            rng = random.Random(mix_seed(k, seed))
            n = rng.randint(k, 12)
            p = rng.uniform(0.1, 0.4)
            g = build(n, [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p])
            for u in range(n):
                for v in range(n):
                    expected = bruteforce.dfs_k_path(g, u, v, k)
                    assert has_k_path(g, u, v, k) == expected
                    answers.add(expected)
        assert answers == {False, True}
        assert deep_misses


class TestReach:
    @given(st.data())
    @settings(max_examples=150)
    def test_matches_floyd_distances(self, data):
        from strategies import digraphs

        g = data.draw(digraphs(max_n=9))
        dist = bruteforce.floyd_distances(g)
        assert qt._reach_masks(list(g.masks)) == [
            sum(1 << y for y in range(g.n) if row[y] != INF) for row in dist
        ]


class TestRecognition:
    def test_d4_is_4qt(self):
        assert is_k_quasi_transitive(d4(), 4) == []

    def test_d4_not_2qt(self):
        vs = is_k_quasi_transitive(d4(), 2)
        assert [v.path for v in vs] == [(0, 1, 2), (0, 1, 3)]

    def test_cycle_is_kqt(self):
        for k in range(2, 7):
            assert is_k_quasi_transitive(cycle(k + 1), k) == []

    def test_chorded_path_is_kqt(self):
        for k in range(2, 7):
            assert is_k_quasi_transitive(chorded_path(k), k) == []

    def test_tournament_is_kqt_for_every_k(self):
        g = long_tournament(7)
        for k in range(2, 7):
            assert is_k_quasi_transitive(g, k) == []

    def test_violations_revalidate(self):
        g = path(6)
        vs = is_k_quasi_transitive(g, 2)
        assert vs and [v.path for v in vs] == bruteforce.sequence_violations(g, 2)
        assert all(v.u == v.path[0] and v.v == v.path[-1] for v in vs)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_batches_are_the_list_per_start_vertex(self, data):
        from strategies import digraphs

        g = data.draw(digraphs(max_n=9))
        k = data.draw(st.integers(2, 5))
        batches = list(violation_batches(g, k))
        assert all(batches)
        assert [v for batch in batches for v in batch] == is_k_quasi_transitive(g, k)
        starts = [batch[0].u for batch in batches]
        assert starts == sorted(set(starts))
        assert all(v.u == batch[0].u for batch in batches for v in batch)

    def test_batches_check_their_input_at_the_first_next(self):
        for g, k, error in ((d4(), 1, ValueError), (build(65, []), 2, InstanceTooLarge)):
            batches = violation_batches(g, k)
            with pytest.raises(error):
                next(batches)

    def test_cap(self, monkeypatch):
        # the cap is a constant: the environment variable that once moved
        # it is ignored
        monkeypatch.setenv("QK_ENUM_CAP", "100")
        g = build(65, [])
        calls = [
            lambda: is_k_quasi_transitive(g, 2),
            lambda: certify_qt(g, 2),
            lambda: qt_closure(g, 2),
            lambda: random_qt(65, 2, 0.5, 0),
        ]
        message = r"^instance with n=65 exceeds enumeration cap 64$"
        for call in calls:
            with pytest.raises(InstanceTooLarge, match=message):
                call()

    def test_leaves_no_cyclic_garbage(self):
        # a DFS nested in each recognition call once left a reference cycle
        # for the cyclic collector, 2,762 objects over these 20 calls
        graphs = [gnp(12, 0.2, seed) for seed in range(20)]
        gc.collect()
        gc.disable()
        try:
            for g in graphs:
                is_k_quasi_transitive(g, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_k_at_least_n_needs_no_search(self):
        # a k-arc path needs k + 1 distinct vertices
        for n in range(7):
            for seed in range(4):
                g = gnp(n, 0.6, seed)
                for k in range(max(n, 2), n + 3):
                    assert [v.path for v in is_k_quasi_transitive(g, k)] == []
                    assert bruteforce.sequence_violations(g, k) == []
                    assert certify_qt(g, k)
                    assert qt_closure(g, k) == g

    def test_k_at_least_n_is_fast_at_the_cap(self):
        # these once searched every path of the digraph: G(28, 0.12) at
        # k = 28 ran past 30 s, and at n = 64, k = 4096 certify_qt took 2.0 s
        # and random_qt 1.1 s
        g28, g64 = gnp(28, 0.12, 1), gnp(64, 0.1, 1)
        t0 = time.perf_counter()
        assert is_k_quasi_transitive(g28, 28) == []
        assert certify_qt(g64, 4096)
        # the closure adds nothing to the seed draw
        assert random_qt(64, 4096, 0.1, 1) == g64
        assert time.perf_counter() - t0 < 1.0

    @given(st.data())
    @settings(max_examples=60)
    def test_complete_against_sequence_scan(self, data):
        from strategies import digraphs

        g = data.draw(digraphs(max_n=6))
        k = data.draw(st.integers(min_value=2, max_value=4))
        got = [v.path for v in is_k_quasi_transitive(g, k)]
        assert got == bruteforce.sequence_violations(g, k)
        assert certify_qt(g, k) == (not got)

    @given(st.data())
    @settings(max_examples=40)
    def test_reverse_preserves_recognition(self, data):
        from strategies import digraphs

        g = data.draw(digraphs(max_n=6))
        k = data.draw(st.integers(min_value=2, max_value=3))
        assert (is_k_quasi_transitive(g, k) == []) == (
            is_k_quasi_transitive(reverse(g), k) == []
        )


def _near_semicomplete(n: int, deleted: int, seed: int):
    """A semicomplete digraph (each pair gets one arc or a digon) with
    `deleted` pairs left non-adjacent."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    gone = set(rng.sample(pairs, deleted))
    arcs = []
    for u, v in pairs:
        if (u, v) in gone:
            continue
        side = rng.random()
        if side < 0.8:
            arcs.append((u, v) if side < 0.4 else (v, u))
        else:
            arcs += [(u, v), (v, u)]
    return build(n, arcs)


def _with_universal_vertices(n: int, universal: int, seed: int):
    """A sparse digraph in which vertices 0..universal-1 are adjacent to
    every other vertex, so those starts have no non-neighbour."""
    rng = random.Random(seed)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if u < universal:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
            elif rng.random() < 0.3:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return build(n, arcs)


def _complete_without(n: int, cut_vertex_two: bool):
    """The complete digraph without the arcs between 0 and 1; with
    cut_vertex_two, also without the arcs between 0 and 2 and with no arc
    into 2."""
    gone = {(0, 1), (1, 0)}
    if cut_vertex_two:
        gone |= {(0, 2), (2, 0)} | {(u, 2) for u in range(n)}
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in gone])


class TestPrunedRecognition:
    """Inputs where most starts, or most branches, hold no witness."""

    @pytest.mark.parametrize("cut_vertex_two", [False, True])
    @pytest.mark.parametrize("n, k", [(12, 6), (16, 8), (20, 10), (64, 12)])
    def test_certify_stops_at_the_first_joined_pair(self, n, k, cut_vertex_two):
        # a search that took the first witness path instead of the first
        # joined pair entered vertex 1 as an intermediate while 2 was still
        # unused, and ran past 20 s on the second shape at n = 20, k = 10;
        # the pair scan answers each in a few milliseconds
        g = _complete_without(n, cut_vertex_two)
        t0 = time.perf_counter()
        assert not certify_qt(g, k)
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("k", range(2, 7))
    def test_near_semicomplete_matches_sequence_scan(self, k):
        fired = 0
        for seed in range(6):
            g = _near_semicomplete(8 - seed % 2, deleted=1 + seed % 3, seed=seed)
            got = [v.path for v in is_k_quasi_transitive(g, k)]
            assert got == bruteforce.sequence_violations(g, k)
            assert certify_qt(g, k) == (not got)
            fired += bool(got)
        assert fired

    @pytest.mark.parametrize("k", range(2, 7))
    def test_starts_without_non_neighbours_match_sequence_scan(self, k):
        fired = 0
        for seed in range(6):
            g = _with_universal_vertices(8 - seed % 3, universal=1 + seed % 2, seed=seed)
            assert all(g.adjacent(0, v) for v in range(1, g.n))
            got = [v.path for v in is_k_quasi_transitive(g, k)]
            assert got == bruteforce.sequence_violations(g, k)
            assert certify_qt(g, k) == (not got)
            fired += bool(got)
        assert fired


# SHA-256 of the edge lists of 150 seeded random_qt digraphs per k (orders
# 1..15, RANDOM and FORWARD).  Any change to the pair scan order, the
# adjacency the scan sees, the coin flips or the k-path query shows here.
# Recorded before the reachability screen; never re-record in passing.
CLOSURE_DIGESTS = {
    2: "6820503f0864980aa3f05da6ce72624fbc1abca0cd490db84303c27933dec560",
    3: "fb155fc080f3d7f4633197a4741f78237be1c030193c480fa831ccd552c1a9b9",
    4: "a9b237a65f8443fa8bcc8d499abd2eb5efa6e15ac853a087b67f823db7d9e94f",
    5: "334eae6c6df1fa3b69689ae501720ffd75ca99ab238667757965191ebd661e87",
    6: "a48bae090d863ebc08363ffd0f8d8b17986e8f66267655f7aec3a967eaed8624",
}


def _closure_corpus_digest(k: int) -> str:
    h = hashlib.sha256()
    for i in range(150):
        rng = random.Random(mix_seed(k, i))
        g = random_qt(
            n=1 + i % 15,
            k=k,
            arc_prob=rng.uniform(0.05, 0.5),
            seed=rng.getrandbits(64),
            rule=(RANDOM, FORWARD)[i // 15 % 2],
        )
        h.update(emit(g).encode("ascii"))
    return h.hexdigest()


class TestClosure:
    @pytest.mark.parametrize("k", sorted(CLOSURE_DIGESTS))
    def test_closure_pinned(self, k):
        assert _closure_corpus_digest(k) == CLOSURE_DIGESTS[k]

    def test_forward_path_example(self):
        g = qt_closure(path(3), 2, rule=FORWARD)
        assert sorted(g.arcs()) == [(0, 1), (0, 2), (1, 2)]

    def test_already_qt_unchanged(self):
        g = d4()
        assert qt_closure(g, 4, rule=RANDOM, seed=7) == g

    def test_empty_unchanged(self):
        g = build(5, [])
        assert qt_closure(g, 2) == g

    def test_monotone_and_certified(self):
        g = long_tournament(6)
        closed = qt_closure(g, 3, seed=1)
        assert set(g.arcs()) <= set(closed.arcs())
        assert is_k_quasi_transitive(closed, 3) == []

    def test_deterministic(self):
        base = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
        a = qt_closure(base, 2, rule=RANDOM, seed=42)
        b = qt_closure(base, 2, rule=RANDOM, seed=42)
        assert a == b

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_closure_reaches_fixpoint(self, data):
        from strategies import digraphs

        g = data.draw(digraphs(max_n=7))
        k = data.draw(st.integers(min_value=2, max_value=3))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        closed = qt_closure(g, k, rule=RANDOM, seed=seed)
        assert set(g.arcs()) <= set(closed.arcs())
        assert is_k_quasi_transitive(closed, k) == []

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_scan_oracle(self, data):
        from strategies import digraphs

        g = data.draw(digraphs(max_n=7))
        k = data.draw(st.integers(min_value=2, max_value=4))
        rule = data.draw(st.sampled_from([RANDOM, FORWARD]))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        assert qt_closure(g, k, rule, seed) == bruteforce.scan_closure(g, k, rule, seed)


class TestRandomQt:
    def test_prob_zero_empty(self):
        g = random_qt(n=6, k=2, arc_prob=0.0, seed=5)
        assert g.arc_count == 0

    def test_prob_one_complete(self):
        g = random_qt(n=5, k=3, arc_prob=1.0, seed=5)
        assert g == complete(5)

    def test_deterministic(self):
        assert random_qt(8, 2, 0.3, 123) == random_qt(8, 2, 0.3, 123)

    def test_negative_order_fails_before_drawing(self, monkeypatch):
        # with no generator to draw from, drawing would fail first; the
        # order once passed unchecked, and `qk gen` wrote the header "-3 0"
        monkeypatch.setattr(qt.random, "Random", None)
        with pytest.raises(ValueError, match=r"^vertex count must be >= 0$"):
            random_qt(-3, 2, 0.5, 0)

    def test_output_is_qt(self):
        for seed in range(5):
            g = random_qt(n=7, k=3, arc_prob=0.25, seed=seed)
            assert is_k_quasi_transitive(g, 3) == []

    def test_leaves_no_cyclic_garbage(self):
        # a DFS nested in each k-path query once left a reference cycle
        # for the cyclic collector, 14,442 objects over these 50 closures
        gc.collect()
        gc.disable()
        try:
            for seed in range(50):
                random_qt(12, 4, 0.2, seed)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_draws_arcs_u_major(self):
        # one coin per ordered pair u != v, u-major, then the closure seed
        for seed in range(20):
            n, k, p = 3 + seed % 9, 2 + seed % 4, 0.25
            rng = random.Random(seed)
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
            want = qt_closure(build(n, arcs), k, RANDOM, seed=rng.getrandbits(64))
            assert random_qt(n, k, p, seed) == want

    def test_keeps_the_predecessor_rows(self):
        # generated digraphs carry pred rows from the generator; they must
        # be the per-arc transpose of masks
        def check(d):
            pred = [0] * d.n
            for x, y in d.arcs():
                pred[y] |= 1 << x
            assert d.pred == tuple(pred)

        for seed in range(30):
            check(random_qt(2 + seed % 13, 2 + seed % 4, 0.2, seed))
            check(random_qt(2 + seed % 13, 2 + seed % 4, 0.2, seed, FORWARD))
        for k in (2, 3, 5):
            for seed in range(10):
                check(_long_diameter_instance(k, random.Random(seed), k + 3, 2 * k + 4, True))
        # closures that add no arc: no arcs drawn, all arcs drawn, or an
        # input that is already k-quasi-transitive
        check(random_qt(7, 2, 0.0, 1))
        check(random_qt(6, 3, 1.0, 1))
        check(qt_closure(cycle(3), 2, FORWARD))
        assert qt_closure(cycle(3), 2, FORWARD) == cycle(3)
        for n in (0, 1):
            check(random_qt(n, 2, 0.5, 3))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="^k must be >= 2$"):
            random_qt(n=4, k=1, arc_prob=0.5, seed=0)
        with pytest.raises(ValueError, match=r"^arc_prob must be in \[0, 1\]$"):
            random_qt(n=4, k=2, arc_prob=1.5, seed=0)
        with pytest.raises(ValueError, match="^unknown orientation rule 'SIDEWAYS'$"):
            random_qt(n=4, k=2, arc_prob=0.5, seed=0, rule="SIDEWAYS")
