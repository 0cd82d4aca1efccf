"""Recognition, k-path search and closure generation."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from instances import chorded_path, complete, cycle, d4, long_tournament, path
from qk import INF, InstanceTooLarge, build, reverse
from qk import qt
from qk.edgelist import emit
from qk.qt import (
    FORWARD,
    RANDOM,
    GenConfig,
    certify_qt,
    is_k_quasi_transitive,
    mix_seed,
    qt_closure,
    random_qt,
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

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("QK_ENUM_CAP", "3")
        with pytest.raises(InstanceTooLarge):
            is_k_quasi_transitive(d4(), 2)

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


class TestPrunedRecognition:
    """Inputs where most starts, or most branches, hold no witness."""

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
        cfg = GenConfig(
            n=1 + i % 15,
            k=k,
            arc_prob=rng.uniform(0.05, 0.5),
            seed=rng.getrandbits(64),
            orientation_rule=(RANDOM, FORWARD)[i // 15 % 2],
        )
        h.update(emit(random_qt(cfg)).encode("ascii"))
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
        g = random_qt(GenConfig(n=6, k=2, arc_prob=0.0, seed=5))
        assert g.arc_count == 0

    def test_prob_one_complete(self):
        g = random_qt(GenConfig(n=5, k=3, arc_prob=1.0, seed=5))
        assert g == complete(5)

    def test_deterministic(self):
        cfg = GenConfig(n=8, k=2, arc_prob=0.3, seed=123)
        assert random_qt(cfg) == random_qt(cfg)

    def test_output_is_qt(self):
        for seed in range(5):
            g = random_qt(GenConfig(n=7, k=3, arc_prob=0.25, seed=seed))
            assert is_k_quasi_transitive(g, 3) == []

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(n=4, k=1, arc_prob=0.5, seed=0)
        with pytest.raises(ValueError):
            GenConfig(n=4, k=2, arc_prob=1.5, seed=0)
        with pytest.raises(ValueError):
            GenConfig(n=4, k=2, arc_prob=0.5, seed=0, orientation_rule="SIDEWAYS")
