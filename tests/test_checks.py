"""Checker layer: each structural fact must fail loudly on adversarial
input and hold silently on everything the generator produces.

The violation fixtures are directed paths and small handmade digraphs that
are deliberately NOT k-quasi-transitive: the checkers are pure functions of
(digraph, k), so feeding them out-of-class input is the cheapest way to
prove they can actually catch a false claim.  All expected witnesses below
are hand-derived from the distance matrices.
"""

import hashlib
import json
import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import chorded_path, complete, cycle, d4, long_tournament, path, two_cycles
from json_oracle import jsonable
import qk.digraph
from qk import INF, build
from qk.checks import (
    CHECKERS,
    KING_CHECKS,
    LEMMA_CHECKS,
    kings_corpus,
    lemma_corpus,
    revalidate,
    run_checker,
    run_suite,
    summarize,
)
from qk.edgelist import emit
from qk.kings import census, find_kplus1_king_fast
from qk.qt import certify_qt, random_qt


def clauses(findings):
    return sorted({clause for clause, _, _ in findings})


def pairs(findings):
    return [(clause, witness) for clause, witness, _ in findings]


class TestDistanceDichotomy:
    def test_path_violations(self):
        # path(5), k=2: every forward pair at distance >= 2 has no way back
        fired, vs = CHECKERS["distance-dichotomy"](path(5), 2)
        assert fired
        assert pairs(vs) == [
            ("back=1", (0, 2, 2, INF)),
            ("back<=k+1", (0, 3, 3, INF)),
            ("back=1", (0, 4, 4, INF)),
            ("back=1", (1, 3, 2, INF)),
            ("back<=k+1", (1, 4, 3, INF)),
            ("back=1", (2, 4, 2, INF)),
        ]

    def test_odd_k_deep_even_distance_clause(self):
        # k=3: d(0,6)=6 is >= k+3 and even, so the answer must be <= 2
        fired, vs = CHECKERS["distance-dichotomy"](path(7), 3)
        assert fired
        assert ("back<=2", (0, 6, 6, INF)) in pairs(vs)

    def test_clean_on_chorded_path(self):
        fired, vs = CHECKERS["distance-dichotomy"](chorded_path(2), 2)
        assert fired and vs == []

    def test_clean_on_boundary_cycle(self):
        # cycle(4) is 3-quasi-transitive; its antipodal pairs sit at d = k
        fired, vs = CHECKERS["distance-dichotomy"](cycle(4), 3)
        assert fired and vs == []

    def test_vacuous_below_k(self):
        fired, vs = CHECKERS["distance-dichotomy"](complete(4), 3)
        assert not fired and vs == []


class TestComponentDomination:
    def test_path_violations(self):
        fired, vs = CHECKERS["component-domination"](path(5), 2)
        assert fired
        assert clauses(vs) == ["cross-distance"]
        assert [witness for _, witness, _ in vs] == [
            (0, 2, 2),
            (0, 3, 3),
            (0, 4, 4),
            (1, 3, 2),
            (1, 4, 3),
            (2, 4, 2),
        ]

    def test_unreachable_components_do_not_fire(self):
        fired, vs = CHECKERS["component-domination"](two_cycles(), 2)
        assert not fired and vs == []

    def test_clean_on_dominated_sink(self):
        # semicomplete: a 3-cycle where every vertex also hits a sink
        d = build(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
        fired, vs = CHECKERS["component-domination"](d, 2)
        assert fired and vs == []


class TestMinPathDomination:
    def test_even_k_violations(self):
        # path(5), k=2: pair (0,4) at distance 4 = k+2; vertex 4 dominates
        # nothing, and the penultimate vertex 3 dominates nothing either
        fired, vs = CHECKERS["min-path-domination"](path(5), 2)
        assert fired
        assert pairs(vs) == [
            ("endpoint-backarc-all-offsets", (0, 4, 2, 0)),
            ("endpoint-backarc-all-offsets", (0, 4, 1, 1)),
            ("endpoint-backarc-all-offsets", (0, 4, 0, 2)),
            ("endpoint-dominates-ball", (0, 4, 0, 0)),
            ("endpoint-dominates-ball", (0, 4, 1, 1)),
            ("endpoint-dominates-ball", (0, 4, 2, 2)),
            ("penultimate-backarc-even-offsets", (0, 4, 3, 0, 2)),
        ]

    def test_odd_k_violations(self):
        fired, vs = CHECKERS["min-path-domination"](path(6), 3)
        assert fired
        assert pairs(vs) == [
            ("endpoint-backarc-odd-offsets", (0, 5, 2, 1)),
            ("endpoint-backarc-odd-offsets", (0, 5, 0, 3)),
            ("endpoint-dominates-even-ball", (0, 5, 0, 0)),
            ("endpoint-dominates-even-ball", (0, 5, 2, 2)),
            ("penultimate-backarc-even-offsets", (0, 5, 4, 1, 2)),
        ]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_clean_and_fired_on_long_tournament(self, k):
        fired, vs = CHECKERS["min-path-domination"](long_tournament(k + 3), k)
        assert fired and vs == []

    def test_vacuous_without_deep_pair(self):
        fired, vs = CHECKERS["min-path-domination"](chorded_path(2), 2)
        assert not fired and vs == []


class TestDegreeGrowth:
    def test_even_k_endpoint_clause(self):
        fired, vs = CHECKERS["degree-growth"](path(5), 2)
        assert fired
        assert pairs(vs) == [("endpoint-degree", (0, 4, 1, 0))]

    def test_odd_k_penultimate_clause(self):
        fired, vs = CHECKERS["degree-growth"](path(6), 3)
        assert fired
        assert pairs(vs) == [("penultimate-degree", (0, 5, 4, 1, 1))]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_clean_and_fired_on_long_tournament(self, k):
        fired, vs = CHECKERS["degree-growth"](long_tournament(k + 3), k)
        assert fired and vs == []


class TestKingTheorems:
    def test_distant_target_clause(self):
        # path(5), k=2: 0 is a 4-king, its distance-4 target 4 reaches nothing
        fired, vs = CHECKERS["king-theorems"](path(5), 2)
        assert fired
        assert pairs(vs) == [("distant-target-small-king", (0, 4, INF))]

    def test_propagation_clause(self):
        # 0 is a 3-king (chain to 3 plus a shortcut leaf), but the vertex at
        # distance exactly 3 is a sink of the chain: not a 3-king
        d = build(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        fired, vs = CHECKERS["king-theorems"](d, 2)
        assert fired
        assert pairs(vs) == [("king-propagation", (0, 3, INF))]

    def test_max_degree_clause(self):
        # 0 is a 2-king; 1 ties the maximum out-degree yet reaches nothing
        # beyond its private leaves
        d = build(7, [(0, 1), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4)])
        fired, vs = CHECKERS["king-theorems"](d, 2)
        assert fired
        assert pairs(vs) == [("max-degree-three-king", (1, 3, INF))]

    def test_deep_path_breaks_unique_component_clauses(self):
        fired, vs = CHECKERS["king-theorems"](path(7), 4)
        assert fired
        assert clauses(vs) == [
            "demoted-king-two-king",
            "distant-target-small-king",
            "final-disjunction",
            "king-triple",
        ]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_clean_and_fired_on_long_tournament(self, k):
        fired, vs = CHECKERS["king-theorems"](long_tournament(k + 3), k)
        assert fired and vs == []


class TestKingSideCheckers:
    def test_unique_initial_equivalence_violation(self):
        # path(6) has a unique initial component but no 3-king
        fired, vs = CHECKERS["unique-initial-equivalence"](path(6), 2)
        assert fired
        assert pairs(vs) == [("existence-iff-unique-initial", ((), True))]

    def test_unique_initial_agrees_on_two_cycles(self):
        fired, vs = CHECKERS["unique-initial-equivalence"](two_cycles(), 2)
        assert fired and vs == []

    def test_degree_threshold_violations(self):
        fired, vs = CHECKERS["degree-threshold-kings"](path(6), 2)
        assert fired
        assert pairs(vs) == [
            ("threshold-vertex-is-king", (0, 5)),
            ("finder-rejected-input", ()),
        ]

    def test_degree_threshold_skips_multiple_initial(self):
        fired, vs = CHECKERS["degree-threshold-kings"](two_cycles(), 2)
        assert not fired and vs == []

    def test_census_audit_violations(self):
        fired, vs = CHECKERS["census-audits"](path(6), 2)
        assert fired
        assert clauses(vs) == [
            "degree-max-king",
            "quasi-transitive-seven",
            "small-component-exact",
        ]

    def test_kernel_construction_rejects_path(self):
        fired, vs = CHECKERS["kernel-construction"](path(6), 2)
        assert fired
        assert pairs(vs) == [("construction-rejected", ())]

    @pytest.mark.parametrize("check_id", KING_CHECKS)
    def test_clean_on_qt_fixtures(self, check_id):
        for d, k in [(d4(), 4), (chorded_path(2), 2), (two_cycles(), 2)]:
            fired, vs = CHECKERS[check_id](d, k)
            assert vs == []


# (check_id, k, reporting instance, an instance where the claim holds)
REVALIDATE_CASES = [
    ("distance-dichotomy", 2, path(5), chorded_path(2)),
    ("component-domination", 2, path(5), chorded_path(2)),
    ("min-path-domination", 2, path(5), long_tournament(5)),
    ("degree-growth", 2, path(5), long_tournament(5)),
    ("king-theorems", 2, build(5, [(0, 1), (1, 2), (2, 3), (0, 4)]), complete(5)),
    ("unique-initial-equivalence", 2, path(6), two_cycles()),
    ("degree-threshold-kings", 2, path(6), chorded_path(2)),
    ("census-audits", 2, path(6), chorded_path(2)),
    ("kernel-construction", 2, path(6), chorded_path(2)),
]


class TestRevalidate:
    def test_round_trip_on_reporting_instance(self):
        vs = run_checker("distance-dichotomy", 2, [path(5)]).violations
        assert vs
        assert all(revalidate(path(5), v) for v in vs)

    def test_rejects_on_fixed_instance(self):
        vs = run_checker("distance-dichotomy", 2, [path(5)]).violations
        assert not any(revalidate(chorded_path(2), v) for v in vs)

    def test_king_clause_round_trip(self):
        d = build(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        vs = run_checker("king-theorems", 2, [d]).violations
        assert revalidate(d, vs[0])
        assert not revalidate(complete(5), vs[0])

    @pytest.mark.parametrize(
        "check_id, k, bad, good", REVALIDATE_CASES, ids=[case[0] for case in REVALIDATE_CASES]
    )
    def test_round_trip_every_checker(self, check_id, k, bad, good):
        result = run_checker(check_id, k, [good, bad])
        assert result.violations
        for v in result.violations:
            assert (v.check_id, v.k, v.instance) == (check_id, k, 1)
            assert revalidate(bad, v)
            assert not revalidate(good, v)

    def test_covers_every_checker(self):
        assert sorted(case[0] for case in REVALIDATE_CASES) == sorted(CHECKERS)


class TestRunChecker:
    def test_instance_tagging_and_accounting(self):
        result = run_checker("distance-dichotomy", 2, [chorded_path(2), path(5)])
        assert result.instances_checked == 2
        assert result.fired == 2
        assert len(result.violations) == 6
        assert {v.instance for v in result.violations} == {1}
        assert result.fire_fraction == 1.0
        assert not result.passed

    def test_empty_corpus(self):
        result = run_checker("king-theorems", 3, [])
        assert result.instances_checked == 0
        assert result.fired == 0
        assert result.fire_fraction == 0.0
        assert result.passed


# SHA-256 over json.dumps(jsonable(run_checker(...)), sort_keys=True) of
# each checker on RECORD_CORPORA (k -> corpus, in this order), with the
# number of violation records.  Recorded before the checkers stopped
# building their own Violation records, so the JSON form of every record
# (clause, witness, detail, instance) stays pinned.
RECORD_CORPORA = {
    2: lambda: [path(5), path(6), build(5, [(0, 1), (1, 2), (2, 3), (0, 4)])],
    3: lambda: [path(7)],
    4: lambda: [path(7)],
}
RECORD_DIGESTS = {
    "distance-dichotomy": ("1b022b82e269fe349ae3eb87a38afd25c9027f89636fe0184f51de9e2095b618", 35),
    "component-domination": ("4c389fb475100df93e4dbb8ff05e0cea1ef96c72f6f5d5264bbd8ed5bec8e73e", 35),
    "min-path-domination": ("ec3b6e7c427b64840a6cc7df01bdbad71d2110e6bba9b462dae3685f1f3b3ed5", 43),
    "degree-growth": ("56fb271e5cb6c0cd8c3157b8faec52b97132f0b29432968b2ee5105e32860707", 6),
    "king-theorems": ("29de4948e43f7dd7748da0aa2d89bac4bf9261ca1b9372fa0d28d1ebefbca182", 8),
    "unique-initial-equivalence": ("4bde55e6b218995fee075434ae8a3fe113d812e269595b28a173aeaf55ad2320", 4),
    "degree-threshold-kings": ("30166fa621df706a035fe54d7114302dffb9af1bf54cb35440e9a1acd816d47f", 8),
    "census-audits": ("5ec4f53dff35ca2c5f0be128b6eaf65ea96e7765dfb2f6592371226130729b26", 14),
    "kernel-construction": ("2d1ade4a81b0e865385851122bf639dd251274a59d91452e82c791b28e5888f7", 4),
}


class TestViolationRecords:
    @pytest.mark.parametrize("check_id", list(CHECKERS))
    def test_record_json_pinned(self, check_id):
        h = hashlib.sha256()
        count = 0
        for k, corpus in RECORD_CORPORA.items():
            doc = jsonable(run_checker(check_id, k, corpus()))
            count += len(doc["violations"])
            h.update(json.dumps(doc, sort_keys=True).encode("ascii"))
        assert (h.hexdigest(), count) == RECORD_DIGESTS[check_id]

    def test_digests_cover_every_checker(self):
        assert sorted(RECORD_DIGESTS) == sorted(CHECKERS)
        assert all(count > 0 for _, count in RECORD_DIGESTS.values())


# SHA-256 over the canonical edge lists of kings_corpus(k, trials=40), then
# of lemma_corpus(k, trials=12).  The RANDOM closure rule draws its coin
# flips in pair-scan order, so a change to the scan order, the coin flips or
# the generator shows here first.  Such a change alters every corpus the
# checkers and the benchmark run on: log it, never re-record in passing.
CORPUS_DIGESTS = {
    2: (
        "e1b5d48a499220d143d634f8f247384bb0863ed6ae22edca9e11e15be23b864c",
        "751a765752bd92026131b511f0aa663ddcd2466a0e6d06863250c0c06bf34d1d",
    ),
    3: (
        "204086ab60a027b68ab5ea585f46afed36bc77e54d0e42a2659555c7f90af7a6",
        "c8bd014edbab81c8a0a27e38a8322bab56ec2739ed6d28d1bf147c5303baeb30",
    ),
    4: (
        "af8dbde3273b29f370a9adbc3fea168f08bd28e3cff3446b17474a254f8388bc",
        "9043421b5e2186aafcf24a5137157a2e2002110022b0680add6ce1b97256b1c6",
    ),
}


def _corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for d in corpus:
        h.update(emit(d).encode("ascii"))
    return h.hexdigest()


class TestCorpora:
    @pytest.mark.parametrize("k", sorted(CORPUS_DIGESTS))
    def test_corpus_content_pinned(self, k):
        kings_digest = _corpus_digest(kings_corpus(k, trials=40))
        lemma_digest = _corpus_digest(lemma_corpus(k, trials=12))
        assert (kings_digest, lemma_digest) == CORPUS_DIGESTS[k]

    def test_lemma_corpus_deterministic(self):
        assert lemma_corpus(3, trials=9, base_seed=5) == lemma_corpus(3, trials=9, base_seed=5)
        assert lemma_corpus(3, trials=9, base_seed=5) != lemma_corpus(3, trials=9, base_seed=6)

    def test_kings_corpus_deterministic(self):
        assert kings_corpus(3, trials=12) == kings_corpus(3, trials=12)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_lemma_corpus_in_class_and_sized(self, k):
        corpus = lemma_corpus(k, trials=12)
        assert len(corpus) == 12
        for d in corpus:
            assert certify_qt(d, k)
            assert k + 3 <= d.n <= 2 * k + 10

    @pytest.mark.parametrize("k", [2, 5])
    def test_kings_corpus_in_class(self, k):
        corpus = kings_corpus(k, trials=20)
        assert len(corpus) == 20
        for d in corpus:
            assert certify_qt(d, k)
            assert 2 <= d.n <= 10

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_lemma_corpus_arms_every_checker(self, k):
        # the screening targets guarantee each fact is exercised even on a
        # 12-instance corpus; the full-size rate gate lives in acceptance
        corpus = lemma_corpus(k, trials=12)
        for check_id in LEMMA_CHECKS:
            result = run_checker(check_id, k, corpus)
            assert result.fired >= 1, check_id
            assert result.passed, result.violations


class TestRunSuite:
    def test_smoke(self):
        results = run_suite(k_values=(2, 3), kings_trials=40, lemma_trials=12)
        assert len(results) == 2 * (len(LEMMA_CHECKS) + len(KING_CHECKS))
        assert [r.check_id for r in results[:5]] == list(LEMMA_CHECKS)
        assert all(r.passed for r in results)
        assert all(r.fired >= 1 for r in results)

    def test_summarize_shape(self):
        results = run_suite(k_values=(2,), kings_trials=20, lemma_trials=6)
        text = summarize(results)
        lines = text.splitlines()
        assert len(lines) == len(results)
        assert all("ok" in line for line in lines)
        assert lines[0].startswith("distance-dichotomy")


class TestAnalysedOnce:
    """However many checkers read an instance, its distance matrix and its
    strong components are computed once (they live on the Digraph)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count calls per digraph of the three analysis functions, patched
        on every qk module that binds them."""
        counts = {}
        held = []  # keeps counted digraphs alive so that their ids stay distinct
        modules = [m for key, m in sys.modules.items() if key == "qk" or key.startswith("qk.")]
        for name in ("distance_matrix", "strong_components", "distances_from"):
            fn = getattr(qk.digraph, name)
            counter = counts[name] = Counter()

            def counted(d, *args, _fn=fn, _counter=counter):
                held.append(d)
                _counter[id(d)] += 1
                return _fn(d, *args)

            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted)
        return counts

    def test_every_checker_on_both_corpora(self, calls):
        for k in (2, 3):
            lemmas = lemma_corpus(k, trials=12)
            kings = kings_corpus(k, trials=40)
            for check_id in LEMMA_CHECKS:
                run_checker(check_id, k, lemmas)
            for check_id in KING_CHECKS:
                run_checker(check_id, k, kings)
        assert calls["distance_matrix"] and calls["strong_components"]
        assert max(calls["distance_matrix"].values()) == 1
        assert max(calls["strong_components"].values()) == 1

    def test_fast_finder_runs_one_bfs(self, calls):
        assert find_kplus1_king_fast(long_tournament(40), 2) is not None
        assert sum(calls["distances_from"].values()) == 1

    def test_census_builds_no_matrix(self, calls):
        census(long_tournament(40), 2)
        assert not calls["distance_matrix"]
        assert sum(calls["distances_from"].values()) == 40


class TestGeneratedConsistency:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_checker_clean_on_generated_input(self, k, seed):
        d = random_qt(n=8, k=k, arc_prob=0.2, seed=seed)
        for check_id, fn in CHECKERS.items():
            fired, vs = fn(d, k)
            assert vs == [], (check_id, vs)
