"""Release gate: eight end-to-end checks, one ACCEPTANCE line each.

Each test prints exactly one line

    ACCEPTANCE <n> <PASS|FAIL> — <summary>

straight to the terminal (bypassing capture) before asserting, so a plain
pytest run always shows the scoreboard.  Check 7 contains a clause that is
mathematically false of the fixture it names (the chorded path does have
k-kings); it is asserted as stated and expected to stay red — the companion
test underneath pins the true behavior.
"""

import json
import time

import pytest

from qk.checks import LEMMA_CHECKS, lemma_corpus, kings_corpus, run_checker
from qk.cli import main
from qk.edgelist import write_digraph
from qk.kernels import construct_kplus2_kernel, exhaustive_kernel_search, verify_kernel
from qk.digraph import distances_from
from qk.kings import all_r_kings, census, degree_threshold_vertices, find_kplus1_king_fast
from qk.qt import certify_qt

from instances import chorded_path, cycle, d4

K_RANGE = (2, 3, 4, 5, 6)


@pytest.fixture(scope="module")
def corpora():
    t0 = time.monotonic()
    data = {k: kings_corpus(k) for k in K_RANGE}
    return data, time.monotonic() - t0


def emit(capsys, n, ok, summary):
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} — {summary}")
    assert ok, summary


def test_1_flagship_census(capsys, tmp_path):
    f = tmp_path / "d4.edges"
    write_digraph(str(f), d4())
    t0 = time.monotonic()
    code = main(["kings", str(f), "--k", "4", "--census", "--json"])
    elapsed = time.monotonic() - t0
    doc = json.loads(capsys.readouterr().out)
    kings5 = doc["result"]["kings_by_radius"]["5"]
    deg_max = doc["result"]["max_out_degree_vertices"]
    ok = code == 0 and kings5 == [0] and deg_max == [1] and elapsed < 1.0
    emit(capsys, 1, ok,
         f"census: 5-kings={kings5}, out-degree max at {deg_max} "
         f"({elapsed:.2f}s < 1s)")


def test_2_king_existence_equivalence(capsys, corpora):
    corpus_by_k, build_s = corpora
    t0 = time.monotonic()
    exceptions = total = 0
    for k, corpus in corpus_by_k.items():
        assert len(corpus) >= 200
        for d in corpus:
            total += 1
            has_king = bool(all_r_kings(d, k + 1))
            unique = d.cond.initial_component is not None
            exceptions += has_king != unique
    elapsed = build_s + time.monotonic() - t0
    ok = exceptions == 0 and elapsed < 60.0
    emit(capsys, 2, ok,
         f"(k+1)-king exists iff unique initial component on {total} instances, "
         f"{exceptions} exceptions ({elapsed:.1f}s < 60s)")


def test_3_fast_finder_soundness(capsys, corpora):
    corpus_by_k, _ = corpora
    eligible = verified = thr_total = thr_kings = 0
    for k, corpus in corpus_by_k.items():
        for d in corpus:
            if d.cond.initial_component is not None:
                eligible += 1
                v = find_kplus1_king_fast(d, k)  # raises if BFS refutes it
                verified += v is not None and max(distances_from(d, v)) <= k + 1
            for v in degree_threshold_vertices(d, k):
                thr_total += 1
                thr_kings += max(distances_from(d, v)) <= k + 1
    ok = verified == eligible and thr_kings == thr_total
    emit(capsys, 3, ok,
         f"fast finder verified on {verified}/{eligible} unique-initial instances; "
         f"{thr_kings}/{thr_total} threshold vertices confirmed (k+1)-kings")


def test_4_structural_checker_suite(capsys):
    t0 = time.monotonic()
    violations = 0
    min_fire, min_at = 1.0, ""
    for k in K_RANGE:
        corpus = lemma_corpus(k, trials=60, base_seed=1789)
        for check_id in LEMMA_CHECKS:
            res = run_checker(check_id, k, corpus)
            violations += len(res.violations)
            if res.fire_fraction < min_fire:
                min_fire, min_at = res.fire_fraction, f"{check_id} k={k}"
    elapsed = time.monotonic() - t0
    ok = violations == 0 and min_fire >= 0.05 and elapsed < 300.0
    emit(capsys, 4, ok,
         f"five structural checkers over {len(K_RANGE)}x60 instances: "
         f"{violations} violations, min fire {min_fire:.0%} at {min_at} "
         f"({elapsed:.1f}s < 300s)")


def test_5_counting_audits(capsys, corpora):
    corpus_by_k, _ = corpora
    failures = total = evaluated = 0
    for k, corpus in corpus_by_k.items():
        for d in corpus:
            total += 1
            failures += len(census(d, k).failed_audits)
            comp = d.cond.initial_component
            if comp is None:
                continue
            evaluated += 1
            c = len(comp)
            if c <= k:
                failures += len(all_r_kings(d, k - 1)) != c
            if c == k + 1:
                failures += len(all_r_kings(d, k)) != k + 1
            if c >= k + 2 and (k % 2 == 0 or k >= 5) and k >= 4:
                failures += len(all_r_kings(d, k + 1)) < k + 2
            if k == 2 and c >= 4:
                failures += len(all_r_kings(d, 3)) < 4
            if k == 2 and not all_r_kings(d, 2):
                failures += len(all_r_kings(d, 3)) < 7
    ok = failures == 0
    emit(capsys, 5, ok,
         f"counting audits: {failures} failures on {total} instances "
         f"({evaluated} with unique initial component)")


def test_6_kernel_construction(capsys, corpora):
    corpus_by_k, _ = corpora
    passed = total = 0
    for k, corpus in corpus_by_k.items():
        for d in corpus:
            total += 1
            s = construct_kplus2_kernel(d, k).candidate
            passed += verify_kernel(d, s, k + 2, k + 1).verified
    ok = passed == total
    emit(capsys, 6, ok,
         f"constructed (k+2,k+1)-kernels verified on {passed}/{total} instances, k=2..6")


def test_7_sharpness_fixtures(capsys):
    clean = True
    king_sets = {}
    for k in K_RANGE:
        cyc = cycle(k + 1)
        clean &= certify_qt(cyc, k)
        clean &= exhaustive_kernel_search(cyc, k, k - 1) is None
        clean &= len(census(cyc, k).kings_by_radius[k]) == k + 1
        ch = chorded_path(k)
        clean &= verify_kernel(ch, (0, k + 1), k + 1, k).verified
        king_sets[k] = all_r_kings(ch, k)
    no_k_king = all(not kings for kings in king_sets.values())
    ok = clean and no_k_king
    emit(capsys, 7, ok,
         "cycle and kernel sharpness hold for k=2..6, but the chorded path "
         f"has k-kings (k=2: {king_sets[2]}) so its 'no k-king' clause is false"
         if clean and not no_k_king else
         f"sharpness fixtures: clauses hold={clean}, no-k-king={no_k_king}")


def test_7_companion_chorded_path_actual_kings(capsys):
    # the true sharpness facts: k-kings exist, a k-kernel does not
    for k in K_RANGE:
        ch = chorded_path(k)
        assert all_r_kings(ch, k), f"k={k}"
        assert exhaustive_kernel_search(ch, k, k - 1) is None, f"k={k}"
    assert all_r_kings(chorded_path(2), 2) == (1, 2)


def test_8_conjecture_hunt(capsys):
    t0 = time.monotonic()
    ok = True
    details = []
    for k in (2, 3, 4, 5):
        code = main(["hunt", "--k", str(k), "--trials", "500", "--n-max", "9",
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        found = len(doc["result"]["counterexamples"])
        ok &= code == 0 and found == 0 and doc["result"]["trials"] == 500
        details.append(f"k={k}:{found}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600.0
    emit(capsys, 8, ok,
         f"hunt 500 trials each, counterexamples {' '.join(details)}, "
         f"exit 0 ({elapsed:.1f}s < 600s)")
