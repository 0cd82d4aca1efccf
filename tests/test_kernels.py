"""Kernel verification, construction, exhaustive search, and the hunt."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings

import bruteforce
from instances import chorded_path, complete, cycle, d4, long_tournament, path, two_cycles
from json_oracle import jsonable
from qk import build
from qk.errors import InstanceTooLarge, NotQuasiTransitiveInput, VertexOutOfRange
from qk import kernels
from qk.kernels import (
    Counterexample,
    _combinations_kernel,
    _kernel_tables,
    _terminal_pick,
    construct_kplus2_kernel,
    exhaustive_kernel_search,
    hunt_conjecture,
    min_kernel_size,
    recheck_counterexample,
    verify_kernel,
)
from qk.digraph import reverse, strong_components
from qk.qt import random_qt
from strategies import digraphs


class TestVerifyKernel:
    def test_chorded_path_endpoints(self):
        cert = verify_kernel(chorded_path(2), [0, 3], 3, 2)
        assert cert.verified and cert.status == "VERIFIED"
        assert cert.witness is None

    def test_independence_witness(self):
        # d(0, 3) = 3 < 4, reported as the first failing ordered pair
        cert = verify_kernel(chorded_path(2), [0, 3], 4, 3)
        assert not cert.independent and cert.absorbent
        assert cert.witness == (0, 3)

    def test_absorbency_witness(self):
        # {3} absorbs nothing within 1 except 2
        cert = verify_kernel(d4(), [3], 2, 1)
        assert cert.independent and not cert.absorbent
        assert cert.witness == 0

    def test_empty_candidate(self):
        cert = verify_kernel(d4(), [], 2, 1)
        assert cert.independent and not cert.absorbent
        assert cert.witness == 0

    def test_full_vertex_set(self):
        cert = verify_kernel(complete(3), range(3), 1, 1)
        assert cert.verified

    def test_candidate_deduped_and_sorted(self):
        cert = verify_kernel(d4(), [2, 0, 2], 2, 1)
        assert cert.candidate == (0, 2)

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            verify_kernel(d4(), [5], 2, 1)

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            verify_kernel(d4(), [0], 0, 1)

    def test_stops_at_the_first_dependent_pair(self, monkeypatch):
        # 0 -> 1 is an arc, so the first member's row holds the witness;
        # computing every member's row first took 1,000 BFS here
        calls = []
        real = kernels.distances_from

        def counted(d, v):
            calls.append(v)
            return real(d, v)

        monkeypatch.setattr(kernels, "distances_from", counted)
        cert = verify_kernel(long_tournament(1000), range(1000), 3, 2)
        assert (cert.independent, cert.witness) == (False, (0, 1))
        assert calls == [0]

    @given(digraphs(max_n=6))
    @settings(deadline=None)
    def test_matches_bruteforce_on_all_subsets(self, d):
        import itertools

        dist = bruteforce.floyd_distances(d)
        for k, l in ((2, 1), (3, 2), (1, 3)):
            for size in range(min(d.n, 3) + 1):
                for comb in itertools.combinations(range(d.n), size):
                    cert = verify_kernel(d, comb, k, l)
                    # the first failing ordered pair, then the first unabsorbed outsider
                    close = [(u, v) for u, v in itertools.permutations(comb, 2) if dist[u][v] < k]
                    stray = [z for z in range(d.n) if z not in comb and all(dist[z][v] > l for v in comb)]
                    assert cert.independent == (not close)
                    assert cert.absorbent == (not stray)
                    assert cert.witness == (close or stray or [None])[0]
                    assert cert.verified == bruteforce.is_kernel(d, comb, k, l)


class TestConstruct:
    def test_chorded_path(self):
        assert construct_kplus2_kernel(chorded_path(2), 2).candidate == (1,)
        assert construct_kplus2_kernel(chorded_path(3), 3).candidate == (1,)

    def test_one_pick_per_reversed_initial_component(self):
        assert construct_kplus2_kernel(two_cycles(), 2).candidate == (0, 2)

    def test_four_vertex_instance(self):
        cert = construct_kplus2_kernel(d4(), 4)
        assert cert.verified and (cert.k, cert.l) == (6, 5)
        assert verify_kernel(d4(), cert.candidate, 6, 5) == cert

    def test_rejects_non_quasi_transitive(self):
        with pytest.raises(NotQuasiTransitiveInput):
            construct_kplus2_kernel(path(6), 2)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            construct_kplus2_kernel(d4(), 1)

    def test_empty(self):
        assert construct_kplus2_kernel(build(0, []), 2).candidate == ()

    def test_generated_instances(self):
        for k in (2, 3, 4, 5):
            for seed in range(20):
                d = random_qt(n=8, k=k, arc_prob=0.25, seed=seed)
                s = construct_kplus2_kernel(d, k).candidate
                assert verify_kernel(d, s, k + 2, k + 1).verified
                cond = strong_components(reverse(d))
                assert len(s) == len(cond.initial)


def _seeded_qt(count, n_max, seed):
    """count seeded (k, random k-quasi-transitive digraph) pairs, orders in
    [1, n_max], k in 2..5, expected degree 0.3..3."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        k = rng.randint(2, 5)
        p = min(1.0, rng.uniform(0.3, 3.0) / n)
        yield k, random_qt(n, k, p, rng.getrandbits(64))


class TestExhaustiveSearch:
    def test_four_vertex_instance(self):
        assert exhaustive_kernel_search(d4(), 2, 1) == (0, 2)

    def test_cycle_has_no_tight_kernel(self):
        # the (k+1)-cycle separates the radius pairs: no (k, k-1)-kernel,
        # but {0} is a (k+1, k)-kernel
        for k in (2, 3, 4, 5):
            c = cycle(k + 1)
            assert exhaustive_kernel_search(c, k, k - 1) is None
            assert exhaustive_kernel_search(c, k + 1, k) == (0,)

    def test_cap(self):
        message = "^instance with n=21 exceeds subset kernel search cap 20$"
        with pytest.raises(InstanceTooLarge, match=message):
            exhaustive_kernel_search(complete(21), 2, 1)

    def test_empty_digraph(self):
        assert exhaustive_kernel_search(build(0, []), 2, 1) == ()

    @given(digraphs(max_n=6))
    @settings(deadline=None)
    def test_matches_powerset_oracle(self, d):
        for k, l in ((2, 1), (3, 2)):
            assert exhaustive_kernel_search(d, k, l) == bruteforce.powerset_kernel(
                d, k, l
            )

    def test_matches_plain_scan_on_generated_input(self):
        # the pruned search against the unpruned combinations scan that
        # rechecks hunt hits, on orders up to 15 and six radius pairs
        seen_none = seen_multi = 0
        for k, d in _seeded_qt(120, 15, seed=7):
            for radii in ((k + 1, k), (k, k), (2, 1), (k + 2, k + 1), (1, 1), (5, 1)):
                kernel = exhaustive_kernel_search(d, *radii)
                assert kernel == _combinations_kernel(d, *radii), (d.n, k, radii)
                seen_none += kernel is None
                seen_multi += kernel is not None and len(kernel) > 1
        assert seen_none >= 50 and seen_multi >= 200

    def test_matches_powerset_oracle_on_generated_input(self):
        for k, d in _seeded_qt(60, 9, seed=8):
            for radii in ((k + 1, k), (2, 1), (1, 1)):
                assert exhaustive_kernel_search(d, *radii) == bruteforce.powerset_kernel(
                    d, *radii
                )

    def test_tables_match_floyd_distances(self):
        for k, d in _seeded_qt(40, 10, seed=9):
            dist = bruteforce.floyd_distances(d)
            absorb, later = _kernel_tables(d, k, k - 1)
            for u in range(d.n):
                assert absorb[u] == sum(
                    1 << z for z in range(d.n) if dist[z][u] <= k - 1
                )
                assert later[u] == sum(
                    1 << v
                    for v in range(u + 1, d.n)
                    if dist[u][v] >= k and dist[v][u] >= k
                )

    def test_long_cycles(self):
        # on a directed cycle, consecutive members of a (3, l)-kernel sit at
        # least 3 and at most l + 1 steps apart: none exists when l = 1, and
        # when l = 2 only on cycles whose length 3 divides
        assert exhaustive_kernel_search(cycle(20), 3, 1) is None
        assert exhaustive_kernel_search(cycle(20), 3, 2) is None
        assert exhaustive_kernel_search(cycle(18), 3, 2) == (0, 3, 6, 9, 12, 15)

    def test_hunt_hits_are_kernel_free(self):
        led = hunt_conjecture(2, trials=20, n_max=8, base_seed=0, radii=(5, 1))
        assert led.counterexamples
        for ce in led.counterexamples:
            d = build(ce.n, list(ce.arcs))
            assert exhaustive_kernel_search(d, 5, 1) is None
            assert _combinations_kernel(d, 5, 1) is None

    @given(digraphs(max_n=7))
    @settings(deadline=None)
    def test_result_verifies(self, d):
        s = exhaustive_kernel_search(d, 3, 2)
        if s is not None:
            assert verify_kernel(d, s, 3, 2).verified


def _size(kernel):
    return None if kernel is None else len(kernel)


class TestMinKernelSize:
    @given(digraphs(max_n=6))
    @settings(deadline=None)
    def test_matches_powerset_oracle(self, d):
        # the pick reaches across no terminal component, so it is
        # independent at every radius
        assert verify_kernel(d, _terminal_pick(d), d.n + 1, 1).independent
        for k, l in ((2, 1), (3, 2), (5, 1)):
            assert min_kernel_size(d, k, l) == _size(bruteforce.powerset_kernel(d, k, l))

    def test_matches_search_on_generated_input(self, monkeypatch):
        fallbacks = []

        def counted(d, k, l):
            fallbacks.append((d.n, k, l))
            return exhaustive_kernel_search(d, k, l)

        monkeypatch.setattr(kernels, "exhaustive_kernel_search", counted)
        settled = 0
        for k, d in _seeded_qt(120, 15, seed=7):
            for radii in ((k + 1, k), (k, k), (2, 1), (k + 2, k + 1), (1, 1), (5, 1)):
                before = len(fallbacks)
                size = min_kernel_size(d, *radii)
                assert size == _size(exhaustive_kernel_search(d, *radii)), (d.n, k, radii)
                settled += len(fallbacks) == before
        assert fallbacks and settled >= 300

    def test_kernel_free_input(self):
        # the 3-cycle has no (2, 1)-kernel, and its pick {0} is 2 arcs
        # from 1, so the answer comes from the fallback search
        assert _terminal_pick(cycle(3)) == (0,)
        assert min_kernel_size(cycle(3), 2, 1) is None
        assert min_kernel_size(cycle(3), 3, 2) == 1

    def test_empty_digraph(self):
        assert min_kernel_size(build(0, []), 2, 1) == 0

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            min_kernel_size(d4(), 2, 0)


# SHA-256 of the sorted-key JSON of hunt_conjecture(k, trials=200, n_max=13,
# base_seed=5), recorded with the plain combinations search.
LEDGER_DIGESTS = {
    2: "30073f607465000017e0bd8409d78bef7226fa8b49add2fe6e708a87c4734fbd",
    3: "35414814bd6e94430314fc66a5b0328d567532ec55e4d1d8950e8499acd59ec6",
    4: "198f2ebdbd0b32294aa4ca1e67a7be9716ac4370209f6315175eceb0d50ea998",
    5: "81513dfeae390dd4728e366f3c2725c0156cdc1bfb2864a48651a233654846d3",
}

# The same digest for the benchmark's hunt shape, hunt_conjecture(k,
# trials=300, n_max=15, base_seed=5), keyed by (k, radii); radii None is
# the default (k+1, k).  The (3, 2) ledger holds 18 rechecked hits.
BENCH_SHAPE_LEDGER_DIGESTS = {
    (2, None): "6d6d02a96d23c63ab6a179cd8197992387eaa5fe9ea80bebce876ed32c100cef",
    (3, None): "18598d9b62b4b224c21decbd23fbec824ccda971b52e930f792cf968b2ce5aac",
    (4, None): "11f96139b75444b9ceb868cce4e373b9e765921012cb8405e2929b5725555167",
    (5, None): "71366436e086b4453512510be2a6cff4d59ac84ff7a6844777e173101e193c0a",
    (3, (3, 2)): "314c7af713fe0d3b6fafbe415b5f2ef21d2d8fb0630a13b1226c6297131c0e2c",
}


def _ledger_digest(ledger) -> str:
    return hashlib.sha256(json.dumps(jsonable(ledger), sort_keys=True).encode()).hexdigest()


class TestHunt:
    @pytest.mark.parametrize("k", sorted(LEDGER_DIGESTS))
    def test_ledger_pinned(self, k):
        ledger = hunt_conjecture(k, trials=200, n_max=13, base_seed=5)
        assert _ledger_digest(ledger) == LEDGER_DIGESTS[k]

    @pytest.mark.parametrize("k, radii", list(BENCH_SHAPE_LEDGER_DIGESTS))
    def test_bench_shape_ledger_pinned(self, k, radii):
        ledger = hunt_conjecture(k, trials=300, n_max=15, base_seed=5, radii=radii)
        assert _ledger_digest(ledger) == BENCH_SHAPE_LEDGER_DIGESTS[k, radii]

    def test_smoke_run_finds_kernels_everywhere(self):
        led = hunt_conjecture(2, trials=30, n_max=6, base_seed=7)
        assert led.trials == 30 and not led.refuted
        assert led.kernels_found == 30
        assert sum(led.size_histogram.values()) == 30

    def test_deterministic(self):
        a = hunt_conjecture(3, trials=20, n_max=7, base_seed=11)
        b = hunt_conjecture(3, trials=20, n_max=7, base_seed=11)
        assert a == b

    def test_seed_changes_outcome(self):
        a = hunt_conjecture(2, trials=25, n_max=7, base_seed=0)
        b = hunt_conjecture(2, trials=25, n_max=7, base_seed=1)
        assert a.size_histogram != b.size_histogram

    def test_custom_radii(self):
        # (1, 1)-kernels require pairwise adjacency-free sets absorbing in
        # one step; tiny digraphs still have them (any dominating
        # independent-ish set), so the hunt just counts sizes
        led = hunt_conjecture(2, trials=10, n_max=5, base_seed=3, radii=(3, 2))
        assert led.radii == (3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            hunt_conjecture(1, trials=1)
        with pytest.raises(ValueError):
            hunt_conjecture(2, trials=-1)
        with pytest.raises(ValueError):
            hunt_conjecture(2, trials=1, n_min=6, n_max=5)
        with pytest.raises(InstanceTooLarge):
            hunt_conjecture(2, trials=1, n_max=17)

    def test_zero_trials(self):
        led = hunt_conjecture(4, trials=0)
        assert led.kernels_found == 0 and led.size_histogram == {}

    def test_recheck_rejects_non_quasi_transitive(self):
        c = cycle(4)
        ce = Counterexample(
            k=2, radii=(3, 2), n=4, arcs=tuple(c.arcs()), trial=0, seed=0
        )
        assert not recheck_counterexample(ce)

    def test_recheck_rejects_when_kernel_exists(self):
        c = cycle(3)
        ce = Counterexample(
            k=2, radii=(3, 2), n=3, arcs=tuple(c.arcs()), trial=0, seed=0
        )
        assert not recheck_counterexample(ce)
