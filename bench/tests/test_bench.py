"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import itertools
import json
import os
import random

import pytest

import run
import tracing
import workloads
from qk import build, exhaustive_kernel_search, verify_kernel
import qk.digraph
import qk.kings


def _counted_search(d, k, l):
    """The size-then-lex loop of exhaustive_kernel_search, counting the
    subsets it visits and testing each with verify_kernel."""
    visited = 0
    for size in range(d.n + 1):
        for comb in itertools.combinations(range(d.n), size):
            visited += 1
            if verify_kernel(d, comb, k, l).verified:
                return comb, visited
    return None, visited


def _small_digraphs():
    yield build(3, [(0, 1), (1, 2), (2, 0)])  # no (2, 1)-kernel
    yield build(1, [])
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 7)
        p = rng.uniform(0.1, 0.6)
        yield build(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])


@pytest.mark.parametrize("radii", [(2, 1), (3, 2), (2, 2), (4, 3)])
def test_subsets_enumerated_matches_counting_search(radii):
    saw_none = saw_kernel = False
    for d in _small_digraphs():
        kernel = exhaustive_kernel_search(d, *radii)
        expected_kernel, visited = _counted_search(d, *radii)
        assert kernel == expected_kernel
        assert tracing.subsets_enumerated(d.n, kernel) == visited
        saw_none |= kernel is None
        saw_kernel |= kernel is not None and len(kernel) > 1
    assert saw_kernel
    if radii == (2, 1):
        assert saw_none


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["kings.census", 0, 1.0, 4.0],
        ["digraph.bfs", 1, 2.0, 3.0],
        ["digraph.bfs", 0, 5.0, 9.0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = tracing.layer_metrics(spans, {}, out_bytes=12)
    assert m["cli.self_s"] == 3.0
    assert m["kings.census_self_s"] == 2.0
    assert m["digraph.bfs_calls"] == 2
    assert m["digraph.bfs_self_s"] == 5.0
    assert m["digraph.self_s"] == 5.0
    assert m["kings.self_s"] == 2.0
    assert m["cli.out_bytes"] == 12
    assert m["kernels.found_ratio"] == 0.0


def test_tracer_patches_every_binding_and_restores_it():
    original = qk.digraph.distances_from
    d = build(3, [(0, 1), (1, 2), (2, 0)])
    with tracing.Tracer() as tracer:
        assert qk.kings.distances_from is not original
        assert qk.kings.all_r_kings(d, 2) == (0, 1, 2)
    assert qk.kings.distances_from is original and qk.digraph.distances_from is original
    names = [name for name, *_ in tracer.spans]
    assert names == ["kings.all_r_kings"] + ["digraph.bfs"] * 3
    assert all(parent == 0 for _, parent, _, _ in tracer.spans[1:])


def test_benchmark_json_names_every_metric_the_runs_emit():
    root = os.path.dirname(run.BENCH)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    emitted = [*tracing.layer_metrics([], {}, 0), "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == emitted
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(tracing.CHECK_IDS) == set(qk.checks.CHECKERS)


def _hunt_doc(found=1000, hits=()):
    doc = {"command": "hunt", "result": {"kernels_found": found, "counterexamples": list(hits), "trials": 1000},
           "tool_version": "0.1.0"}
    return json.dumps(doc).encode()


def test_verify_flags_broken_invariants_and_changed_output(tmp_path):
    cmd = workloads.commands("hunt", 3, str(tmp_path))[0]
    ref = run.Reference({})
    out = _hunt_doc()
    assert run.verify(cmd, 0, out, ref, {}) is None
    assert run.verify(cmd, 0, out, ref, {}) is None
    assert run.verify(cmd, 0, out.replace(b"0.1.0", b"0.2.0"), ref, {}) is None
    assert "reference" in run.verify(cmd, 0, out.replace(b'"hunt"', b'"hunt", "x": 1'), ref, {})
    assert "reference" in run.verify(cmd, 2, _hunt_doc(found=999, hits=[{}]), ref, {})
    assert "trials" in run.verify(cmd, 2, out, ref, {})
    assert "trials" in run.verify(cmd, 0, _hunt_doc(found=999), ref, {})
    assert "not JSON" in run.verify(cmd, 0, b"", ref, {})
    assert "lacks" in run.verify(cmd, 0, b"{}", ref, {})


def test_committed_reference_is_used_whatever_the_source(tmp_path, monkeypatch):
    committed = run.Reference.load("hunt", 0)
    assert committed.path is None
    assert sorted(committed.entries) == [f"hunt-k{k}" for k in workloads.HUNT_KS]
    cmd = workloads.commands("hunt", 0, str(tmp_path))[0]
    # Output that a changed program might print for seed 0 is refused, even
    # in a checkout that has recorded nothing and with other qk sources.
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "source_digest", lambda: "0" * 64)
    ref = run.Reference.load("hunt", 0)
    assert ref.entries == committed.entries
    assert "reference" in run.verify(cmd, 0, _hunt_doc(), ref, {})
    ref.save()
    assert not os.listdir(tmp_path)


def test_uncommitted_seed_is_recorded_once_per_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    seed = 10**9
    cmd = workloads.commands("hunt", seed, str(tmp_path))[0]
    ref = run.Reference.load("hunt", seed)
    assert run.verify(cmd, 0, _hunt_doc(), ref, {}) is None
    ref.save()
    monkeypatch.setattr(run, "source_digest", lambda: "0" * 64)
    again = run.Reference.load("hunt", seed)
    assert "reference" in run.verify(cmd, 2, _hunt_doc(found=999, hits=[{}]), again, {})


def test_committed_reference_covers_every_command():
    committed = run.read_json(run.REFERENCE)
    assert set(committed) == set(workloads.WORKLOADS)
    for workload, seeds in committed.items():
        assert set(seeds) == {str(s) for s in range(len(seeds))}
        for seed, entries in seeds.items():
            assert sorted(entries) == sorted(c.name for c in workloads.commands(workload, int(seed), ""))


def test_recognition_check_demands_the_expected_verdict():
    assert workloads._check_recognition(False)(1, {"result": {"quasi_transitive": False, "violations": [{}]}}) is None
    assert workloads._check_recognition(False)(0, {"result": {"quasi_transitive": True, "violations": []}})
    assert workloads._check_recognition(False)(1, {"result": {"quasi_transitive": False, "violations": []}})
    assert workloads._check_recognition(True)(0, {"result": {"quasi_transitive": True, "violations": []}}) is None


def test_long_tournament_is_canonical():
    text = workloads.long_tournament(5)
    d = qk.edgelist.parse(text)
    assert qk.edgelist.emit(d) == text
    assert d.arc_count == 4 + 6
    assert qk.certify_qt(d, 3)


def test_child_peak_rss_is_not_inflated_by_the_benchmark_process(tmp_path):
    with run.Child(str(tmp_path)) as child:
        ballast = b"\x01" * (96 << 20)
        code, out, wall, cpu, rss_mb = child.run(["--version"])
        del ballast
    assert code == 0 and out.startswith(b"qk ")
    assert 0 < cpu <= wall
    assert rss_mb < 60


def test_calibration_takes_about_the_reference_time(tmp_path):
    with run.Child(str(tmp_path)) as child:
        wall = child.calibrate()
    assert run.CALIBRATION_REFERENCE_S / 4 < wall < run.CALIBRATION_REFERENCE_S * 4
