"""End-to-end command tests: exit statuses, report contents, JSON stability."""

import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qk
import qk.cli
import qk.edgelist
import qk.fanout
import qk.kernels
from qk.cli import main
from qk.digraph import reverse
from qk.edgelist import MAX_VERTICES, content_digest, emit, parse, write_digraph
from qk.kernels import Counterexample, recheck_counterexample, verify_kernel
from qk.qt import certify_qt

from instances import chorded_path, cycle, d4, long_tournament, path, two_cycles


@pytest.fixture
def d4_file(tmp_path):
    p = tmp_path / "d4.edges"
    write_digraph(str(p), d4())
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"tool_version", "command", "input_digest", "result"}
    return code, doc


class TestCheck:
    def test_d4_is_4qt(self, capsys, d4_file):
        code, out = run(capsys, "check", d4_file, "--k", "4")
        assert code == 0
        assert "4-quasi-transitive: yes" in out

    def test_d4_not_2qt_with_witness(self, capsys, d4_file):
        code, out = run(capsys, "check", d4_file, "--k", "2")
        assert code == 1
        assert "0->1->2" in out
        assert "no (2 violations)" in out

    def test_empty_digraph(self, capsys, tmp_path):
        p = tmp_path / "empty.edges"
        p.write_text("0 0\n")
        code, _ = run(capsys, "check", str(p), "--k", "3")
        assert code == 0

    def test_json_result(self, capsys, d4_file):
        code, doc = run_json(capsys, "check", d4_file, "--k", "2")
        assert code == 1
        assert doc["input_digest"] == content_digest(d4())
        assert doc["result"]["quasi_transitive"] is False
        assert [v["path"] for v in doc["result"]["violations"]] == [[0, 1, 2], [0, 1, 3]]


    def test_k_at_least_n_answers_at_once(self, tmp_path):
        # no 64-arc path fits in 64 vertices; the search once ran past 120 s
        out_file = tmp_path / "g.edges"
        env = dict(os.environ, PYTHONPATH=str(Path(qk.__file__).resolve().parent.parent))
        qk_cmd = [sys.executable, "-m", "qk.cli"]
        subprocess.run([*qk_cmd, "gen", "--n", "64", "--k", "64", "--p", "0.1", "--seed", "1",
                        "-o", str(out_file)], check=True, capture_output=True, env=env, timeout=30)
        t0 = time.perf_counter()
        proc = subprocess.run([*qk_cmd, "check", str(out_file), "--k", "64", "--json"],
                              capture_output=True, text=True, env=env, timeout=30)
        assert time.perf_counter() - t0 < 5
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == {"k": 64, "quasi_transitive": True, "violations": []}

    def test_semicomplete_32_at_k6(self, capsys, tmp_path):
        p = tmp_path / "lt32.edges"
        write_digraph(str(p), long_tournament(32))
        code, doc = run_json(capsys, "check", str(p), "--k", "6")
        assert code == 0
        assert doc["result"] == {"k": 6, "quasi_transitive": True, "violations": []}


class TestHumanReports:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--k", "2"),
            ("kings", "--k", "2"),
            ("kings", "--k", "2", "--fast"),
            ("kings", "--k", "2", "--census"),
            ("kernel", "--k", "2"),
            ("kernel", "--k", "2", "--construct"),
            ("kernel", "--k", "2", "--verify", "1,3"),
        ],
    )
    def test_compute_no_digest(self, capsys, d4_file, monkeypatch, argv):
        # only the JSON document shows input_digest
        command, *options = argv
        expected = run(capsys, command, d4_file, *options)

        def refuse(d):
            raise AssertionError("digested in human mode")

        monkeypatch.setattr(qk.edgelist, "content_digest", refuse)
        assert run(capsys, command, d4_file, *options) == expected
        with pytest.raises(AssertionError, match="human mode"):
            main([command, d4_file, *options, "--json"])


class TestKings:
    def test_d4_five_kings(self, capsys, d4_file):
        code, out = run(capsys, "kings", d4_file, "--k", "4")
        assert code == 0
        assert "(5)-kings: {0}" in out

    def test_d4_fast(self, capsys, d4_file):
        code, out = run(capsys, "kings", d4_file, "--k", "4", "--fast")
        assert code == 0
        assert "fast (5)-king: 0" in out

    def test_fast_fails_on_two_components(self, capsys, tmp_path):
        p = tmp_path / "two.edges"
        write_digraph(str(p), two_cycles())
        code, out = run(capsys, "kings", str(p), "--k", "2", "--fast")
        assert code == 1
        assert out == "no (3)-king: no unique initial component\n"

    def test_fast_on_the_empty_digraph(self, capsys, tmp_path):
        # no component at all, so not "multiple initial components" either
        p = tmp_path / "empty.edges"
        p.write_text("0 0\n")
        assert run(capsys, "kings", str(p), "--k", "4", "--fast") == (
            1, "no (5)-king: no unique initial component\n"
        )
        code, doc = run_json(capsys, "kings", str(p), "--k", "4", "--fast")
        assert (code, doc["result"]) == (1, {"k": 4, "fast_king": None})

    def test_cycle_census_boundary_audit(self, capsys, tmp_path):
        p = tmp_path / "c3.edges"
        write_digraph(str(p), cycle(3))
        code, out = run(capsys, "kings", str(p), "--k", "2", "--census")
        assert code == 0
        assert "audit boundary-exact: expected exactly 3 2-kings, observed 3 [PASS]" in out

    def test_census_audit_failure_is_exit_2(self, capsys, tmp_path):
        # counting facts are theorems only under quasi-transitivity, so an
        # unchecked census on a plain path flags them and exits 2
        p = tmp_path / "p5.edges"
        write_digraph(str(p), path(5))
        code, out = run(capsys, "kings", str(p), "--k", "2", "--census")
        assert code == 2
        assert "[FAIL]" in out

    def test_checked_census_rejects_non_qt(self, capsys, tmp_path):
        p = tmp_path / "p5.edges"
        write_digraph(str(p), path(5))
        code = main(["kings", str(p), "--k", "2", "--census", "--checked"])
        assert code == 3

    @pytest.mark.parametrize("mode", [(), ("--fast",), ("--census",)], ids=["list", "fast", "census"])
    def test_checked_mode_rejects(self, capsys, tmp_path, mode):
        # --checked certifies the input before any mode runs; the bare
        # list and --fast once ignored it and answered on a plain path
        p = tmp_path / "p4.edges"
        write_digraph(str(p), path(4))
        code = main(["kings", str(p), "--k", "2", "--checked", *mode])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "qk: error: input not quasi-transitive: input is not 2-quasi-transitive\n"

    @pytest.mark.parametrize("mode", [(), ("--fast",), ("--census",)], ids=["list", "fast", "census"])
    def test_checked_mode_accepts(self, capsys, d4_file, mode):
        code, out = run(capsys, "kings", d4_file, "--k", "4", "--checked", *mode)
        assert (code, out) == run(capsys, "kings", d4_file, "--k", "4", *mode)
        assert code == 0

    def test_fast_and_census_are_exclusive(self, capsys, d4_file):
        with pytest.raises(SystemExit) as exc:
            main(["kings", d4_file, "--k", "4", "--fast", "--census"])
        assert exc.value.code == 3
        assert "not allowed with argument" in capsys.readouterr().err

    def test_census_json_has_inf_as_null(self, capsys, d4_file):
        code, doc = run_json(capsys, "kings", d4_file, "--k", "4", "--census")
        assert code == 0
        assert doc["result"]["ecc_out"] == [2, None, None, None]
        assert doc["result"]["kings_by_radius"]["5"] == [0]


class TestKernel:
    def test_verify_chorded_path(self, capsys, tmp_path):
        p = tmp_path / "chord.edges"
        write_digraph(str(p), chorded_path(2))
        code, out = run(capsys, "kernel", str(p), "--k", "2",
                        "--verify", "0,3", "--indep", "3", "--absorb", "2")
        assert code == 0
        assert "VERIFIED: {0, 3} as a (3, 2)-kernel" in out

    def test_verify_refuted(self, capsys, tmp_path):
        p = tmp_path / "chord.edges"
        write_digraph(str(p), chorded_path(2))
        code, out = run(capsys, "kernel", str(p), "--k", "2",
                        "--verify", "0,1", "--indep", "3", "--absorb", "2")
        assert code == 1
        assert "REFUTED" in out and "witness" in out

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cycle_has_no_k_kernel(self, capsys, tmp_path, k):
        p = tmp_path / "cyc.edges"
        write_digraph(str(p), cycle(k + 1))
        code, out = run(capsys, "kernel", str(p), "--k", str(k), "--exhaustive",
                        "--indep", str(k), "--absorb", str(k - 1))
        assert code == 1
        assert f"no ({k}, {k - 1})-kernel" in out

    def test_exhaustive_default_radii(self, capsys, tmp_path):
        # no mode flag and no radii: exhaustive search at (k+1, k)
        p = tmp_path / "cyc.edges"
        write_digraph(str(p), cycle(3))
        code, out = run(capsys, "kernel", str(p), "--k", "2")
        assert code == 0
        assert "(3, 2)-kernel: {" in out

    def test_construct_strong_gives_singleton(self, capsys, tmp_path):
        p = tmp_path / "cyc.edges"
        write_digraph(str(p), cycle(3))
        code, out = run(capsys, "kernel", str(p), "--k", "2", "--construct")
        assert code == 0
        assert "(4, 3)-kernel: {" in out and "[VERIFIED]" in out

    def test_construct_verifies_once(self, capsys, tmp_path, monkeypatch):
        calls = {"reverse": 0, "verify": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # kernels reads d.pred and imports no reverse; a reverse it called would be counted
        monkeypatch.setattr(qk.kernels, "reverse", counted("reverse", reverse), raising=False)
        wrapped_verify = counted("verify", qk.kernels.verify_kernel)
        monkeypatch.setattr(qk.kernels, "verify_kernel", wrapped_verify)
        g = chorded_path(3)
        p = tmp_path / "chorded.edges"
        write_digraph(str(p), g)
        code, doc = run_json(capsys, "kernel", str(p), "--k", "3", "--construct")
        assert code == 0
        assert calls == {"reverse": 0, "verify": 1}
        kernel = tuple(doc["result"]["kernel"])
        cert = verify_kernel(g, kernel, 5, 4)
        assert doc["result"]["certificate"] == {
            "candidate": list(cert.candidate),
            "k": 5,
            "l": 4,
            "independent": True,
            "absorbent": True,
            "witness": None,
        }
        assert doc["result"]["status"] == cert.status == "VERIFIED"

    def test_construct_rejects_non_qt(self, capsys, tmp_path):
        p = tmp_path / "p5.edges"
        write_digraph(str(p), path(5))
        assert main(["kernel", str(p), "--k", "2", "--construct"]) == 3

    def test_verify_out_of_range_set(self, capsys, tmp_path):
        p = tmp_path / "cyc.edges"
        write_digraph(str(p), cycle(3))
        assert main(["kernel", str(p), "--k", "2", "--verify", "0,99"]) == 3

    def test_modes_are_exclusive(self, capsys, tmp_path, d4_file):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", d4_file, "--k", "2", "--construct", "--exhaustive"])
        assert exc.value.code == 3

    @pytest.mark.parametrize(
        "radii", [("--indep", "9"), ("--absorb", "1"), ("--indep", "9", "--absorb", "1")],
        ids=["indep", "absorb", "both"],
    )
    def test_construct_takes_no_radii(self, capsys, tmp_path, radii):
        # --construct builds the (k+2, k+1)-kernel; radii given with it would be ignored
        p = tmp_path / "cyc.edges"
        write_digraph(str(p), cycle(3))
        assert main(["kernel", str(p), "--k", "2", "--construct", *radii]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qk: error: --construct")

    def test_search_above_its_cap_names_it(self, capsys, tmp_path):
        p = tmp_path / "path.edges"
        write_digraph(str(p), path(25))
        assert main(["kernel", str(p), "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qk: error: instance with n=25 exceeds subset kernel search cap 20\n"


class TestGen:
    def test_p_zero_is_arcless(self, capsys, tmp_path):
        out_file = tmp_path / "g.edges"
        code, out = run(capsys, "gen", "--n", "8", "--k", "3", "--p", "0",
                        "--seed", "5", "-o", str(out_file))
        assert code == 0
        assert out_file.read_text() == "8 0\n"
        assert out.strip() == content_digest(parse("8 0\n"))

    def test_p_one_is_complete(self, capsys, tmp_path):
        out_file = tmp_path / "g.edges"
        run(capsys, "gen", "--n", "6", "--k", "2", "--p", "1", "--seed", "1",
            "-o", str(out_file))
        d = parse(out_file.read_text())
        assert d.arc_count == d.n * (d.n - 1)

    def test_seed_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        _, out_a = run(capsys, "gen", "--n", "9", "--k", "2", "--p", "0.3",
                       "--seed", "77", "-o", str(a))
        _, out_b = run(capsys, "gen", "--n", "9", "--k", "2", "--p", "0.3",
                       "--seed", "77", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert out_a == out_b

    @pytest.mark.parametrize("rule", ["random", "forward"])
    def test_output_certifies(self, capsys, tmp_path, rule):
        out_file = tmp_path / "g.edges"
        run(capsys, "gen", "--n", "10", "--k", "3", "--p", "0.25", "--seed", "9",
            "--rule", rule, "-o", str(out_file))
        assert certify_qt(parse(out_file.read_text()), 3)

    def test_negative_order_writes_nothing(self, capsys, tmp_path):
        out_file = tmp_path / "g.edges"
        # it once exited 0 and wrote the header "-3 0", which check refuses
        assert main(["gen", "--n", "-3", "--k", "2", "--p", "0.5", "-o", str(out_file)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qk: error: vertex count must be >= 0\n"
        assert not out_file.exists()

    def test_order_above_the_cap_fails_fast(self, tmp_path):
        # all n * n seed arcs were once drawn before the cap was checked,
        # which at n = 100000 does not finish, so the child gets a time and
        # an address-space limit
        out_file = tmp_path / "g.edges"
        env = dict(os.environ, PYTHONPATH=str(Path(qk.__file__).resolve().parent.parent))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qk.cli", "gen", "--n", "100000", "--k", "2", "--p", "0.05",
             "-o", str(out_file)],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 3
        assert proc.stderr == "qk: error: instance with n=100000 exceeds enumeration cap 64\n"
        assert proc.stdout == ""
        assert not out_file.exists()
        assert elapsed < 2.0

    def test_dense_k12_closure_finishes(self, tmp_path):
        # one k-path query of this closure (pair (4, 8), which no 12-arc
        # path joins) once walked every shorter path from 4 and took 227 s;
        # the walk's cut by what can still reach 8 ends it at once
        out_file = tmp_path / "g.edges"
        env = dict(os.environ, PYTHONPATH=str(Path(qk.__file__).resolve().parent.parent))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qk.cli", "gen", "--n", "29", "--k", "12",
             "--p", "0.05960569756547152", "--seed", "16180869312193780423", "-o", str(out_file)],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 0
        assert proc.stdout == "c1c53fae256fd9a18efea0b3a0d70fe9714acdb0356d834340a882aaecbe075e\n"
        assert content_digest(parse(out_file.read_text())) + "\n" == proc.stdout


class TestHunt:
    def test_small_hunt_is_clean(self, capsys):
        code, out = run(capsys, "hunt", "--k", "2", "--trials", "50")
        assert code == 0
        assert "no counterexample found" in out

    def test_zero_trials(self, capsys):
        code, doc = run_json(capsys, "hunt", "--k", "2", "--trials", "0")
        assert code == 0
        assert doc["result"]["trials"] == 0
        assert doc["result"]["counterexamples"] == []
        assert doc["result"]["size_histogram"] == {}

    def test_radii_must_come_in_pairs(self, capsys):
        assert main(["hunt", "--k", "2", "--trials", "1", "--indep", "3"]) == 3

    def test_order_above_its_cap_names_it(self, capsys):
        assert main(["hunt", "--k", "2", "--n-max", "21"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qk: error: instance with n=21 exceeds subset kernel search cap 20\n"

    def test_custom_radii_reported(self, capsys):
        code, doc = run_json(capsys, "hunt", "--k", "2", "--trials", "5",
                             "--indep", "4", "--absorb", "3")
        assert code == 0
        assert doc["result"]["radii"] == [4, 3]

    def test_hit_exits_2_and_rechecks(self, capsys):
        argv = ["hunt", "--k", "2", "--indep", "5", "--absorb", "1",
                "--trials", "20", "--n-max", "8"]
        code, out = run(capsys, *argv)
        assert code == 2
        assert "COUNTEREXAMPLE trial " in out and "refuted" in out
        code, doc = run_json(capsys, *argv)
        assert code == 2
        hits = doc["result"]["counterexamples"]
        assert hits
        for hit in hits:
            ce = Counterexample(
                k=hit["k"], radii=tuple(hit["radii"]), n=hit["n"],
                arcs=tuple(map(tuple, hit["arcs"])), trial=hit["trial"], seed=hit["seed"],
            )
            assert recheck_counterexample(ce)

    def test_n_max_below_hidden_n_min(self, capsys):
        assert main(["hunt", "--k", "2", "--n-max", "3"]) == 3
        err = capsys.readouterr().err
        assert "n_min=4, n_max=3" in err

    def test_small_orders(self, capsys):
        code, doc = run_json(capsys, "hunt", "--k", "2", "--n-min", "1", "--n-max", "3",
                             "--trials", "20")
        r = doc["result"]
        hits = r["counterexamples"]
        assert code == (2 if hits else 0)
        assert r["trials"] == 20 and r["n_max"] == 3
        assert r["kernels_found"] + len(hits) == 20
        assert sum(r["size_histogram"].values()) == r["kernels_found"]
        assert all(1 <= int(size) <= 3 for size in r["size_histogram"])
        assert all(1 <= hit["n"] <= 3 for hit in hits)


class TestLemmas:
    def test_empty_k_list(self, capsys):
        code, out = run(capsys, "lemmas", "--k-list", "")
        assert code == 3

    def test_small_clean_run(self, capsys):
        code, out = run(capsys, "lemmas", "--k-list", "2", "--kings-trials", "40",
                        "--lemma-trials", "12")
        assert code == 0
        assert "all checks passed" in out
        assert "unique-initial-equivalence" in out

    def test_bad_k_list(self, capsys):
        assert main(["lemmas", "--k-list", "a,b"]) == 3

    def test_k_list_of_separators_runs_nothing(self, capsys):
        assert main(["lemmas", "--k-list", ",,"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k list is empty" in captured.err

    @pytest.mark.parametrize("value, reason", [
        ("5000", f"k must be <= {MAX_VERTICES}, got 5000"),
        ("2,1", "k must be >= 2, got 1"),
    ])
    def test_k_list_values_meet_the_k_bound(self, capsys, value, reason):
        assert main(["lemmas", "--k-list", value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot parse k list {value!r}: {reason}" in captured.err

    @pytest.mark.parametrize("value", ["nan", "-0.1", "1.5", "inf", "half"])
    def test_min_fire_outside_zero_to_one(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--k-list", "2", "--min-fire", value])
        assert exc.value.code == 3
        assert "argument --min-fire" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--trials", "0"),
        ("--lemma-trials", "-1"),
        ("--kings-trials", "0"),
    ])
    def test_trial_counts_below_one(self, capsys, option, value):
        # a corpus of no instances checked nothing and printed 'all checks passed'
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--k-list", "2", option, value])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: need at least 1 trial, got {value}" in captured.err

    @pytest.mark.parametrize("sizes", [
        ("--kings-trials", "40"),
        ("--lemma-trials", "40"),
        ("--kings-trials", "40", "--lemma-trials", "40"),
    ], ids=["kings", "lemma", "both"])
    def test_trials_takes_no_corpus_size(self, capsys, sizes):
        # --trials set both sizes and silently overrode the one given with it
        assert main(["lemmas", "--k-list", "2", "--trials", "6", *sizes]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qk: error: --trials")

    def test_n_max_below_two(self, capsys):
        # the kings corpus draws orders from 2 to n-max
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--k-list", "2", "--n-max", "1"])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --n-max: must be >= 2, the smallest corpus order, got 1" in captured.err

    def test_no_two_king_corpus_of_seed_344_passes(self, capsys):
        # its kings corpus holds a strong 6-vertex digraph whose vertices
        # are all 3-kings, which the seven 3-kings row must exempt
        code, out = run(capsys, "lemmas", "--k-list", "2", "--seed", "344")
        assert code == 0
        assert out.endswith("all checks passed\n")

    def test_violations_exit_2(self, capsys, monkeypatch):
        import qk.checks

        monkeypatch.setattr(qk.fanout, "cpus", lambda: 1)
        monkeypatch.setitem(qk.checks.CHECKERS, "degree-growth", lambda d, k: (True, [("planted", (), "")]))
        argv = ("lemmas", "--k-list", "2", "--trials", "1", "--min-fire", "0.5")
        code, out = run(capsys, *argv)
        assert code == 2
        assert out.endswith("\n1 violations\n")
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["command"] == "lemmas"
        assert doc["result"]["violations"] == 1
        assert doc["result"]["min_fire"] == 0.5

    def test_json_excludes_wall_clock(self, capsys):
        code, doc = run_json(capsys, "lemmas", "--k-list", "2",
                             "--kings-trials", "5", "--lemma-trials", "3")
        flat = json.dumps(doc)
        assert "elapsed" not in flat
        assert doc["input_digest"] is None


class TestUsageAndErrors:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.edges", "--k", "2"]) == 3

    def test_parse_error_names_line(self, capsys, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("2 1\n0 5\n")
        code = main(["check", str(p), "--k", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert "line 2" in err

    def test_non_ascii_input_is_a_parse_error(self, capsys, tmp_path):
        p = tmp_path / "accent.edges"
        p.write_bytes(b"2 1\n# caf\xc3\xa9\n0 1\n")
        code = main(["check", str(p), "--k", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{p}: line 2: non-ASCII byte 0xc3" in err

    def test_oversized_header_fails_fast(self, capsys, tmp_path):
        p = tmp_path / "huge.edges"
        p.write_text(f"{MAX_VERTICES + 1} 0\n")
        code = main(["kings", str(p), "--k", "2", "--fast"])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{p}: line 1: header announces {MAX_VERTICES + 1} vertices" in err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 3

    def test_missing_required_k(self, d4_file):
        with pytest.raises(SystemExit) as exc:
            main(["check", d4_file])
        assert exc.value.code == 3

    @pytest.mark.parametrize("command", [["kings"], ["kernel"], ["kings", "--fast"], ["check"]])
    @pytest.mark.parametrize("k", ["0", "1"])
    def test_k_below_two_is_a_usage_error(self, capsys, d4_file, command, k):
        with pytest.raises(SystemExit) as exc:
            main([command[0], d4_file, "--k", k, *command[1:]])
        assert exc.value.code == 3
        assert f"k must be >= 2, got {k}" in capsys.readouterr().err

    def test_k_must_be_an_integer(self, capsys, d4_file):
        with pytest.raises(SystemExit) as exc:
            main(["kings", d4_file, "--k", "two"])
        assert exc.value.code == 3
        assert "invalid int value: 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", "+3"])
    @pytest.mark.parametrize("argv", [
        ["check", "FILE", "--k"],
        ["kernel", "FILE", "--k", "2", "--indep"],
        ["kernel", "FILE", "--k", "2", "--absorb"],
        ["gen", "--k", "2", "--p", "0.5", "-o", "OUT", "--n"],
        ["gen", "--k", "2", "--n", "4", "--p", "0.5", "-o", "OUT", "--seed"],
        *(["hunt", "--k", "2", option]
          for option in ["--trials", "--n-min", "--n-max", "--seed", "--indep", "--absorb"]),
        *(["lemmas", option] for option in
          ["--trials", "--kings-trials", "--lemma-trials", "--n-max", "--seed"]),
    ], ids=" ".join)
    def test_integer_options_read_only_digits(self, capsys, d4_file, tmp_path, argv, value):
        names = {"FILE": d4_file, "OUT": str(tmp_path / "out.edges")}
        with pytest.raises(SystemExit) as exc:
            main([names.get(a, a) for a in argv] + [value])
        assert exc.value.code == 3
        assert f"argument {argv[-1]}: invalid int value: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out.edges").exists()

    @pytest.mark.parametrize("argv, what", [
        (["kernel", "FILE", "--k", "2", "--verify", "0,+2"], "vertex set '0,+2'"),
        (["kernel", "FILE", "--k", "2", "--verify", "1_0"], "vertex set '1_0'"),
        (["lemmas", "--k-list", "2,+3"], "k list '2,+3'"),
        (["lemmas", "--k-list", "1_0"], "k list '1_0'"),
    ])
    def test_integer_lists_read_only_digits(self, capsys, d4_file, argv, what):
        assert main([d4_file if a == "FILE" else a for a in argv]) == 3
        assert f"cannot parse {what}" in capsys.readouterr().err

    def test_negative_seed_still_reads(self, capsys):
        code, doc = run_json(capsys, "hunt", "--k", "2", "--trials", "3", "--seed", "-5")
        assert code == 0
        assert doc["result"]["base_seed"] == -5

    def test_k_above_the_vertex_limit_is_a_usage_error(self, capsys, tmp_path):
        # --census writes one king list per radius up to k + 2, so an
        # unbounded k on a 2-vertex file once wrote megabytes
        p = tmp_path / "two.edges"
        p.write_text("2 1\n0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["kings", str(p), "--census", "--k", "1000000"])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"k must be <= {MAX_VERTICES}, got 1000000" in captured.err
        code, out = run(capsys, "kings", str(p), "--census", "--k", str(MAX_VERTICES))
        assert code == 0
        assert f"\n{MAX_VERTICES + 2}-kings: {{0}}\n" in out


# lines that break an edge-list file, each in its own way
_FUZZ_FAULTS = [b"", b"# c", b"  ", b"\t2\t0", b"x 1", b"-1 0", b"1_0 1", b"0 \xff", b"caf\xc3\xa9",
                b"0 1 2", b"1 1", b"0 9", b"0 1"]


@st.composite
def _fuzz_files(draw):
    """Random bytes, or an edge-list file of 4 vertices (or 70, above the
    enumeration cap) with up to two faulty lines mixed in, a header that
    may miscount, and LF, CRLF or CR line ends."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=48))
    n = draw(st.sampled_from([4, 4, 4, 70]))
    lines = draw(st.lists(st.sampled_from([b"0 1", b"1 2", b"2 3", b"3 0", b"00 2"]), unique=True))
    m = max(len(lines) + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    for pos, line in draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(_FUZZ_FAULTS)), max_size=2)):
        lines.insert(pos % (len(lines) + 1), line)
    ending = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return ending.join([b"%d %d" % (n, m), *lines]) + draw(st.sampled_from([ending, b""]))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.edges"


class TestFileBytesFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_fuzz_files())
    def test_check_exits_cleanly_on_any_bytes(self, fuzz_path, data):
        fuzz_path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check", str(fuzz_path), "--k", "2"])
        assert code in (0, 1, 3)
        message = err.getvalue()
        assert "Traceback" not in message
        if code == 3:
            # a parse error names its line; the only other refusal of a
            # parsed file is the enumeration cap
            named = re.fullmatch(f"qk: error: {re.escape(str(fuzz_path))}: line [0-9]+: .+\n", message)
            assert named or "exceeds enumeration cap" in message, message
        else:
            assert message == ""


# option values: small ones (trials <= 20, n <= 12, k <= 5, a few out of
# range), and malformed tokens that any option but -o may get instead; no
# large value, as --trials 5000 would run for half a minute
_BAD = ["", "x", "+3", "1_0", "3.5", "٣", "-", "--json"]
_TRIALS = ["0", "1", "3", "20", "-1"]
_NS = ["0", "1", "2", "5", "12", "-2"]
_KS = ["2", "3", "4", "5"]
_ARGV_OPTIONS = {  # per subcommand: its required options first, then a value pool per option
    "check": (["--k"], {"--k": _KS}),
    "kings": (["--k"], {"--k": _KS, "--fast": None, "--census": None, "--checked": None}),
    "kernel": (["--k"], {"--k": _KS, "--construct": None, "--exhaustive": None, "--indep": _NS,
                         "--absorb": _NS, "--verify": ["0", "0,1", "1 2", "9", "-1", "0,+1", ","]}),
    "gen": (["--k", "--n", "--p", "-o"], {"--k": _KS, "--n": _NS, "--seed": _NS,
                                         "--p": ["0", "0.3", "1", "nan", "inf", "-1"],
                                         "--rule": ["random", "FORWARD"], "-o": ["OUT", "DIR", "MISSING"]}),
    "hunt": (["--k"], {"--k": _KS, "--trials": _TRIALS, "--n-min": _NS, "--n-max": _NS, "--seed": _NS,
                       "--indep": _NS, "--absorb": _NS}),
    "lemmas": (["--k-list"], {"--k-list": ["2", "3", "5", "2,3", "4 2", "1", "2,+3", "12", ",,"],
                              "--trials": _TRIALS, "--kings-trials": _TRIALS, "--lemma-trials": _TRIALS,
                              "--n-max": _NS, "--seed": _NS, "--min-fire": ["0", "0.05", "1", "nan", "2"]}),
}
_FILES = {"D4": "4 5\n0 1\n1 2\n1 3\n2 3\n3 2\n", "P5": "5 4\n0 1\n1 2\n2 3\n3 4\n",
          "LOOP": "2 1\n0 0\n", "EMPTY": ""}


@st.composite
def _argvs(draw):
    """A subcommand, its file (mostly one that parses, else one that does
    not, a directory or a missing path) and its required options, then up
    to four more options.  Now and then a value (other than -o's) is
    malformed, or the file or a required option is left out.  lemmas
    always gets a --k-list, so that no run checks the default k = 2..6 at
    full corpus sizes."""
    command = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    required, options = _ARGV_OPTIONS[command]
    argv = [command]
    if command in ("check", "kings", "kernel"):
        argv.append(draw(st.sampled_from(["D4", "P5"] * 4 + [*_FILES, "DIR", "MISSING", None])))
    left_out = draw(st.sampled_from([None] * 4 + required)) if command != "lemmas" else None
    for name in required + draw(st.lists(st.sampled_from([*options, "--json"]), max_size=4)):
        if name != left_out:
            argv.append(name)
            if options.get(name):
                # -o takes only the fixture paths: a bare token would write a file in the cwd
                argv.append(draw(st.sampled_from(options[name] * 4 + (_BAD if name != "-o" else []))))
    return [a for a in argv if a is not None]


@pytest.fixture(scope="module")
def argv_names(tmp_path_factory):
    """Where each placeholder of _argvs points."""
    base = tmp_path_factory.mktemp("argv")
    names = {"DIR": str(base), "MISSING": str(base / "missing" / "x.edges"), "OUT": str(base / "out.edges")}
    for label, text in _FILES.items():
        names[label] = str(base / f"{label}.edges")
        Path(names[label]).write_text(text)
    return names


class TestArgvFuzz:
    @settings(max_examples=200, deadline=10_000)
    @given(_argvs())
    def test_every_subcommand_exits_cleanly_on_any_argv(self, argv_names, argv):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(qk.fanout, "cpus", lambda: 1), redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([argv_names.get(a, a) for a in argv])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue()


class TestJsonStability:
    def test_byte_identical_reports(self, capsys, d4_file):
        main(["kings", d4_file, "--k", "4", "--census", "--json"])
        first = capsys.readouterr().out
        main(["kings", d4_file, "--k", "4", "--census", "--json"])
        assert capsys.readouterr().out == first

    def test_hunt_byte_identical(self, capsys):
        main(["hunt", "--k", "2", "--trials", "20", "--seed", "3", "--json"])
        first = capsys.readouterr().out
        main(["hunt", "--k", "2", "--trials", "20", "--seed", "3", "--json"])
        assert capsys.readouterr().out == first

    def test_digest_ignores_input_formatting(self, capsys, tmp_path, d4_file):
        scrambled = tmp_path / "scrambled.edges"
        scrambled.write_text("# comment\n4 5\n3 2\n\n0 1\n1 3\n1 2\n2 3\n")
        _, doc_a = run_json(capsys, "check", d4_file, "--k", "4")
        _, doc_b = run_json(capsys, "check", str(scrambled), "--k", "4")
        assert doc_a == doc_b



def _er_text(n, p, seed):
    """Seeded loop-free G(n, p) edge list, written without qk's emitter."""
    rng = random.Random(seed)
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return f"{n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)


# SHA-256 of the exact --json stdout.  bench/reference.json hashes a
# canonical re-serialisation of each document, so it cannot see indentation,
# key order or the trailing newline; these pins can.  Any change here is an
# output change: log it, never re-record in passing.
RAW_JSON_PINS = {
    "check-er32": (
        ("check", "ER32", "--k", "3"), 1,
        "c2dabb000aa266d93eeb1f420e7df6a595c40dd25cdfee5aaa94593bae034628",
    ),
    "census-lt40": (
        ("kings", "LT40", "--k", "4", "--census"), 0,
        "693d50092299c261be8de497edef0dd3c82d639ea788d9ffbcf59d2f1f82dfac",
    ),
    "census-lt40-k3": (
        ("kings", "LT40", "--k", "3", "--census"), 0,
        "205cbc9089af720887cc435ebef5baae53107dfbb4f973e05f2c98d37883d821",
    ),
    "census-lt40-k5": (
        ("kings", "LT40", "--k", "5", "--census"), 0,
        "86c0761488fe29398f1c904eb492cb599fe60793029b523f113dceb23b47f923",
    ),
    "construct-lt40": (
        ("kernel", "LT40", "--k", "4", "--construct"), 0,
        "903974f683c3a8fe773c85ceb880e8643db0636e78c066a802fd38982398ec1f",
    ),
    "hunt-hits": (
        ("hunt", "--k", "2", "--indep", "5", "--absorb", "1", "--trials", "20",
         "--n-max", "8", "--seed", "3"), 2,
        "b2d7e27f680bbc673790fbb0b34efe4ef95a998d19933743f3ba1032a383b94c",
    ),
    "lemmas-small": (
        ("lemmas", "--k-list", "2,3", "--kings-trials", "8", "--lemma-trials", "4"), 0,
        "98655f631233ae1b972d32533ff42fb26df8bdb855cb4499b8110c511fa26a55",
    ),
}


class TestRawJsonBytes:
    @pytest.mark.parametrize("name", sorted(RAW_JSON_PINS))
    def test_stdout_bytes_pinned(self, capsys, tmp_path, name):
        files = {"ER32": _er_text(32, 0.12, 7), "LT40": emit(long_tournament(40))}
        argv, expected_code, digest = RAW_JSON_PINS[name]
        paths = {}
        for label, text in files.items():
            paths[label] = tmp_path / f"{label}.edges"
            paths[label].write_text(text)
        code = main([str(paths.get(a, a)) for a in argv] + ["--json"])
        out = capsys.readouterr().out
        assert code == expected_code
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_human_check_bytes_pinned(self, capsys, tmp_path):
        # the human report is written a start vertex's violations at a
        # time; these are the bytes of the report built whole
        p = tmp_path / "er.edges"
        p.write_text(_er_text(32, 0.12, 7))
        assert main(["check", str(p), "--k", "3"]) == 1
        out = capsys.readouterr().out
        assert out.endswith("\n3-quasi-transitive: no (1334 violations)\n")
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "dd388645e441e5e206cee5488740375f3ed36ae68c1be7ec07e57329eec6ea15"
        )

    def test_check_pin_has_many_violations(self, capsys, tmp_path):
        p = tmp_path / "er.edges"
        p.write_text(_er_text(32, 0.12, 7))
        _, doc = run_json(capsys, "check", str(p), "--k", "3")
        assert len(doc["result"]["violations"]) > 1000


def loaded_modules(code, *argv, watched=None):
    """Which of the modules named in watched (default WATCHED) a fresh
    interpreter has loaded after running code with argv."""
    code += "\nprint(' '.join(m for m in WATCHED if m in sys.modules))"
    src = str(Path(qk.__file__).resolve().parent.parent)
    watched = WATCHED if watched is None else watched
    proc = subprocess.run([sys.executable, "-c", f"import sys; WATCHED = {watched!r}; {code}", *argv],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[-2].split()


HANDLERS = ("qk.cmd_check", "qk.cmd_kings", "qk.cmd_kernel", "qk.cmd_gen", "qk.cmd_hunt", "qk.cmd_lemmas")
WATCHED = ("qk.checks", "qk.kernels", "qk.kings", "qk.qt", "qk.digraph", "qk.edgelist", "qk.fanout",
           "qk.errors", "qk.base", "qk.cli", "qk.output", *HANDLERS, "json",
           "dataclasses", "inspect", "pickle", "signal", "traceback")
RUN_CLI = "import contextlib, qk.cli\nwith contextlib.suppress(SystemExit):\n    qk.cli.main(sys.argv[1:])"


def test_startup_imports_stay_lazy(tmp_path):
    # `import qk` loads no submodule; `import qk.cli` (argument parsing,
    # --version) none of the library, no handler and not the output module,
    # and fanout's pickle/signal/traceback load only when lemmas or hunt fan out
    assert loaded_modules("import qk") == []
    assert loaded_modules("import qk.cli") == ["qk.errors", "qk.base", "qk.cli"]
    assert loaded_modules(RUN_CLI, "--version") == ["qk.errors", "qk.base", "qk.cli"]
    # a check loads only what it uses
    p = tmp_path / "d4.edges"
    write_digraph(str(p), d4())
    used = loaded_modules(RUN_CLI, "check", str(p), "--k", "2")
    assert used == ["qk.qt", "qk.digraph", "qk.edgelist", "qk.errors", "qk.base", "qk.cli", "qk.output",
                    "qk.cmd_check"]
    # a kernel construction needs no recognition: only the hunt loads qt
    used = loaded_modules(RUN_CLI, "kernel", str(p), "--k", "2", "--construct")
    assert used == ["qk.kernels", "qk.digraph", "qk.edgelist", "qk.errors", "qk.base", "qk.cli", "qk.output",
                    "qk.cmd_kernel"]
    # each command loads its own handler and no other; the JSON writer
    # quotes with _json's escaper, so no command, --json or not, imports
    # the json package
    for argv in (("check", str(p), "--k", "2"),
                 ("kings", str(p), "--k", "2", "--census"),
                 ("kernel", str(p), "--k", "2", "--construct"),
                 ("gen", "--n", "6", "--k", "2", "--p", "0.3", "-o", str(tmp_path / "out.edges")),
                 ("hunt", "--k", "2", "--trials", "3"),
                 ("lemmas", "--k-list", "2", "--trials", "1")):
        for flags in ((), ("--json",)):
            used = loaded_modules(RUN_CLI, *argv, *flags)
            assert [m for m in used if m in HANDLERS] == [f"qk.cmd_{argv[0]}"], argv + flags
            assert "qk.output" in used and "json" not in used, argv + flags


def test_file_commands_load_no_openssl(d4_file):
    # the digest takes the interpreter's built-in SHA-256; hashlib's
    # _hashlib would map OpenSSL's libcrypto into every file command
    if loaded_modules("pass", watched=("_hashlib",)):
        pytest.skip("the interpreter loads _hashlib before qk runs")
    assert loaded_modules(RUN_CLI, "check", d4_file, "--k", "2", "--json", watched=("_hashlib",)) == []


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_closed_stdout_exits_quietly(tmp_path, json_flag):
    # `qk check FILE | head -1`: here the reader closed its end before qk
    # wrote, so the first write meets the closed pipe
    p = tmp_path / "er.edges"
    p.write_text(_er_text(32, 0.12, 7))
    src = str(Path(qk.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qk.cli", "check", str(p), "--k", "3", *json_flag],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == qk.cli.PIPE_EXIT == 141
    assert proc.stderr == ""


@pytest.mark.parametrize("comment", ["", "# a comment\n"])
def test_reads_a_pipe(comment):
    # a pipe cannot be read twice: the bulk reader takes it from memory,
    # and a text it declines still reaches the line loop
    src = str(Path(qk.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "qk.cli", "check", "/dev/stdin", "--k", "2"],
                          input=comment + emit(d4()), capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.endswith("2-quasi-transitive: no (2 violations)\n")


def top_level_modules(code):
    """The top-level names in sys.modules after a fresh interpreter runs code."""
    code += "; import sys; print(' '.join(sorted({m.partition('.')[0] for m in sys.modules})))"
    src = str(Path(qk.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_only_the_standard_library_is_imported():
    # every submodule, and a forked fan_out, so that pickle, select and signal load
    loaded = top_level_modules(
        "import pkgutil, qk, qk.fanout; "
        "[__import__('qk.' + m.name) for m in pkgutil.iter_modules(qk.__path__)]; "
        "qk.fanout.cpus = lambda: 2; "
        "assert qk.fanout.fan_out(abs, (-1, -2)) == [1, 2]"
    )
    assert {"qk", "pickle", "select", "signal"} <= loaded
    new = loaded - top_level_modules("pass")
    assert {m for m in new if m != "qk" and m not in sys.stdlib_module_names} == set()


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qk.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("qk ")
