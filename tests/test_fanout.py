"""qk.fanout: results and errors equal to the serial loop, a failure in a
worker sent back to that loop, no child left behind, the serial path on one
CPU, and qk errors that survive pickling."""

from __future__ import annotations

import inspect
import json
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qk
from qk import checks, errors, fanout
from qk.checks import KING_CHECKS, LEMMA_CHECKS, kings_corpus, lemma_corpus, run_checker, run_suite
from qk.cli import main
from qk.kernels import hunt_conjecture

SRC = str(Path(qk.__file__).resolve().parent.parent)


@pytest.fixture
def deadline():
    """Fail a test that blocks for a minute instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError("fan_out blocked")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def two_workers(monkeypatch, deadline):
    """Fork two workers whatever the host allows."""
    monkeypatch.setattr(fanout, "cpus", lambda: 2)


@pytest.fixture
def three_workers(monkeypatch, deadline):
    """Fork three workers whatever the host allows."""
    monkeypatch.setattr(fanout, "cpus", lambda: 3)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square(j):
    return j * j


class Pair(Exception):
    """An exception whose __init__ takes two arguments: default pickling,
    which calls the class with args, cannot rebuild it."""

    def __init__(self, a, b):
        super().__init__(a + b)
        self.pair = (a, b)


class TestForked:
    def test_results_in_input_order(self, three_workers):
        assert fanout.fan_out(square, range(40)) == [j * j for j in range(40)]
        assert_no_children()

    def test_jobs_run_in_workers(self, three_workers):
        pids = fanout.fan_out(lambda j: os.getpid(), range(6))
        assert os.getpid() not in pids
        assert_no_children()

    def test_first_failure_in_input_order_is_raised(self, three_workers):
        # Dealt round-robin to three workers: the first fails on job 3 after
        # sleeping on job 0, long after the second failed on job 1.  Its
        # reply is read first, yet the error is job 1's, as in the serial loop.
        def job(j):
            if j == 0:
                time.sleep(0.3)
                return j
            raise ValueError(f"job {j}")

        with pytest.raises(ValueError, match=r"^job 1$"):
            fanout.fan_out(job, range(40))
        assert_no_children()

    def test_library_error_keeps_type_and_fields(self, three_workers):
        def job(j):
            if j == 1:
                raise errors.InstanceTooLarge(99, 64)
            return j

        with pytest.raises(errors.InstanceTooLarge) as info:
            fanout.fan_out(job, range(4))
        assert (info.value.n, info.value.cap) == (99, 64)
        assert str(info.value) == "instance with n=99 exceeds enumeration cap 64"
        assert_no_children()

    @pytest.mark.parametrize("err", [ValueError(lambda: 0), Pair(1, 2), SystemExit(4), KeyboardInterrupt()],
                             ids=["args-that-do-not-pickle", "two-argument-init", "system-exit",
                                  "keyboard-interrupt"])
    def test_error_is_the_jobs_own_whatever_its_pickling(self, two_workers, capfd, err):
        # a BaseException in a worker once printed a traceback and failed
        # the run with a QkError naming the worker's exit status
        def job(j):
            if j == 1:
                raise err
            return j

        with pytest.raises(type(err)) as info:
            fanout.fan_out(job, range(4))
        assert info.value is err
        assert capfd.readouterr().err == ""
        assert_no_children()

    def test_worker_that_exits_without_a_result(self, three_workers, capfd):
        parent = os.getpid()

        def job(j):
            if j == 2 and os.getpid() != parent:
                os._exit(7)
            return j

        assert fanout.fan_out(job, range(6)) == list(range(6))
        assert capfd.readouterr().err == ""
        assert_no_children()

    def test_worker_killed_by_a_signal(self, three_workers):
        parent = os.getpid()

        def job(j):
            if j == 0 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return j

        assert fanout.fan_out(job, range(3)) == list(range(3))
        assert_no_children()

    def test_more_jobs_than_one_queue_write(self, three_workers):
        # 500 jobs per worker, each worker's results sent in one reply
        assert fanout.fan_out(square, range(1500)) == [j * j for j in range(1500)]
        assert_no_children()


    def test_no_jobs(self, three_workers):
        assert fanout.fan_out(square, []) == []
        assert_no_children()

    @pytest.mark.parametrize("count", [1, 2])
    def test_fewer_jobs_than_workers(self, three_workers, count):
        assert fanout.fan_out(square, range(count)) == [j * j for j in range(count)]
        assert_no_children()

    @pytest.mark.parametrize("count", [2, 3, 7, 40])
    def test_each_job_runs_once(self, three_workers, tmp_path, count):
        log = tmp_path / "log"

        def job(j):
            with open(log, "a") as fh:  # one short append per job lands whole
                fh.write(f"{j}\n")
            return j

        assert fanout.fan_out(job, range(count)) == list(range(count))
        assert sorted(map(int, log.read_text().split())) == list(range(count))
        assert_no_children()

    def test_jobs_are_dealt_round_robin(self, three_workers):
        pids = fanout.fan_out(lambda j: os.getpid(), range(10))
        assert len(set(pids)) == 3
        assert pids == [pids[j % 3] for j in range(10)]
        assert_no_children()


class TestCancel:
    """A worker's failure stops the other workers at once, and the serial
    loop that follows raises the error that comes first in jobs."""

    def test_failure_kills_a_later_job(self, two_workers):
        def job(j):
            if j == 0:
                raise ValueError("A")
            time.sleep(3600)

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"^A$"):
            fanout.fan_out(job, range(2))
        assert time.perf_counter() - t0 < 10
        assert_no_children()

    def test_slower_earlier_failure_wins(self, two_workers):
        def job(j):
            if j == 0:
                time.sleep(0.5)
                raise ValueError("A")
            raise ValueError("B")

        with pytest.raises(ValueError, match=r"^A$"):
            fanout.fan_out(job, range(2))
        assert_no_children()

    def test_no_job_starts_past_a_failure(self, two_workers, tmp_path):
        started = tmp_path / "started"

        def job(j):
            if j == 0:
                time.sleep(0.5)
                return j
            if j == 1:
                raise ValueError("B")
            started.write_text(str(j))
            time.sleep(3600)

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"^B$"):
            fanout.fan_out(job, range(3))
        assert time.perf_counter() - t0 < 10
        assert not started.exists()
        assert_no_children()

    def test_failure_only_in_a_worker_gives_the_serial_results(self, two_workers):
        parent = os.getpid()

        def job(j):
            if os.getpid() != parent:
                raise ValueError("in a worker")
            return j * j

        assert fanout.fan_out(job, range(5)) == [j * j for j in range(5)]
        assert_no_children()

    def test_results_that_do_not_pickle_come_from_the_serial_loop(self, two_workers):
        results = fanout.fan_out(lambda j: lambda: j, range(4))
        assert [f() for f in results] == list(range(4))
        assert_no_children()

    def test_first_failure_wins_with_more_workers_than_cpus(self, monkeypatch, deadline):
        monkeypatch.setattr(fanout, "cpus", lambda: 5)
        rng = random.Random(7)
        for _ in range(20):
            failing = set(rng.sample(range(60), 3))
            delays = [rng.random() / 500 for _ in range(60)]

            def job(j):
                time.sleep(delays[j])
                if j in failing:
                    raise ValueError(j)
                return j

            with pytest.raises(ValueError) as info:
                fanout.fan_out(job, range(60))
            assert info.value.args == (min(failing),)
        assert_no_children()


@pytest.mark.parametrize("jobs", [range(0), range(1), range(5, 50, 3), range(40, 0, -1), (4, 1, 9)],
                         ids=repr)
def test_sequence_read_as_given_on_one_two_and_three_workers(monkeypatch, deadline, jobs):
    # hunt passes range(trials), which fan_out once copied into a list
    serial = [square(j) for j in jobs]
    for workers in (1, 2, 3):
        monkeypatch.setattr(fanout, "cpus", lambda: workers)
        assert fanout.fan_out(square, jobs) == serial
    assert_no_children()


@pytest.mark.parametrize("trials", [0, 1, 2, 7, 40])
def test_hunt_ledger_alike_on_one_two_and_three_workers(monkeypatch, deadline, trials):
    ledgers = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(fanout, "cpus", lambda: workers)
        ledgers.append(hunt_conjecture(2, trials=trials, n_max=8, base_seed=3, radii=(5, 1)))
    assert ledgers[0] == ledgers[1] == ledgers[2]
    serial = ledgers[0]
    assert serial.trials == trials
    assert serial.kernels_found + len(serial.counterexamples) == trials
    assert sum(serial.size_histogram.values()) == serial.kernels_found
    assert [ce.trial for ce in serial.counterexamples] == sorted(
        ce.trial for ce in serial.counterexamples
    )
    assert serial.refuted == (trials > 0)


def whole_corpus_results(k_values, kings_trials, lemma_trials, base_seed=1789):
    """run_suite as one run_checker call per checker over each whole corpus."""
    out = []
    for k in k_values:
        lemmas = lemma_corpus(k, trials=lemma_trials, base_seed=base_seed)
        kings = kings_corpus(k, trials=kings_trials, base_seed=base_seed)
        out += [run_checker(check_id, k, lemmas) for check_id in LEMMA_CHECKS]
        out += [run_checker(check_id, k, kings) for check_id in KING_CHECKS]
    return out


@pytest.mark.parametrize("lemma_trials", [1, 7, 13])
def test_suite_alike_on_one_two_and_three_workers(monkeypatch, deadline, lemma_trials):
    # the k list repeats a value: the chunks merge back by position, not by k
    whole = whole_corpus_results((2, 3, 2), 8, lemma_trials)
    for workers in (1, 2, 3):
        monkeypatch.setattr(fanout, "cpus", lambda: workers)
        results = run_suite(k_values=(2, 3, 2), kings_trials=8, lemma_trials=lemma_trials)
        assert results == whole
    assert_no_children()


def test_violations_keep_their_index_in_the_whole_corpus(monkeypatch, deadline):
    def odd_order(d, k):
        return True, [("odd", (d.n,), "")] if d.n % 2 else []

    flagged = [i for i, d in enumerate(lemma_corpus(2, trials=13)) if d.n % 2]
    assert len({i // checks.CHUNK for i in flagged}) >= 2
    monkeypatch.setitem(checks.CHECKERS, "degree-growth", odd_order)
    for workers in (1, 2):
        monkeypatch.setattr(fanout, "cpus", lambda: workers)
        results = run_suite(k_values=(2,), kings_trials=4, lemma_trials=13, base_seed=355)
        (growth,) = [r for r in results if r.check_id == "degree-growth"]
        assert [v.instance for v in growth.violations] == flagged
        assert growth.fired == 13
    assert_no_children()


class TestSerial:
    def test_one_allowed_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
        assert fanout.fan_out(lambda j: (j, os.getpid()), range(5)) == [
            (j, os.getpid()) for j in range(5)
        ]

    @pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
    def test_platform_without_fork_or_affinity(self, monkeypatch, name):
        monkeypatch.delattr(os, name, raising=False)
        assert fanout.cpus() == 1
        assert fanout.fan_out(square, range(5)) == [0, 1, 4, 9, 16]

    def test_serial_error_is_the_jobs_own(self, monkeypatch):
        monkeypatch.setattr(fanout, "cpus", lambda: 1)

        def job(j):
            raise KeyError(j)

        with pytest.raises(KeyError):
            fanout.fan_out(job, range(3))


def run_cli(argv, one_cpu):
    """stdout bytes and exit code of `python -m qk.cli argv`, on the first
    allowed CPU alone if one_cpu."""
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " if one_cpu else ""
    code = f"import os, sys; {pin}from qk.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("argv, expected_code", [
    (["lemmas", "--k-list", "2,3,2", "--trials", "6", "--json"], 0),
    (["hunt", "--k", "2", "--indep", "5", "--absorb", "1", "--trials", "40", "--n-max", "8",
      "--seed", "3", "--json"], 2),
    (["lemmas", "--k-list", "2,3,2", "--trials", "6"], 0),  # no wall-clock column any more
])
def test_one_cpu_and_all_cpus_print_the_same_bytes(argv, expected_code):
    serial = run_cli(argv, one_cpu=True)
    parallel = run_cli(argv, one_cpu=False)
    assert serial == parallel
    assert serial[0] == expected_code


def test_repeated_k_values_stay_in_order(capsys, monkeypatch, deadline):
    monkeypatch.setattr(fanout, "cpus", lambda: 2)
    assert main(["lemmas", "--k-list", "2,3,2", "--trials", "6", "--json"]) == 0
    out = capsys.readouterr().out
    ks = [r["k"] for r in json.loads(out)["result"]["results"]]
    assert ks == [2] * 9 + [3] * 9 + [2] * 9


@pytest.mark.parametrize("argv", [
    ["lemmas", "--k-list", "2,11", "--trials", "6", "--n-max", "100", "--seed", "1"],
    ["lemmas", "--k-list", "2,11", "--lemma-trials", "12", "--kings-trials", "6", "--n-max", "100",
     "--seed", "1"],
    ["lemmas", "--k-list", "2,3,11", "--lemma-trials", "6", "--kings-trials", "1", "--n-max", "100",
     "--seed", "9"],
])
def test_parallel_failure_stops_as_fast_as_the_serial_run(capsys, monkeypatch, deadline, argv):
    # A kings corpus above the enumeration cap fails in one worker after a
    # k = 2 job has succeeded, while the other worker is dealt the first
    # k = 11 lemma job, made to sleep 45 s here; the serial loop fails
    # before any k = 11 job.  At k-list 2,3,11 the k = 2 kings job
    # succeeds and k = 3's fails.
    corpus = checks.lemma_corpus

    def slow_at_11(k, *args):
        if k == 11:
            time.sleep(45)
        return corpus(k, *args)

    monkeypatch.setattr(checks, "lemma_corpus", slow_at_11)
    monkeypatch.setattr(fanout, "cpus", lambda: 1)
    assert main(argv) == 3
    serial = capsys.readouterr()
    monkeypatch.setattr(fanout, "cpus", lambda: 2)
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 20
    assert capsys.readouterr() == serial
    assert re.fullmatch(r"qk: error: instance with n=[0-9]+ exceeds enumeration cap 64\n", serial.err)
    assert_no_children()


@pytest.mark.parametrize("argv", [
    ["lemmas", "--k-list", "12", "--trials", "6"],
    ["lemmas", "--k-list", "30,25", "--trials", "6"],
    ["lemmas", "--k-list", "30", "--trials", "12"],
    ["lemmas", "--k-list", "2,30", "--trials", "6"],
], ids=" ".join)
def test_k_above_the_lemmas_cap_exits_3_before_any_corpus(capsys, monkeypatch, deadline, argv):
    # k = 12 at 6 trials ran for seconds, k = 20..29 for minutes; from
    # k = 30 a corpus instance exceeded the enumeration cap
    for name in ("lemma_corpus", "kings_corpus"):
        monkeypatch.setattr(checks, name, lambda *a, **kw: pytest.fail("a corpus was built"))
    k = max(int(k) for k in argv[2].split(","))
    for workers in (1, 2):
        monkeypatch.setattr(fanout, "cpus", lambda: workers)
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"qk: error: k={k} exceeds lemmas k cap 11\n")
    assert_no_children()


def test_failing_corpus_exits_3_with_the_serial_message():
    code, out, err = run_cli(["lemmas", "--n-max", "100"], one_cpu=False)
    assert code == 3
    assert out == b""
    assert err == b"qk: error: instance with n=99 exceeds enumeration cap 64\n"


ERROR_SAMPLES = [
    errors.QkError("plain message"),
    errors.LoopArc(3),
    errors.DuplicateArc(1, 2),
    errors.VertexOutOfRange(7, 5),
    errors.InstanceTooLarge(99, 64),
    errors.NotQuasiTransitiveInput("candidate (0,) failed"),
    errors.EdgeListParseError(4, "duplicate arc 0 1", "g.edges"),
    errors.EdgeListParseError(2, "not an integer"),
]


def test_error_samples_cover_every_error_class():
    classes = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.QkError)
    }
    assert {type(e) for e in ERROR_SAMPLES} == classes


@pytest.mark.parametrize("err", ERROR_SAMPLES, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)
