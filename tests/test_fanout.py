"""qk.fanout: results and errors equal to the serial loop, no child left
behind, the serial path on one CPU, and the errors it carries back."""

from __future__ import annotations

import inspect
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qk
from qk import errors, fanout
from qk.cli import main

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
def three_workers(monkeypatch, deadline):
    """Fork three workers whatever the host allows."""
    monkeypatch.setattr(fanout, "cpus", lambda: 3)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square(j):
    return j * j


class TestForked:
    def test_results_in_input_order(self, three_workers):
        assert fanout.fan_out(square, range(40)) == [j * j for j in range(40)]
        assert_no_children()

    def test_jobs_run_in_workers(self, three_workers):
        pids = fanout.fan_out(lambda j: os.getpid(), range(6))
        assert os.getpid() not in pids
        assert_no_children()

    def test_first_failure_in_input_order_is_raised(self, three_workers):
        # The first worker forked most likely takes job 0 and, when it is
        # done, fails on a later job than the other workers did.
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

    def test_worker_that_exits_without_a_result(self, three_workers):
        def job(j):
            if j == 2:
                os._exit(7)
            return j

        with pytest.raises(errors.QkError, match="exit status 7 without a result"):
            fanout.fan_out(job, range(6))
        assert_no_children()

    def test_worker_killed_by_a_signal(self, three_workers):
        def job(j):
            if j == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return j

        with pytest.raises(errors.QkError, match="signal 9 without a result"):
            fanout.fan_out(job, range(3))
        assert_no_children()

    def test_more_jobs_than_one_queue_write(self, three_workers):
        # 1,500 job numbers take two writes to the queue
        assert fanout.fan_out(square, range(1500)) == [j * j for j in range(1500)]
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
