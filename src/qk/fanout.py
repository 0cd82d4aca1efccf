"""Run independent jobs on the CPUs this process may use.

``fan_out(fn, jobs)`` returns ``[fn(job) for job in jobs]``, and when a job
raises, it raises what that loop would raise: the exception of the failing
job that comes first in ``jobs``.  With one CPU allowed, or on a platform
without ``os.fork`` or ``os.sched_getaffinity`` (macOS, Windows), it runs
exactly that loop in this process, so ``taskset -c 0`` gives a serial run.

Otherwise it forks one worker per allowed CPU, at most one per job.  The
workers take job numbers from one shared pipe in input order, so a worker
that finishes early takes the next job.  Each worker stops at its first
failing job, then sends its results and that failure back as one pickle
over its own pipe and leaves with ``os._exit``.  The parent reaps every
worker with ``waitpid``, so the rusage of the process (and a ``wait4`` on
it) counts the workers' CPU time and peak RSS.  ``pickle`` is imported
only on this path.
"""

from __future__ import annotations

import os

from .errors import QkError

# A job number in the queue: 4 bytes, little-endian.
_RECORD = 4
# Queue writes of at most PIPE_BUF (4096 on Linux) bytes land whole, so a
# worker's 4-byte read never sees part of a record.
_WRITE = 4096


def cpus() -> int:
    """How many CPUs this process may run on; 1 where it cannot fork
    workers or cannot tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def fan_out(fn, jobs) -> list:
    """[fn(job) for job in jobs], on up to one worker process per CPU."""
    jobs = list(jobs)
    workers = min(cpus(), len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    return _forked(fn, jobs, workers)


def _forked(fn, jobs: list, workers: int) -> list:
    import pickle
    import signal

    queue_r, queue_w = os.pipe()
    children: list[tuple[int, int]] = []  # (pid, read end of its result pipe)
    reaped: set[int] = set()
    try:
        for _ in range(workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, jobs, queue_r, w, queue_w)
            os.close(w)
            children.append((pid, r))
        os.close(queue_r)
        queue_r = -1
        records = b"".join(i.to_bytes(_RECORD, "little") for i in range(len(jobs)))
        try:
            for at in range(0, len(records), _WRITE):
                os.write(queue_w, records[at : at + _WRITE])
        except BrokenPipeError:
            pass  # every worker has stopped; their replies say why
        os.close(queue_w)
        queue_w = -1
        replies = []
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if code or not data:
                how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                raise QkError(f"worker process {pid} ended with {how} without a result")
            replies.append(data)
    finally:
        for fd in (queue_r, queue_w):
            if fd >= 0:
                os.close(fd)
        for pid, r in children:
            os.close(r)
            if pid not in reaped:  # this process is failing: stop the rest
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = [None] * len(jobs)
    first = None
    for done, failed in map(pickle.loads, replies):
        for i, value in done:
            results[i] = value
        if failed is not None and (first is None or failed[0] < first[0]):
            first = failed
    if first is not None:
        raise first[1]
    return results


def _work(fn, jobs: list, queue: int, out: int, queue_w: int) -> None:
    """A worker's life: close its copy of the queue's write end (or the
    queue never ends), run the jobs it takes from the queue, stopping at
    the first that raises, write (results, failure) to out, then exit.
    os._exit skips the parent's atexit handlers and never flushes stdio
    buffers the worker inherited."""
    import pickle

    status = 1
    try:
        os.close(queue_w)
        done, failed = [], None
        while failed is None and (record := os.read(queue, _RECORD)):
            i = int.from_bytes(record, "little")
            try:
                done.append((i, fn(jobs[i])))
            except Exception as exc:
                failed = (i, exc)
        os.close(queue)  # once every worker has, a parent still writing gets EPIPE
        with open(out, "wb") as fh:
            fh.write(pickle.dumps((done, failed)))
        status = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        raise
    finally:
        os._exit(status)
