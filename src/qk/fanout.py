"""Run independent jobs on the CPUs this process may use.

``fan_out(fn, jobs)`` returns ``[fn(job) for job in jobs]``, and when a job
raises, it raises what that loop would raise: the exception of the failing
job that comes first in ``jobs``.  With one CPU allowed, or on a platform
without ``os.fork`` or ``os.sched_getaffinity`` (macOS, Windows), it runs
exactly that loop in this process, so ``taskset -c 0`` gives a serial run.

Otherwise it forks w workers, one per allowed CPU and at most one per job,
and deals the jobs round-robin: worker i runs jobs i, i + w, i + 2w, ... in
order.  Each worker stops at its first failing job, then sends its results
and that failure back as one pickle over its own pipe and leaves with
``os._exit``.  A worker skips only jobs after its own failure, so the
failure that comes first in ``jobs`` is always among those sent back.  The
parent reaps every worker with ``waitpid``, so the rusage of the process
(and a ``wait4`` on it) counts the workers' CPU time and peak RSS.
``pickle`` is imported only on this path.
"""

from __future__ import annotations

import os

from .errors import QkError


def cpus() -> int:
    """How many CPUs this process may run on; 1 where it cannot fork
    workers or cannot tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def fan_out(fn, jobs) -> list:
    """[fn(job) for job in jobs], on up to one worker process per CPU.
    jobs is a sequence (a range, tuple or list), read as given: a range of
    trials is never turned into a list."""
    workers = min(cpus(), len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    return _forked(fn, jobs, workers)


def _forked(fn, jobs, workers: int) -> list:
    import pickle
    import signal

    children: list[tuple[int, int]] = []  # (pid, read end of its result pipe)
    reaped: set[int] = set()
    try:
        for i in range(workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, jobs, slice(i, None, workers), w)
            os.close(w)
            children.append((pid, r))
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
        for pid, r in children:
            os.close(r)
            if pid not in reaped:  # this process is failing: stop the rest
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = [None] * len(jobs)
    first = None  # (job number, exception) of the failure first in input order
    for i, (done, failed) in enumerate(map(pickle.loads, replies)):
        # worker i ran jobs i, i + w, ... up to, not including, job stop
        stop = i + workers * len(done)
        results[i:stop:workers] = done
        if failed is not None and (first is None or stop < first[0]):
            first = (stop, failed)
    if first is not None:
        raise first[1]
    return results


def _work(fn, jobs, mine: slice, out: int) -> None:
    """A worker's life: run jobs[mine] in order, stopping at the
    first that raises, write (results, failure) to out, then exit.
    os._exit skips the parent's atexit handlers and never flushes stdio
    buffers the worker inherited."""
    import pickle

    status = 1
    try:
        done, failed = [], None
        for job in jobs[mine]:
            try:
                done.append(fn(job))
            except Exception as exc:
                failed = exc
                break
        with open(out, "wb") as fh:
            fh.write(pickle.dumps((done, failed)))
        status = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        raise
    finally:
        os._exit(status)
