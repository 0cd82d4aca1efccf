"""Run independent jobs on the CPUs this process may use.

``fan_out(fn, jobs)`` returns ``[fn(job) for job in jobs]``, and when a job
raises, it raises what that loop would raise: the exception of the failing
job that comes first in ``jobs``.  With one CPU allowed, or on a platform
without ``os.fork`` or ``os.sched_getaffinity`` (macOS, Windows), it runs
exactly that loop in this process, so ``taskset -c 0`` gives a serial run.

Otherwise it forks w workers, one per allowed CPU and at most one per job,
and deals the jobs round-robin: worker i runs jobs i, i + w, i + 2w, ... in
order.  Each worker stops at its first failing job, sends its results and
that failure back as one pickle over its own pipe, and leaves with
``os._exit``.  A shared anonymous ``mmap`` holds each worker's current job
and the lowest failed job known: no worker starts a job above that, and
the parent, reading the pipes as they fill (``select``), kills every worker
whose current job is above it.  A job below a known failure always runs to
its end, so the failure first in ``jobs`` is always sent back.  The parent
reaps every worker with ``waitpid``, so the rusage of the process (and a
``wait4`` on it) counts the workers' CPU time and peak RSS.  ``mmap``,
``pickle`` and ``select`` are imported only on this path.
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
    import mmap
    import pickle
    import select
    import signal

    # slots[i]: the job worker i runs; slots[workers]: the first failed job known
    slots = memoryview(mmap.mmap(-1, 8 * (workers + 1))).cast("q")
    slots[workers] = len(jobs)
    live: dict[int, tuple] = {}  # read end of a result pipe -> (worker, pid, bytes read)
    results = [None] * len(jobs)
    error = None  # the exception of job slots[workers]

    def stop(r: int) -> None:
        pid = live.pop(r)[1]
        os.close(r)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

    try:
        for i in range(workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, jobs, i, workers, slots, w)
            os.close(w)
            live[r] = (i, pid, [])
        while live:
            for r in select.select(list(live), [], [])[0]:
                if r not in live:  # stopped earlier in this pass
                    continue
                data = os.read(r, 1 << 16)
                if data:
                    live[r][2].append(data)
                    continue
                i, pid, reply = live.pop(r)
                os.close(r)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code or not reply:
                    how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                    raise QkError(f"worker process {pid} ended with {how} without a result")
                done, failed = pickle.loads(b"".join(reply))
                # worker i ran jobs i, i + w, ... up to, not including, job end
                end = i + workers * len(done)
                results[i:end:workers] = done
                if failed is not None and end < slots[workers]:
                    error, slots[workers] = failed, end
                    for other in [o for o, (j, *_) in live.items() if slots[j] > end]:
                        stop(other)
    finally:
        for r in list(live):  # this process is failing: stop the rest
            stop(r)
    if error is not None:
        raise error
    return results


def _work(fn, jobs, i: int, workers: int, slots, out: int) -> None:
    """A worker's life: run jobs i, i + workers, ... in order, stopping at
    the first that raises or at the first above slots[workers], write
    (results, failure) to out, then exit.  os._exit skips the parent's
    atexit handlers and never flushes stdio buffers the worker inherited."""
    import pickle

    status = 1
    try:
        done, failed = [], None
        for j in range(i, len(jobs), workers):
            slots[i] = j  # before the check: the parent writes a failure, then reads this
            if j > slots[workers]:
                break
            try:
                done.append(fn(jobs[j]))
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
