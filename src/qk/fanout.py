"""Run independent jobs on the CPUs this process may use.

``fan_out(fn, jobs)`` returns ``[fn(job) for job in jobs]``, and when a job
raises, it raises what that loop would raise.  With one CPU allowed, or on
a platform without ``os.fork`` or ``os.sched_getaffinity`` (macOS,
Windows), it runs exactly that loop in this process, so ``taskset -c 0``
gives a serial run.

Otherwise it forks w workers, one per allowed CPU and at most one per job,
and deals the jobs round-robin: worker i runs jobs i, i + w, i + 2w, ... in
order.  Each worker sends back one pickle over its own pipe, its results
or ``None`` at its first job that raises anything (``SystemExit`` and
``KeyboardInterrupt`` too) or if its results do not pickle, and leaves
with ``os._exit(0)``.  No exception crosses a pipe, and no worker prints a
traceback.  A worker that sends nothing, or is killed, counts as a
``None``.  The forked path returns only a complete success: at the first
``None`` the parent kills the other workers and runs the serial loop
itself, which raises the serial error since qk's jobs are seeded and
deterministic.  Every worker failure takes this one path.  Jobs before a
failure may run twice, and a failing run takes at most the time its
failing worker needs to reach that job plus the serial loop's time to the
first failure.  The parent reads the pipes as they fill (``select``) and
reaps every worker with ``waitpid``, so the rusage of the process (and a
``wait4`` on it) counts the workers' CPU time and peak RSS.  ``pickle`` and
``select`` are imported only on this path.
"""

from __future__ import annotations

import os


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
    results = _forked(fn, jobs, workers) if workers > 1 else None
    if results is None:  # one CPU, or a job failed in a worker
        results = [fn(job) for job in jobs]
    return results


def _forked(fn, jobs, workers: int) -> list | None:
    """The results of every job from workers forked for them, or None as
    soon as one worker reports a failure."""
    import pickle
    import select
    import signal

    live: dict[int, tuple] = {}  # read end of a result pipe -> (worker, pid, bytes read)
    results = [None] * len(jobs)
    try:
        for i in range(workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, jobs, i, workers, w)
            os.close(w)
            live[r] = (i, pid, [])
        while live:
            for r in select.select(list(live), [], [])[0]:
                data = os.read(r, 1 << 16)
                if data:
                    live[r][2].append(data)
                    continue
                i, pid, reply = live.pop(r)
                os.close(r)
                status = os.waitpid(pid, 0)[1]  # not 0: killed, perhaps mid-reply
                done = pickle.loads(b"".join(reply)) if reply and not status else None
                if done is None:
                    return None
                results[i::workers] = done
    finally:
        for r, (_, pid, _) in live.items():  # a failure: stop the rest
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _work(fn, jobs, i: int, workers: int, out: int) -> None:
    """A worker's life: run jobs i, i + workers, ... in order, write the
    pickle of their results, or of None at the first that raises anything
    (SystemExit and KeyboardInterrupt too), to out, then exit.  os._exit
    skips the parent's atexit handlers and never flushes stdio buffers the
    worker inherited; a reply it could not write reads as None."""
    import pickle

    try:
        try:
            reply = pickle.dumps([fn(jobs[j]) for j in range(i, len(jobs), workers)])
        except BaseException:  # the parent's serial rerun raises it again
            reply = pickle.dumps(None)
        with open(out, "wb") as fh:
            fh.write(reply)
    finally:
        os._exit(0)
