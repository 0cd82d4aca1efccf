"""Starts child Python processes for run.py and reports what each one used.

    python -S bench/launch.py STDOUT_FILE STDERR_FILE

Reads one JSON list of interpreter arguments per line on stdin (``["-m",
"qk.cli", ...]`` for a qk command), runs ``python *args`` with its stdout
and stderr sent to the two files, waits for it with os.wait4 and writes one
JSON line back: [exit code, wall s, user + system CPU s, peak RSS KiB].
End of input ends the launcher.

A child's ru_maxrss is never below the peak RSS of the process that spawned
it (Linux keeps the spawner's high-water mark across fork and exec), so
children are spawned from this small process rather than from run.py,
whose memory grows as it parses large --json documents.
"""

import json
import os
import sys
import time


def main() -> None:
    out_path, err_path = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    for line in sys.stdin:
        argv = [sys.executable, *json.loads(line)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        result = [os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
