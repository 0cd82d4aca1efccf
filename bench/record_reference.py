"""Records the committed reference: exit code and --json document digest
of every command of every workload, for a range of seeds.

    python3 bench/record_reference.py FIRST LAST

Runs each command list through ``qk.cli.main`` in this process, checks the
workload invariants, and merges the entries for seeds FIRST..LAST into
bench/reference.json.  Rerun it only when a change to qk is meant to change
what a command prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import run
import workloads

sys.path.insert(0, run.SRC)
from qk import cli  # noqa: E402


def record(workload: str, seed: int, inputs: str) -> dict:
    def run_qk(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    digests = workloads.write_inputs(workload, seed, inputs, run_qk)
    cmds = workloads.commands(workload, seed, inputs)
    ref = run.Reference({})
    _, results = run.run_in_process(cmds)
    for cmd, (code, out) in zip(cmds, results):
        problem = run.verify(cmd, code, out, ref, digests)
        if problem:
            raise SystemExit(f"{workload} seed {seed}: {problem}")
    return ref.entries


def main() -> None:
    first, last = map(int, sys.argv[1:])
    committed = run.read_json(run.REFERENCE, {})
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for seed in range(first, last + 1):
            for workload in workloads.WORKLOADS:
                entries = record(workload, seed, os.path.join(tmp, workload))
                committed.setdefault(workload, {})[str(seed)] = entries
            with open(run.REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(committed, fh, sort_keys=True, indent=1)
                fh.write("\n")
            print(f"seed {seed} recorded", flush=True)


if __name__ == "__main__":
    main()
