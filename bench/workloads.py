"""The benchmark's workloads: the inputs each one writes during set-up, the
qk command lines it times, and the invariants each command's output must
satisfy.

Every input follows from the benchmark seed; the program sees only the
generated files and the command-line seeds below.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("suite", "hunt", "files")

# `--seed S` plus every other default: k 2..6, 200 king trials, 60 lemma
# trials, n-max 10.
SUITE_ARGS = ("lemmas", "--json")
# At the default n-max of 9 half of each run is interpreter start-up.  At 16
# (the hunt's cap) a few trials with 2**16 subsets make the subset count vary
# by 23% (IQR over median) between seeds; 1000 trials at n-max 15 keep the
# subset search the largest layer while the count varies by about 4%.
HUNT_KS = (2, 3, 4, 5)
HUNT_ARGS = ("--trials", "1000", "--n-max", "15")


@dataclass(frozen=True)
class Command:
    """One timed qk invocation: ``python -m qk.cli *argv``.

    ``check(exit_code, doc)`` returns None when the parsed --json document
    and the exit code satisfy the command's invariants, else a message.
    ``input`` is the edge-list file the command reads, if any."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, dict], str | None]
    input: str | None = None


def edge_list(n: int, arcs) -> str:
    """Canonical edge-list text (arcs sorted), as ``qk.edgelist.emit`` writes it."""
    arcs = sorted(arcs)
    return f"{n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)


def long_tournament(n: int) -> str:
    """i -> i+1 and j -> i for every j >= i+2: a tournament whose geodesic
    0 .. n-1 is as long as possible, k-quasi-transitive for every k."""
    arcs = [(i, i + 1) for i in range(n - 1)]
    arcs += [(j, i) for i in range(n) for j in range(i + 2, n)]
    return edge_list(n, arcs)


def erdos_renyi(n: int, p: float, seed: int) -> str:
    """Seeded loop-free G(n, p) digraph."""
    rng = random.Random(seed)
    return edge_list(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])


def _check_lemmas(code, doc):
    violations = doc["result"]["violations"]
    if violations != 0 or code not in (0, 1):
        return f"lemmas: {violations} violations, exit {code}"
    return None


def _check_hunt(code, doc):
    r = doc["result"]
    hits = len(r["counterexamples"])
    if r["kernels_found"] + hits != r["trials"] or code != (2 if hits else 0):
        return f"hunt: {r['kernels_found']} kernels + {hits} hits != {r['trials']} trials, exit {code}"
    return None


def _check_census(code, doc):
    failed = [row["tag"] for row in doc["result"]["counting_audit"] if row["passed"] is False]
    if failed or code != 0:
        return f"census: failed audits {failed}, exit {code}"
    return None


def _check_fast(code, doc):
    if doc["result"]["fast_king"] is None or code != 0:
        return f"kings --fast: no king, exit {code}"
    return None


def _check_construct(code, doc):
    status = doc["result"]["status"]
    if status != "VERIFIED" or code != 0:
        return f"kernel --construct: {status}, exit {code}"
    return None


def _check_recognition(expect_qt: bool):
    def check(code, doc):
        qt, violations = doc["result"]["quasi_transitive"], doc["result"]["violations"]
        if qt != expect_qt or qt == bool(violations) or code != (0 if qt else 1):
            return f"check: quasi_transitive {qt} with {len(violations)} violations, exit {code}"
        return None

    return check


def commands(workload: str, seed: int, inputs_dir: str) -> list[Command]:
    """The fixed command list one iteration of the workload runs."""
    if workload == "suite":
        return [Command("lemmas", (*SUITE_ARGS, "--seed", str(seed)), _check_lemmas)]
    if workload == "hunt":
        return [
            Command(f"hunt-k{k}", ("hunt", "--k", str(k), *HUNT_ARGS, "--seed", str(seed), "--json"), _check_hunt)
            for k in HUNT_KS
        ]
    if workload != "files":
        raise ValueError(f"unknown workload {workload!r}")

    def on(name, label, sub, *args, check):
        path = os.path.join(inputs_dir, f"{name}.edges")
        return Command(f"{name}-{label}", (sub, path, *args, "--json"), check, path)

    return [
        on("LT500", "census", "kings", "--k", "4", "--census", check=_check_census),
        on("LT500", "fast", "kings", "--k", "4", "--fast", check=_check_fast),
        on("LT500", "construct", "kernel", "--k", "4", "--construct", check=_check_construct),
        on("LT32", "check", "check", "--k", "6", check=_check_recognition(True)),
        on("ER64", "check", "check", "--k", "4", check=_check_recognition(False)),
        on("GEN64", "census", "kings", "--k", "3", "--census", "--checked", check=_check_census),
        on("GEN64", "construct", "kernel", "--k", "3", "--construct", check=_check_construct),
    ]


def write_inputs(workload: str, seed: int, inputs_dir: str, run_qk) -> dict[str, str]:
    """Write the workload's input files and return their SHA-256 digests by path.

    ``run_qk(argv)`` runs the qk CLI and returns its exit code; the files
    workload uses it for ``qk gen``."""
    os.makedirs(inputs_dir, exist_ok=True)
    if workload != "files":
        return {}
    texts = {
        "LT500": long_tournament(500),
        "LT32": long_tournament(32),
        "ER64": erdos_renyi(64, 0.07, seed),
    }
    for name, text in texts.items():
        with open(os.path.join(inputs_dir, f"{name}.edges"), "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    gen = os.path.join(inputs_dir, "GEN64.edges")
    code = run_qk(["gen", "--n", "64", "--k", "3", "--p", "0.04", "--seed", str(seed), "-o", gen])
    if code != 0:
        raise RuntimeError(f"qk gen exited {code}")
    digests = {}
    for name in (*texts, "GEN64"):
        path = os.path.join(inputs_dir, f"{name}.edges")
        with open(path, "rb") as fh:
            digests[path] = hashlib.sha256(fh.read()).hexdigest()
    return digests
