"""Benchmark of the qk command line.

    python3 bench/run.py --workload suite|hunt|files|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/qk``.  With --trace 0
each workload's fixed command list runs as child processes
(``python -m qk.cli ...`` with PYTHONPATH=src), one at a time, for about S
seconds; the end-to-end metrics are medians over those iterations, with
times scaled to a reference host's speed (see measure).  With
--trace 1 the same argv lists run in this process through ``qk.cli.main``,
alternately plain and traced, and the per-layer metrics come from the
spans.  Every command's exit code and --json document digest must match
the reference for the seed (bench/reference.json, or the one recorded by
the first run of the seed in this checkout), and the document must satisfy
the workload's invariants.  Human-readable lines come first; the last line of
stdout is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median, quantiles

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(BENCH, "reference.json")
# A fixed Python program that does not use qk: interpreter start-up and the
# standard modules qk imports, which is most of what `qk --version` does.
# It runs as a child before every timed child; see measure().
CALIBRATION = "import argparse, collections, dataclasses, hashlib, itertools, json, math, random"
# The calibration's wall time on the reference host (2-vCPU Xeon at 2.1 GHz,
# Python 3.11, in its faster state): times are reported at that host's speed.
CALIBRATION_REFERENCE_S = 0.055
MIN_ITERATIONS = 3
SETUP_REPEATS = 5
PROBES_PER_ITERATION = 3


class BenchError(Exception):
    """A failure that leaves nothing to measure (missing source, set-up)."""


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None  # an exported checkout; source_sha256 still names the code
    if os.path.exists(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    pkg = os.path.join(SRC, "qk")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def read_json(path: str, default=None):
    if not os.path.exists(path):
        return default
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def declared_units() -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class Child:
    """Runs ``python -m qk.cli argv`` (and the calibration program) through
    launch.py and reports exit code, stdout, wall time and the child's own
    CPU time and peak RSS.  Use as a context manager; leaving it stops the
    launcher."""

    def __init__(self, work: str) -> None:
        os.makedirs(work, exist_ok=True)
        self.stdout_path = os.path.join(work, "stdout.bin")
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", os.path.join(BENCH, "launch.py"), self.stdout_path,
             os.path.join(work, "stderr.txt")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=work, text=True,
        )

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def run(self, argv):
        return self._spawn(["-m", "qk.cli", *argv])

    def _spawn(self, args):
        self.launcher.stdin.write(json.dumps(args) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise BenchError(f"launcher exited with {self.launcher.wait()}")
        code, wall, cpu, rss_kib = json.loads(line)
        with open(self.stdout_path, "rb") as fh:
            out = fh.read()
        return code, out, wall, cpu, rss_kib / 1024

    def probe(self) -> float:
        code, out, wall, _, _ = self.run(["--version"])
        if code != 0 or not out.startswith(b"qk "):
            raise BenchError(f"qk --version exited {code}: {out!r}")
        return wall

    def calibrate(self) -> float:
        """Wall time of the calibration program."""
        code, _, wall, _, _ = self._spawn(["-c", CALIBRATION])
        if code != 0:
            raise BenchError(f"the calibration program exited {code}")
        return wall


def set_up(child: Child, workload: str, seed: int, repeats: int, calibrations: list):
    """Write the inputs and warm up ``repeats`` times, each after a
    calibration run; return the input digests and the set-up times.  Every
    repeat must write the same bytes."""
    inputs = os.path.join(WORK, f"inputs-{workload}")
    times, digests = [], None
    for _ in range(repeats):
        calibrations.append(child.calibrate())
        t0 = time.perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        got = workloads.write_inputs(workload, seed, inputs, lambda argv: child.run(argv)[0])
        child.probe()
        times.append(time.perf_counter() - t0)
        if digests is not None and got != digests:
            raise BenchError("set-up wrote different inputs for the same seed")
        digests = got
    return inputs, digests, times


class Reference:
    """Exit code and --json document digest per command of one (workload,
    seed).  A seed listed in bench/reference.json is checked against those
    committed entries whatever the source; for any other seed the first run
    in this checkout records the entries under .work/ and later runs
    compare with them."""

    def __init__(self, entries: dict, path: str | None = None) -> None:
        self.entries = entries
        self.path = path

    @classmethod
    def load(cls, workload: str, seed: int) -> "Reference":
        committed = read_json(REFERENCE, {}).get(workload, {}).get(str(seed))
        if committed is not None:
            return cls(committed)
        path = os.path.join(WORK, f"ref-{workload}-{seed}.json")
        return cls(read_json(path, {}), path)

    def save(self) -> None:
        if self.path is None:
            return
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, sort_keys=True, indent=1)


def document_digest(doc: dict) -> str:
    """SHA-256 of the --json document in canonical form, without
    ``tool_version`` so that a version bump alone changes no digest."""
    body = {k: v for k, v in doc.items() if k != "tool_version"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def verify(cmd, code: int, out: bytes, ref: Reference, digests: dict) -> str | None:
    """None if the command's output is correct, else what is wrong."""
    try:
        doc = json.loads(out)
    except ValueError:
        return f"{cmd.name}: stdout is not JSON (exit {code})"
    try:
        problem = cmd.check(code, doc)
    except (KeyError, TypeError) as exc:
        problem = f"--json document lacks {exc}"
    if problem:
        return f"{cmd.name}: {problem}"
    if cmd.input and doc["input_digest"] != digests[cmd.input]:
        return f"{cmd.name}: input_digest differs from the file's SHA-256"
    seen = [code, document_digest(doc)]
    if ref.entries.setdefault(cmd.name, seen) != seen:
        return f"{cmd.name}: exit {code} / document digest differ from the reference {ref.entries[cmd.name]}"
    return None


def measure(child: Child, workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics over repeated command lists.

    The command list's wall and CPU time are the sums over its commands of
    each command's median, and its peak RSS the largest such median, which
    keeps one slow sample of one command from moving the total.

    Times are reported at the reference host's speed.  The calibration
    program runs before every timed child, and each sample is multiplied by
    its speed factor: CALIBRATION_REFERENCE_S over the median calibration
    time of the same iteration (of the whole set-up, for set-up times).  A
    shared host's speed can change by up to half for seconds to minutes at
    a time, and a change moves start-up and the qk commands by similar
    shares; the calibration does not use qk, so the factor does not depend
    on the code measured.  The unscaled figures are kept under "raw"."""
    calibrations: list[float] = []
    inputs, digests, setups = set_up(child, workload, seed, SETUP_REPEATS, calibrations)
    setup_factor = CALIBRATION_REFERENCE_S / median(calibrations)
    factors = []
    cmds = workloads.commands(workload, seed, inputs)
    ref = Reference.load(workload, seed)
    runs = {c.name: {"wall_s": [], "cpu_s": [], "peak_rss_mb": []} for c in cmds}
    probes, errors, attempted = [], [], 0
    start = time.perf_counter()
    for iteration in itertools.count(1):
        t0 = time.perf_counter()
        calibrations = []
        for _ in range(PROBES_PER_ITERATION):
            calibrations.append(child.calibrate())
            probes.append(child.probe())
        for cmd in cmds:
            calibrations.append(child.calibrate())
            code, out, *usage = child.run(cmd.argv)
            for values, value in zip(runs[cmd.name].values(), usage):
                values.append(value)
            attempted += 1
            problem = verify(cmd, code, out, ref, digests)
            if problem:
                errors.append(problem)
        factors.append(CALIBRATION_REFERENCE_S / median(calibrations))
        now = time.perf_counter()
        if iteration >= MIN_ITERATIONS and now - start + (now - t0) > seconds:
            break
    if not errors:
        ref.save()
    per_command = {name: {k: median(v) for k, v in r.items()} for name, r in runs.items()}
    for name, r in runs.items():
        for key in ("wall_s", "cpu_s"):
            per_command[name]["scaled_" + key] = median(v * f for v, f in zip(r[key], factors))
    probe_factors = [f for f in factors for _ in range(PROBES_PER_ITERATION)]
    return {
        "metrics": {
            "wall_s": sum(r["scaled_wall_s"] for r in per_command.values()),
            "cpu_s": sum(r["scaled_cpu_s"] for r in per_command.values()),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in per_command.values()),
            "startup_s": median(p * f for p, f in zip(probes, probe_factors)),
            "setup_s": median(setups) * setup_factor,
        },
        "raw": {
            "wall_s": sum(r["wall_s"] for r in per_command.values()),
            "cpu_s": sum(r["cpu_s"] for r in per_command.values()),
            "startup_s": median(probes),
            "setup_s": median(setups),
        },
        "speed_factors": {"setup": setup_factor, "iterations": factors},
        "samples": {"startup_s": probes, "setup_s": setups},
        "iterations": iteration,
        "commands": per_command,
        "command_samples": runs,
        "attempted": attempted,
        "errors": errors,
    }


def run_in_process(cmds, tracer=None):
    """Run each argv through qk.cli.main here; return (wall, [(code, stdout)])."""
    from qk import cli

    results, wall = [], 0.0
    with tracer or contextlib.nullcontext():
        for cmd in cmds:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(cmd.argv))
            wall += time.perf_counter() - t0
            results.append((code, buf.getvalue().encode("utf-8")))
    return wall, results


def measure_traced(child: Child, workload: str, seed: int, seconds: float) -> dict:
    """The traced run: per-layer metrics, and the tracing overhead as traced
    minus plain wall time of the same in-process command list."""
    inputs, digests, _ = set_up(child, workload, seed, 1, [])
    cmds = workloads.commands(workload, seed, inputs)
    ref = Reference.load(workload, seed)
    errors, attempted = [], 0
    if not all(c.name in ref.entries for c in cmds):
        for cmd in cmds:  # record the reference from the CLI as a child process
            code, out, *_ = child.run(cmd.argv)
            problem = verify(cmd, code, out, ref, digests)
            if problem:
                raise BenchError(f"reference run failed: {problem}")
        ref.save()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    walls = {"plain": [], "traced": []}
    layer_samples: dict[str, list] = {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracer = tracing.Tracer()
        runs = {"plain": run_in_process(cmds), "traced": run_in_process(cmds, tracer)}
        for kind, (wall, results) in runs.items():
            walls[kind].append(wall)
            for cmd, (code, out) in zip(cmds, results):
                attempted += 1
                problem = verify(cmd, code, out, ref, digests)
                if problem:
                    errors.append(f"{kind} in-process {problem}")
        out_bytes = sum(len(out) for _, out in runs["traced"][1])
        for name, value in tracing.layer_metrics(tracer.spans, tracer.counters, out_bytes).items():
            layer_samples.setdefault(name, []).append(value)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    tracing.write_spans(os.path.join(WORK, f"spans-{workload}-{seed}.jsonl.gz"), tracer.spans)
    metrics = {name: median(values) for name, values in layer_samples.items()}
    metrics["trace.overhead_s"] = median(walls["traced"]) - median(walls["plain"])
    return {"metrics": metrics, "samples": walls, "iterations": len(walls["traced"]),
            "attempted": attempted, "errors": errors}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def report(workload: str, result: dict, units: dict) -> None:
    for name, value in result["metrics"].items():
        line = f"{workload:6s} {name:44s} {value:14.6f} {units[name]}"
        values = result["samples"].get(name)
        if values:
            q1, q3 = quartiles(values)
            line += f"   unscaled: median of {len(values)}, q1 {q1:.6f} q3 {q3:.6f}"
        print(line)
    if "raw" in result:
        print(f"{workload:6s}   without the speed factor (median {median(result['speed_factors']['iterations']):.4f}): "
              + "  ".join(f"{k} {v:.6f}" for k, v in result["raw"].items()))
    for name, medians in result.get("commands", {}).items():
        print(f"{workload:6s}   {name:42s} " + "  ".join(f"{k} {v:.6f}" for k, v in medians.items()))
    if "plain" in result["samples"]:
        print(f"{workload:6s}   in-process wall, plain / traced: {median(result['samples']['plain']):.6f}"
              f" / {median(result['samples']['traced']):.6f} s")
    print(f"{workload:6s}   medians over {result['iterations']} iterations")
    rate = len(result["errors"]) / result["attempted"]
    print(f"{workload:6s} {'error_rate':44s} {rate:14.6f} ratio   "
          f"{len(result['errors'])} of {result['attempted']} commands failed")
    for problem in result["errors"]:
        print(f"{workload:6s} FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qk", "cli.py")):
        print(f"run.py: no qk source under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("QK_ENUM_CAP", None)  # measure the program's own limits, in and out of process
    units = declared_units()
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    measure_one = measure_traced if args.trace else measure
    metrics, attempted, failed = {}, 0, 0
    try:
        with Child(WORK) as child:
            results = {name: measure_one(child, name, args.seed, args.seconds) for name in names}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        report(name, result, units)
        with open(os.path.join(WORK, f"report-{name}-{args.seed}-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": args.seed, "seconds": args.seconds,
                       "environment": env, **result}, fh, indent=1, sort_keys=True)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
        attempted += result["attempted"]
        failed += len(result["errors"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
