"""Command-line surface: check / kings / kernel / gen / hunt / lemmas.

Exit codes: 0 success or property holds, 1 property fails (no king found
with --fast, kernel refuted or absent, vacuous lemma coverage), 2 a
counterexample-grade failure (hunt hit, census audit failure, checker
violation), 3 usage, file, or input errors.  Reports are human-readable by
default; --json emits a byte-stable document with the tool version, the
command, a content digest of the (canonical) input, and the result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from itertools import islice

from . import __version__
from .checks import run_suite, summarize
from .edgelist import MAX_VERTICES, content_digest, read_digraph, write_digraph
from .errors import EdgeListParseError, NotQuasiTransitiveInput, QkError
from .kernels import (
    construct_kplus2_kernel,
    exhaustive_kernel_search,
    hunt_conjecture,
    verify_kernel,
)
from .kings import all_r_kings, census, find_kplus1_king_fast
from .qt import FORWARD, RANDOM, GenConfig, is_k_quasi_transitive, random_qt

USAGE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means 'counterexample
    found', so usage and IO problems move to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)
_SCALARS = frozenset({int, str, bool, type(None)})
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _jsonable(x):
    """Recursively convert report objects for JSON: dataclasses to
    dicts (dropping wall-clock fields), infinities to null, tuples to
    lists, mapping keys to strings.  The common types are matched exactly
    and each dataclass's field names are looked up once per class."""
    t = type(x)
    if t in _SCALARS:
        return x
    if t is list or t is tuple:
        return [_jsonable(v) for v in x]
    names = _FIELD_NAMES.get(t)
    if names is None and dataclasses.is_dataclass(x) and not isinstance(x, type):
        names = _FIELD_NAMES[t] = tuple(
            f.name for f in dataclasses.fields(x) if f.name != "elapsed"
        )
    if names is not None:
        return {name: _jsonable(getattr(x, name)) for name in names}
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            return None
        return int(x) if x.is_integer() else x
    if isinstance(x, dict):
        return {str(key): _jsonable(value) for key, value in x.items()}
    return x


def _emit(args, command: str, digest, result, human: str) -> None:
    if args.json:
        doc = {
            "tool_version": __version__,
            "command": command,
            "input_digest": digest,
            "result": _jsonable(result),
        }
        # One write per encoder chunk is slow and one string costs the whole
        # document in memory, so write batches; no chunk is ever empty.
        chunks = _ENCODER.iterencode(doc)
        while batch := "".join(islice(chunks, 4096)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    elif human:
        print(human)


def _fmt_set(vs) -> str:
    return "{" + ", ".join(str(v) for v in vs) + "}"


def _cmd_check(args) -> int:
    d = read_digraph(args.file)
    violations = is_k_quasi_transitive(d, args.k)
    ok = not violations
    human = ""
    if not args.json:
        lines = [
            f"path {'->'.join(map(str, v.path))}: endpoints {v.u} and {v.v} non-adjacent"
            for v in violations
        ]
        lines.append(f"{args.k}-quasi-transitive: {'yes' if ok else f'no ({len(violations)} violations)'}")
        human = "\n".join(lines)
    _emit(
        args,
        "check",
        content_digest(d),
        {"k": args.k, "quasi_transitive": ok, "violations": violations},
        human,
    )
    return 0 if ok else 1


def _cmd_kings(args) -> int:
    d = read_digraph(args.file)
    digest = content_digest(d)
    if args.census:
        rep = census(d, args.k, checked=args.checked)
        failed = rep.failed_audits
        lines = [f"out-eccentricities: {list(rep.ecc_out)}"]
        for r in sorted(rep.kings_by_radius):
            lines.append(f"{r}-kings: {_fmt_set(rep.kings_by_radius[r])}")
        lines.append(
            f"unique initial component: {rep.initial_component if rep.unique_initial else 'no'}"
        )
        lines.append(f"fast (k+1)-king: {rep.fast_king}")
        lines.append(
            f"max out-degree {rep.max_out_degree} at {_fmt_set(rep.max_out_degree_vertices)}"
        )
        for row in rep.counting_audit:
            status = "info" if row.passed is None else ("PASS" if row.passed else "FAIL")
            lines.append(f"audit {row.tag}: expected {row.expected}, observed {row.observed} [{status}]")
        _emit(args, "kings", digest, rep, "\n".join(lines))
        return 2 if failed else 0
    if args.fast:
        king = find_kplus1_king_fast(d, args.k)
        found = king is not None
        human = (
            f"fast ({args.k + 1})-king: {king}"
            if found
            else f"no ({args.k + 1})-king: multiple initial components"
        )
        _emit(args, "kings", digest, {"k": args.k, "fast_king": king}, human)
        return 0 if found else 1
    kings = all_r_kings(d, args.k + 1)
    _emit(
        args,
        "kings",
        digest,
        {"k": args.k, "radius": args.k + 1, "kings": kings},
        f"({args.k + 1})-kings: {_fmt_set(kings) if kings else 'none'}",
    )
    return 0


def _parse_ints(text: str, what: str, item) -> tuple[int, ...]:
    """Comma- or space-separated integers, each read by the argparse type
    item; what names them in the error."""
    text = text.strip()
    try:
        return tuple(map(item, text.replace(",", " ").split()))
    except argparse.ArgumentTypeError as exc:
        raise QkError(f"cannot parse {what} {text!r}: {exc}")


def _cmd_kernel(args) -> int:
    d = read_digraph(args.file)
    digest = content_digest(d)
    if args.construct:
        cert = construct_kplus2_kernel(d, args.k)
        s = cert.candidate
        _emit(
            args,
            "kernel",
            digest,
            {"mode": "construct", "kernel": s, "certificate": cert, "status": cert.status},
            f"({args.k + 2}, {args.k + 1})-kernel: {_fmt_set(s)} [{cert.status}]",
        )
        return 0
    indep = args.indep if args.indep is not None else args.k + 1
    absorb = args.absorb if args.absorb is not None else args.k
    if args.verify is not None:
        cert = verify_kernel(d, _parse_ints(args.verify, "vertex set", _int_value), indep, absorb)
        witness = "" if cert.verified else f" witness {cert.witness}"
        _emit(
            args,
            "kernel",
            digest,
            {"mode": "verify", "certificate": cert, "status": cert.status},
            f"{cert.status}: {_fmt_set(cert.candidate)} as a ({indep}, {absorb})-kernel{witness}",
        )
        return 0 if cert.verified else 1
    s = exhaustive_kernel_search(d, indep, absorb)
    found = s is not None
    human = (
        f"({indep}, {absorb})-kernel: {_fmt_set(s)}"
        if found
        else f"no ({indep}, {absorb})-kernel"
    )
    _emit(
        args,
        "kernel",
        digest,
        {"mode": "exhaustive", "radii": (indep, absorb), "kernel": s},
        human,
    )
    return 0 if found else 1


def _cmd_gen(args) -> int:
    cfg = GenConfig(n=args.n, k=args.k, arc_prob=args.p, seed=args.seed, orientation_rule=args.rule)
    d = random_qt(cfg)
    digest = write_digraph(args.output, d)
    _emit(
        args,
        "gen",
        None,
        {"n": d.n, "arcs": d.arc_count, "file": args.output, "digest": digest},
        digest,
    )
    return 0


def _cmd_hunt(args) -> int:
    radii = None
    if args.indep is not None or args.absorb is not None:
        if args.indep is None or args.absorb is None:
            raise QkError("--indep and --absorb must be given together")
        radii = (args.indep, args.absorb)
    ledger = hunt_conjecture(
        args.k,
        trials=args.trials,
        n_max=args.n_max,
        base_seed=args.seed,
        radii=radii,
        n_min=args.n_min,
    )
    lines = [
        f"k={ledger.k} radii={ledger.radii} trials={ledger.trials} "
        f"kernels found={ledger.kernels_found}",
        f"kernel size histogram: {ledger.size_histogram}",
    ]
    for ce in ledger.counterexamples:
        lines.append(f"COUNTEREXAMPLE trial {ce.trial}: n={ce.n} arcs={ce.arcs}")
    lines.append("refuted" if ledger.refuted else "no counterexample found")
    _emit(args, "hunt", None, ledger, "\n".join(lines))
    return 2 if ledger.refuted else 0


def _cmd_lemmas(args) -> int:
    k_values = _parse_ints(args.k_list, "k list", _k_value)
    if not k_values:
        raise QkError("k list is empty")
    kings_trials = args.trials if args.trials is not None else args.kings_trials
    lemma_trials = args.trials if args.trials is not None else args.lemma_trials
    results = run_suite(
        k_values=k_values,
        kings_trials=kings_trials,
        kings_n_max=args.n_max,
        lemma_trials=lemma_trials,
        base_seed=args.seed,
    )
    violations = sum(len(r.violations) for r in results)
    vacuous = [r for r in results if r.instances_checked and r.fire_fraction < args.min_fire]
    lines = [summarize(results)] if results else []
    if violations:
        lines.append(f"{violations} violations")
        verdict = 2
    elif vacuous:
        lines.append(
            "vacuous coverage: "
            + ", ".join(f"{r.check_id} k={r.k} ({r.fire_fraction:.1%})" for r in vacuous)
        )
        verdict = 1
    else:
        lines.append("all checks passed")
        verdict = 0
    _emit(
        args,
        "lemmas",
        None,
        {"results": results, "violations": violations, "min_fire": args.min_fire},
        "\n".join(lines),
    )
    return verdict


def _int_value(text: str) -> int:
    """argparse type of every integer option: an optional '-' and ASCII
    digits (-?[0-9]+), as in edge-list files.  int() alone would also take
    '+3', '1_0', spaces and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _k_value(text: str) -> int:
    """argparse type of --k (and each --k-list value): an integer from 2 to
    MAX_VERTICES.  No distance in a file's digraph exceeds MAX_VERTICES - 1,
    and `kings --census` writes one king list per radius up to k + 2."""
    k = _int_value(text)
    if k < 2:
        raise argparse.ArgumentTypeError(f"k must be >= 2, got {k}")
    if k > MAX_VERTICES:
        raise argparse.ArgumentTypeError(f"k must be <= {MAX_VERTICES}, got {k}")
    return k


def _fraction(text: str) -> float:
    """argparse type of --min-fire: a number from 0 to 1 (not NaN, which
    would turn the vacuity gate off)."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"must be from 0 to 1, got {text!r}")
    return x


def build_parser() -> _Parser:
    parser = _Parser(prog="qk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_file=True, needs_k=True):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file", help="edge-list file ('n m' header, 'u v' lines)")
        if needs_k:
            p.add_argument("--k", type=_k_value, required=True, help="transitivity parameter (>= 2)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(fn=fn)
        return p

    add("check", _cmd_check, "recognize k-quasi-transitivity")

    kings = add("kings", _cmd_kings, "list (k+1)-kings, find one fast, or run the full census")
    kings.add_argument("--fast", action="store_true", help="degree-based (k+1)-king finder")
    kings.add_argument("--census", action="store_true", help="eccentricities, king sets, counting audits")
    kings.add_argument("--checked", action="store_true", help="verify the input is k-quasi-transitive first")

    kernel = add("kernel", _cmd_kernel, "construct, verify, or exhaustively search kernels")
    mode = kernel.add_mutually_exclusive_group()
    mode.add_argument("--construct", action="store_true", help="build the (k+2, k+1)-kernel")
    mode.add_argument("--verify", metavar="SET", help="comma-separated vertex set to verify")
    mode.add_argument("--exhaustive", action="store_true",
                      help="search all subsets for a minimum kernel (the default mode)")
    kernel.add_argument("--indep", type=_int_value, help="independence radius (default k+1)")
    kernel.add_argument("--absorb", type=_int_value, help="absorbency radius (default k)")

    gen = add("gen", _cmd_gen, "generate a random k-quasi-transitive digraph", needs_file=False)
    gen.add_argument("--n", type=_int_value, required=True, help="vertex count")
    gen.add_argument("--p", type=float, required=True, help="seed arc probability")
    gen.add_argument("--seed", type=_int_value, default=0, help="generator seed")
    gen.add_argument("--rule", type=str.upper, choices=[RANDOM, FORWARD], default=RANDOM,
                     help="closure arc orientation")
    gen.add_argument("-o", "--output", required=True, help="output edge-list file")

    hunt = add("hunt", _cmd_hunt, "search for a kernel-conjecture counterexample", needs_file=False)
    hunt.add_argument("--trials", type=_int_value, default=500)
    hunt.add_argument("--n-min", type=_int_value, default=4, dest="n_min")
    hunt.add_argument("--n-max", type=_int_value, default=9, dest="n_max")
    hunt.add_argument("--seed", type=_int_value, default=0)
    hunt.add_argument("--indep", type=_int_value, help="override independence radius")
    hunt.add_argument("--absorb", type=_int_value, help="override absorbency radius")

    lemmas = add("lemmas", _cmd_lemmas, "re-verify the structural facts on fresh corpora",
                 needs_file=False, needs_k=False)
    lemmas.add_argument("--k-list", default="2,3,4,5,6", dest="k_list")
    lemmas.add_argument("--trials", type=_int_value, help="set both corpus sizes at once")
    lemmas.add_argument("--kings-trials", type=_int_value, default=200, dest="kings_trials")
    lemmas.add_argument("--lemma-trials", type=_int_value, default=60, dest="lemma_trials")
    lemmas.add_argument("--n-max", type=_int_value, default=10, dest="n_max")
    lemmas.add_argument("--seed", type=_int_value, default=1789)
    lemmas.add_argument("--min-fire", type=_fraction, default=0.05, dest="min_fire")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except EdgeListParseError as exc:
        print(f"qk: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except NotQuasiTransitiveInput as exc:
        print(f"qk: error: input not quasi-transitive: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (QkError, ValueError, OSError) as exc:
        print(f"qk: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
