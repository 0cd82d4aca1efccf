"""Command-line surface: check / kings / kernel / gen / hunt / lemmas.

Exit codes: 0 success or property holds, 1 property fails (no king found
with --fast, kernel refuted or absent, vacuous lemma coverage), 2 a
counterexample-grade failure (hunt hit, census audit failure, checker
violation), 3 usage, file, or input errors, 141 stdout closed by its
reader.  Reports are human-readable by default; --json emits a byte-stable
document with the tool version, the command, a content digest of the
(canonical) input, and the result.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .base import FORWARD, MAX_VERTICES, RANDOM, Record
from .errors import NotQuasiTransitiveInput, QkError

USAGE_EXIT = 3
PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means 'counterexample
    found', so usage and IO problems move to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


_BATCH = 4096  # pieces of text per write


def write_json(doc, write) -> None:
    """Write doc through write() as json.dumps(doc, sort_keys=True,
    indent=2) writes it, with qk's conversions: a record is an object of
    all of its fields, an infinite or NaN float is null and an integral
    float an int, a tuple or an iterator is an array (an iterator drawn as
    it is written), and mapping keys become str() of themselves.  Any other
    type (subclasses of str, int, float, list and tuple too) raises
    TypeError.

    The text goes out in batches of pieces, so memory does not grow with
    the document; strings are quoted by json's C escaper."""
    from json.encoder import encode_basestring_ascii as quote

    parts: list[str] = []
    append = parts.append
    fields: dict[type, tuple[str, ...]] = {}  # per record type, sorted

    def put(x, nl: str) -> None:
        t = type(x)
        if t is int:
            append(repr(x))
        elif t is str:
            append(quote(x))
        elif t is tuple or t is list:
            array(x, nl)
        elif t is float:
            if math.isinf(x) or math.isnan(x):
                append("null")
            else:
                append(repr(int(x)) if x.is_integer() else repr(x))
        elif x is None:
            append("null")
        elif t is bool:
            append("true" if x else "false")
        elif (names := fields.get(t)) is not None:
            members([(name, getattr(x, name)) for name in names], nl)
        elif isinstance(x, Record):
            fields[t] = tuple(sorted(x.__slots__))
            put(x, nl)
        elif isinstance(x, dict):
            keyed = {str(key): value for key, value in x.items()}
            members(sorted(keyed.items()), nl)
        elif hasattr(x, "__next__"):
            array(x, nl)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    def array(x, nl: str) -> None:
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            if type(v) is int:
                append(sep + repr(v))
            else:
                append(sep)
                put(v, inner)
            sep = "," + inner
            if len(parts) > _BATCH:
                flush()
        append("[]" if sep[0] == "[" else nl + "]")

    def members(items, nl: str) -> None:
        if not items:
            append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, v in items:
            append(sep + quote(key) + ": ")
            put(v, inner)
            sep = "," + inner
            if len(parts) > _BATCH:
                flush()
        append(nl + "}")

    def flush() -> None:
        write("".join(parts))
        parts.clear()

    put(doc, "\n")
    flush()


def _emit(args, command: str, d, result, human: str) -> None:
    """Print the report: under --json the document, with the content
    digest of the input digraph d (None for commands without a file),
    else the human text."""
    if args.json:
        digest = None
        if d is not None:
            from .edgelist import content_digest

            digest = content_digest(d)
        doc = {
            "tool_version": __version__,
            "command": command,
            "input_digest": digest,
            "result": result,
        }
        write_json(doc, sys.stdout.write)
        sys.stdout.write("\n")
    elif human:
        print(human)


def _fmt_set(vs) -> str:
    return "{" + ", ".join(str(v) for v in vs) + "}"


def _cmd_check(args) -> int:
    from itertools import chain

    from .edgelist import read_digraph
    from .qt import violation_batches

    d = read_digraph(args.file)
    rest = violation_batches(d, args.k)
    first = next(rest, [])  # quasi_transitive is written before the violations
    batches = chain([first], rest)
    result = {"k": args.k, "quasi_transitive": not first, "violations": chain.from_iterable(batches)}
    count = 0
    for batch in () if args.json else batches:
        count += len(batch)
        sys.stdout.write("".join([
            f"path {'->'.join(map(str, v.path))}: endpoints {v.u} and {v.v} non-adjacent\n" for v in batch
        ]))
    _emit(args, "check", d, result, f"{args.k}-quasi-transitive: {f'no ({count} violations)' if first else 'yes'}")
    return 1 if first else 0


def _cmd_kings(args) -> int:
    from .edgelist import read_digraph
    from .kings import all_r_kings, census, find_kplus1_king_fast

    d = read_digraph(args.file)
    if args.checked:
        from .qt import certify_qt

        if not certify_qt(d, args.k):
            raise NotQuasiTransitiveInput(f"input is not {args.k}-quasi-transitive")
    if args.census:
        rep = census(d, args.k)
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
        _emit(args, "kings", d, rep, "\n".join(lines))
        return 2 if failed else 0
    if args.fast:
        king = find_kplus1_king_fast(d, args.k)
        found = king is not None
        human = (
            f"fast ({args.k + 1})-king: {king}"
            if found
            else f"no ({args.k + 1})-king: multiple initial components"
        )
        _emit(args, "kings", d, {"k": args.k, "fast_king": king}, human)
        return 0 if found else 1
    kings = all_r_kings(d, args.k + 1)
    _emit(
        args,
        "kings",
        d,
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
    from .edgelist import read_digraph
    from .kernels import construct_kplus2_kernel, exhaustive_kernel_search, verify_kernel

    if args.construct and (args.indep is not None or args.absorb is not None):
        raise QkError("--construct builds the (k+2, k+1)-kernel; it takes no --indep or --absorb")
    d = read_digraph(args.file)
    if args.construct:
        cert = construct_kplus2_kernel(d, args.k)
        s = cert.candidate
        _emit(
            args,
            "kernel",
            d,
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
            d,
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
        d,
        {"mode": "exhaustive", "radii": (indep, absorb), "kernel": s},
        human,
    )
    return 0 if found else 1


def _cmd_gen(args) -> int:
    from .edgelist import write_digraph
    from .qt import random_qt

    d = random_qt(args.n, args.k, args.p, args.seed, args.rule)
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
    from .kernels import hunt_conjecture

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
    from .checks import run_suite, summarize

    k_values = _parse_ints(args.k_list, "k list", _k_value)
    if not k_values:
        raise QkError("k list is empty")
    if args.trials and (args.kings_trials or args.lemma_trials):
        raise QkError("--trials sets both corpus sizes; it takes no --kings-trials or --lemma-trials")
    results = run_suite(
        k_values=k_values,
        kings_trials=args.trials or args.kings_trials or 200,
        kings_n_max=args.n_max,
        lemma_trials=args.trials or args.lemma_trials or 60,
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


def _trials(text: str) -> int:
    """argparse type of lemmas' trial counts: an integer >= 1.  A corpus
    of no instances checks nothing, and nothing found would read as a
    pass."""
    trials = _int_value(text)
    if trials < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 trial, got {trials}")
    return trials


def _lemmas_n_max(text: str) -> int:
    """argparse type of lemmas --n-max: an integer >= 2, the smallest
    order the kings corpus draws."""
    n_max = _int_value(text)
    if n_max < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, the smallest corpus order, got {n_max}")
    return n_max


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
    mode = kings.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true", help="degree-based (k+1)-king finder")
    mode.add_argument("--census", action="store_true", help="eccentricities, king sets, counting audits")
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
    lemmas.add_argument("--trials", type=_trials, help="set both corpus sizes at once")
    lemmas.add_argument("--kings-trials", type=_trials, dest="kings_trials", help="default 200")
    lemmas.add_argument("--lemma-trials", type=_trials, dest="lemma_trials", help="default 60")
    lemmas.add_argument("--n-max", type=_lemmas_n_max, default=10, dest="n_max")
    lemmas.add_argument("--seed", type=_int_value, default=1789)
    lemmas.add_argument("--min-fire", type=_fraction, default=0.05, dest="min_fire")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (`qk ... | head`): send what is left of the
        # output to devnull, where the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_EXIT
    except NotQuasiTransitiveInput as exc:
        print(f"qk: error: input not quasi-transitive: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (QkError, ValueError, OSError) as exc:
        print(f"qk: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
