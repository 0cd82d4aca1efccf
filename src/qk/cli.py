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
import os
import sys
from importlib import import_module

from . import __version__
from .base import FORWARD, MAX_VERTICES, RANDOM
from .errors import NotQuasiTransitiveInput, QkError

USAGE_EXIT = 3
PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means 'counterexample
    found', so usage and IO problems move to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


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

    def add(name, help_text, needs_file=True, needs_k=True):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file", help="edge-list file ('n m' header, 'u v' lines)")
        if needs_k:
            p.add_argument("--k", type=_k_value, required=True, help="transitivity parameter (>= 2)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    add("check", "recognize k-quasi-transitivity")

    kings = add("kings", "list (k+1)-kings, find one fast, or run the full census")
    mode = kings.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true", help="degree-based (k+1)-king finder")
    mode.add_argument("--census", action="store_true", help="eccentricities, king sets, counting audits")
    kings.add_argument("--checked", action="store_true", help="verify the input is k-quasi-transitive first")

    kernel = add("kernel", "construct, verify, or exhaustively search kernels")
    mode = kernel.add_mutually_exclusive_group()
    mode.add_argument("--construct", action="store_true", help="build the (k+2, k+1)-kernel")
    mode.add_argument("--verify", metavar="SET", help="comma-separated vertex set to verify")
    mode.add_argument("--exhaustive", action="store_true",
                      help="search all subsets for a minimum kernel (the default mode)")
    kernel.add_argument("--indep", type=_int_value, help="independence radius (default k+1)")
    kernel.add_argument("--absorb", type=_int_value, help="absorbency radius (default k)")
    # the handler reads --verify's set only after the file, with this type
    kernel.set_defaults(vertex_type=_int_value)

    gen = add("gen", "generate a random k-quasi-transitive digraph", needs_file=False)
    gen.add_argument("--n", type=_int_value, required=True, help="vertex count")
    gen.add_argument("--p", type=float, required=True, help="seed arc probability")
    gen.add_argument("--seed", type=_int_value, default=0, help="generator seed")
    gen.add_argument("--rule", type=str.upper, choices=[RANDOM, FORWARD], default=RANDOM,
                     help="closure arc orientation")
    gen.add_argument("-o", "--output", required=True, help="output edge-list file")

    hunt = add("hunt", "search for a kernel-conjecture counterexample", needs_file=False)
    hunt.add_argument("--trials", type=_int_value, default=500)
    hunt.add_argument("--n-min", type=_int_value, default=4, dest="n_min")
    hunt.add_argument("--n-max", type=_int_value, default=9, dest="n_max")
    hunt.add_argument("--seed", type=_int_value, default=0)
    hunt.add_argument("--indep", type=_int_value, help="override independence radius")
    hunt.add_argument("--absorb", type=_int_value, help="override absorbency radius")

    lemmas = add("lemmas", "re-verify the structural facts on fresh corpora",
                 needs_file=False, needs_k=False)
    lemmas.add_argument("--k-list", default="2,3,4,5,6", dest="k_list")
    lemmas.add_argument("--trials", type=_trials, help="set both corpus sizes at once")
    lemmas.add_argument("--kings-trials", type=_trials, dest="kings_trials", help="default 200")
    lemmas.add_argument("--lemma-trials", type=_trials, dest="lemma_trials", help="default 60")
    lemmas.add_argument("--n-max", type=_lemmas_n_max, default=10, dest="n_max")
    lemmas.add_argument("--seed", type=_int_value, default=1789)
    lemmas.add_argument("--min-fire", type=_fraction, default=0.05, dest="min_fire")
    lemmas.set_defaults(k_type=_k_value)  # --k-list's values, read by the handler
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the command's handler, qk.cmd_<command> (argparse admits only the
        # six command names), is imported only when the command runs, so
        # that parsing (and --version) compiles no command code.  The
        # handlers take the argparse types they need from args: under
        # `python -m qk.cli` this module runs as __main__, and an import of
        # qk.cli would compile it again.
        code = import_module(f"{__package__}.cmd_{args.command}").run(args)
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
