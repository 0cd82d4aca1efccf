"""`qk gen --n N --k K --p P -o FILE`: generate a random k-quasi-transitive
digraph."""

from __future__ import annotations

from .output import _emit


def run(args) -> int:
    from .edgelist import write_digraph
    from .qt import random_qt

    d = random_qt(args.n, args.k, args.p, args.seed, args.rule)
    digest = write_digraph(args.output, d)
    _emit(
        args,
        None,
        {"n": d.n, "arcs": d.arc_count, "file": args.output, "digest": digest},
        digest,
    )
    return 0
