"""`qk check FILE --k K`: recognize k-quasi-transitivity."""

from __future__ import annotations

import sys

from .output import _emit


def run(args) -> int:
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
    _emit(args, d, result, f"{args.k}-quasi-transitive: {f'no ({count} violations)' if first else 'yes'}")
    return 1 if first else 0
