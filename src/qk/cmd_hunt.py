"""`qk hunt --k K`: search for a kernel-conjecture counterexample."""

from __future__ import annotations

from .errors import QkError
from .output import _emit


def run(args) -> int:
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
    _emit(args, None, ledger, "\n".join(lines))
    return 2 if ledger.refuted else 0
