"""`qk lemmas`: re-verify the structural facts on fresh corpora."""

from __future__ import annotations

from .errors import QkError
from .output import _emit, _parse_ints


def run(args) -> int:
    from .checks import run_suite, summarize

    k_values = _parse_ints(args.k_list, "k list", args.k_type)
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
        None,
        {"results": results, "violations": violations, "min_fire": args.min_fire},
        "\n".join(lines),
    )
    return verdict
