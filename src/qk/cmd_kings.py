"""`qk kings FILE --k K`: list the (k+1)-kings, find one fast, or run the
full census."""

from __future__ import annotations

from .errors import NotQuasiTransitiveInput
from .output import _emit, _fmt_set


def run(args) -> int:
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
        _emit(args, d, rep, "\n".join(lines))
        return 2 if failed else 0
    if args.fast:
        king = find_kplus1_king_fast(d, args.k)
        found = king is not None
        human = (
            f"fast ({args.k + 1})-king: {king}"
            if found
            else f"no ({args.k + 1})-king: no unique initial component"
        )
        _emit(args, d, {"k": args.k, "fast_king": king}, human)
        return 0 if found else 1
    kings = all_r_kings(d, args.k + 1)
    _emit(
        args,
        d,
        {"k": args.k, "radius": args.k + 1, "kings": kings},
        f"({args.k + 1})-kings: {_fmt_set(kings) if kings else 'none'}",
    )
    return 0
