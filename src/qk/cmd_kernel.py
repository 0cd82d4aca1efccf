"""`qk kernel FILE --k K`: construct, verify, or exhaustively search
kernels."""

from __future__ import annotations

from .errors import QkError
from .output import _emit, _fmt_set, _parse_ints


def run(args) -> int:
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
            d,
            {"mode": "construct", "kernel": s, "certificate": cert, "status": cert.status},
            f"({args.k + 2}, {args.k + 1})-kernel: {_fmt_set(s)} [{cert.status}]",
        )
        return 0
    indep = args.indep if args.indep is not None else args.k + 1
    absorb = args.absorb if args.absorb is not None else args.k
    if args.verify is not None:
        cert = verify_kernel(d, _parse_ints(args.verify, "vertex set", args.vertex_type), indep, absorb)
        witness = "" if cert.verified else f" witness {cert.witness}"
        _emit(
            args,
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
        d,
        {"mode": "exhaustive", "radii": (indep, absorb), "kernel": s},
        human,
    )
    return 0 if found else 1
