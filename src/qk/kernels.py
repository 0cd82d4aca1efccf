"""(k,l)-kernels: verification, construction, minimum size, exhaustive
search, and a randomized hunt for a k-quasi-transitive digraph with no
(k+1,k)-kernel.

A (k,l)-kernel is a vertex set S that is k-independent (every two distinct
members sit at directed distance >= k in BOTH directions) and l-absorbent
(every outside vertex reaches some member within l steps).  The headline
construction: in a k-quasi-transitive digraph, picking one maximum
out-degree vertex inside each initial strong component of the REVERSED
digraph yields a (k+2, k+1)-kernel.  Any absorbent set needs a member in
each terminal component, so when that same pick is l-absorbent its size
is the minimum kernel size (min_kernel_size); only the other digraphs need
the subset search.  Whether (k+1, k) is always attainable is open;
hunt_conjecture searches for a refutation, at orders up to the subset
search's SEARCH_CAP.
"""

from __future__ import annotations

import itertools
import random as _random
from collections import Counter

from .base import Record
from .digraph import Digraph, bfs, build, distances_from, max_degree_vertex
from .errors import InstanceTooLarge, NotQuasiTransitiveInput, VertexOutOfRange

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
SEARCH_CAP = 20  # largest order exhaustive_kernel_search, and so hunt_conjecture, takes


class KernelCertificate(Record):
    """Outcome of checking one candidate set against one (k, l) pair.

    witness is an ordered pair (u, v) with d(u, v) < k when independence
    fails, else a vertex outside the set that no member absorbs within l,
    else None.
    """

    candidate: tuple[int, ...]
    k: int
    l: int
    independent: bool
    absorbent: bool
    witness: tuple[int, int] | int | None

    @property
    def verified(self) -> bool:
        return self.independent and self.absorbent

    @property
    def status(self) -> str:
        return VERIFIED if self.verified else REFUTED


def verify_kernel(d: Digraph, candidate, k: int, l: int) -> KernelCertificate:
    """BFS-check that candidate is a (k, l)-kernel of d.

    Scans independence over ordered member pairs in sorted order, then
    absorbency over outside vertices in id order, so the reported witness
    is deterministic.
    """
    if k < 1 or l < 1:
        raise ValueError("kernel radii must be >= 1")
    s = tuple(sorted(set(candidate)))
    for v in s:
        if not (0 <= v < d.n):
            raise VertexOutOfRange(v, d.n)
    # one member's distance row at a time, up to the first witness
    rows = ((u, distances_from(d, u)) for u in s)
    pair = next(((u, v) for u, row in rows for v in s if u != v and row[v] < k), None)
    stray = _stray(d, s, l)
    return KernelCertificate(
        candidate=s,
        k=k,
        l=l,
        independent=pair is None,
        absorbent=stray is None,
        witness=stray if pair is None else pair,
    )


def _stray(d: Digraph, s, l: int) -> int | None:
    """The smallest vertex farther than l arcs from every member of the
    vertex set s, or None when s is l-absorbent: one BFS over `d.pred`
    from the whole set gives each vertex its distance to the nearest
    member."""
    into = bfs(d.pred, sum(1 << v for v in s))
    return next((z for z, e in enumerate(into) if e > l), None)


def construct_kplus2_kernel(d: Digraph, k: int) -> KernelCertificate:
    """A verified (k+2, k+1)-kernel of a k-quasi-transitive digraph.

    Takes one maximum out-degree vertex (smallest id on ties, degree
    measured within the component) from each initial strong component of
    the reversed digraph, and returns the certificate of that set (the
    kernel is its candidate).  Those are the terminal components of d, as
    reversal keeps the components and their numbering, and out-degree in
    the reversed digraph is in-degree in d, read off `d.pred`.  Failed verification
    means the input was not k-quasi-transitive and raises
    NotQuasiTransitiveInput.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    s = _terminal_pick(d)
    cert = verify_kernel(d, s, k + 2, k + 1)
    if not cert.verified:
        raise NotQuasiTransitiveInput(
            f"candidate {s} failed {cert.status} with witness {cert.witness}; "
            f"input is not {k}-quasi-transitive"
        )
    return cert


def _terminal_pick(d: Digraph) -> tuple[int, ...]:
    """One vertex of largest in-degree within its component (smallest id
    on ties) from each terminal strong component of d, ascending."""
    cond = d.cond
    return tuple(
        sorted(max_degree_vertex(d.pred, cond.components[idx]) for idx in cond.terminal)
    )


def min_kernel_size(d: Digraph, k: int, l: int) -> int | None:
    """Size of a smallest (k, l)-kernel of d, or None if d has none.

    A vertex of a terminal strong component reaches only that component,
    so every l-absorbent set has a member in each of the t terminal
    components.  Members of distinct terminal components never reach each
    other, so _terminal_pick is k-independent for every k; one backward
    BFS from it over `d.pred` settles its l-absorbency, and when it
    absorbs, t is the minimum.  Otherwise the answer is that of
    exhaustive_kernel_search, which refuses orders above SEARCH_CAP.
    """
    if k < 1 or l < 1:
        raise ValueError("kernel radii must be >= 1")
    pick = _terminal_pick(d)
    if _stray(d, pick, l) is None:
        return len(pick)
    kernel = exhaustive_kernel_search(d, k, l)
    return None if kernel is None else len(kernel)


def exhaustive_kernel_search(d: Digraph, k: int, l: int) -> tuple[int, ...] | None:
    """Smallest (k, l)-kernel, lexicographically first among that size,
    or None if no subset qualifies.

    Exact search, one size at a time, by depth-first branching over
    independent candidates in increasing vertex order (the candidate-set
    branching of Bron & Kerbosch, applied to k-independent sets): after
    picking u, only the larger vertices k-independent of u stay candidates,
    so only independent sets are built, in size-then-lex order.  A branch is
    cut as soon as all the vertices from its lowest remaining candidate up,
    taken together, could not absorb what is still uncovered, since every
    later pick comes from among them.  Refuses instances larger than
    SEARCH_CAP.
    """
    if k < 1 or l < 1:
        raise ValueError("kernel radii must be >= 1")
    if d.n > SEARCH_CAP:
        raise InstanceTooLarge(d.n, SEARCH_CAP, "subset kernel search cap")
    n = d.n
    absorb, later = _kernel_tables(d, k, l)
    full = (1 << n) - 1
    # suffix[v]: everything the vertices >= v absorb together
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] | absorb[v]
    chosen: list[int] = []

    def extend(size: int, cand: int, covered: int) -> bool:
        if size == 0:
            return covered == full
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            if covered | suffix[v] != full:
                return False
            chosen.append(v)
            if extend(size - 1, cand & later[v], covered | absorb[v]):
                return True
            chosen.pop()
            cand ^= low
        return False

    for size in range(n + 1):
        if extend(size, full, 0):
            return tuple(chosen)
    return None


def _kernel_tables(d: Digraph, k: int, l: int) -> tuple[list[int], list[int]]:
    """Bitmask tables over d.dist: absorb[u] holds each z with
    d(z, u) <= l (u itself included); later[u] holds each v > u with
    d(u, v) >= k and d(v, u) >= k."""
    n = d.n
    rows = d.dist
    absorb = [0] * n
    later = [0] * n
    for u in range(n):
        out = rows[u]
        for v in range(n):
            into = rows[v][u]
            if into <= l:
                absorb[u] |= 1 << v
            if v > u and into >= k and out[v] >= k:
                later[u] |= 1 << v
    return absorb, later


def _combinations_kernel(d: Digraph, k: int, l: int) -> tuple[int, ...] | None:
    """The same answer as exhaustive_kernel_search, by the plain scan of
    every subset in itertools.combinations order, with no pruning."""
    n = d.n
    rows = d.dist
    pair_ok = [
        [rows[u][v] >= k and rows[v][u] >= k for v in range(n)] for u in range(n)
    ]
    absorb = [0] * n
    for v in range(n):
        for z in range(n):
            if rows[z][v] <= l:
                absorb[v] |= 1 << z
    full = (1 << n) - 1
    for size in range(n + 1):
        for comb in itertools.combinations(range(n), size):
            if all(pair_ok[u][v] for u, v in itertools.combinations(comb, 2)):
                mask = 0
                for v in comb:
                    mask |= absorb[v]
                if mask == full:
                    return comb
    return None


class Counterexample(Record):
    """A digraph the hunt flagged: k-quasi-transitive, yet no
    (radii[0], radii[1])-kernel exists."""

    k: int
    radii: tuple[int, int]
    n: int
    arcs: tuple[tuple[int, int], ...]
    trial: int
    seed: int


def recheck_counterexample(ce: Counterexample) -> bool:
    """Independent re-verification of a hunt hit: rebuild the digraph,
    re-certify quasi-transitivity, and re-run a complete kernel search by
    the plain subset scan, which shares no pruning with the search that
    found the hit."""
    from .qt import certify_qt

    d = build(ce.n, list(ce.arcs))
    if not certify_qt(d, ce.k):
        return False
    return _combinations_kernel(d, ce.radii[0], ce.radii[1]) is None


class HuntLedger(Record):
    k: int
    radii: tuple[int, int]
    trials: int
    n_max: int
    base_seed: int
    kernels_found: int
    size_histogram: dict[int, int]
    counterexamples: tuple[Counterexample, ...]

    @property
    def refuted(self) -> bool:
        return bool(self.counterexamples)


def hunt_conjecture(
    k: int,
    trials: int = 500,
    n_max: int = 9,
    base_seed: int = 0,
    radii: tuple[int, int] | None = None,
    n_min: int = 4,
) -> HuntLedger:
    """Randomized search for a k-quasi-transitive digraph with no
    (k+1, k)-kernel (radii overrides the target pair).

    Each trial draws an order in [n_min, n_max] and an arc density around
    the sparse regime (expected degree 0.5..2.5), generates a
    k-quasi-transitive digraph, and takes its minimum kernel size from
    min_kernel_size: one vertex per terminal component when that set
    absorbs, else the complete subset search.  A trial with no kernel is
    recheck_counterexample'd before it is recorded.  Any trial may need
    the subset search, so n_max above SEARCH_CAP is refused before any
    trial, with that search's InstanceTooLarge.
    Fully deterministic in (k, trials, n_max, base_seed, radii, n_min).

    Each trial is one job of qk.fanout.fan_out, so trials may run in
    parallel worker processes; the ledger, and the error raised if a trial
    fails, are those of the serial loop over the trials.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if not (1 <= n_min <= n_max):
        raise ValueError(f"need 1 <= n_min <= n_max, got n_min={n_min}, n_max={n_max}")
    if n_max > SEARCH_CAP:
        raise InstanceTooLarge(n_max, SEARCH_CAP, "subset kernel search cap")
    rr = (k + 1, k) if radii is None else (int(radii[0]), int(radii[1]))
    if rr[0] < 1 or rr[1] < 1:
        raise ValueError("kernel radii must be >= 1")
    from .fanout import fan_out  # loaded on use: qk's start-up imports no more
    from .qt import mix_seed, random_qt  # and `qk kernel` never loads qt

    def trial(t: int) -> int | Counterexample:
        """The size of the kernel trial t finds, or its rechecked hit."""
        seed = mix_seed(base_seed, k, t)
        rng = _random.Random(seed)
        n = rng.randint(n_min, n_max)
        p = min(1.0, rng.uniform(0.5, 2.5) / n)
        d = random_qt(n, k, p, rng.getrandbits(64))
        size = min_kernel_size(d, rr[0], rr[1])
        if size is not None:
            return size
        ce = Counterexample(k=k, radii=rr, n=d.n, arcs=tuple(d.arcs()), trial=t, seed=seed)
        if not recheck_counterexample(ce):
            raise AssertionError(f"hunt hit failed recheck: {ce}")
        return ce

    outcomes = fan_out(trial, range(trials))
    hist = Counter(x for x in outcomes if isinstance(x, int))
    hits = [x for x in outcomes if isinstance(x, Counterexample)]
    return HuntLedger(
        k=k,
        radii=rr,
        trials=trials,
        n_max=n_max,
        base_seed=base_seed,
        kernels_found=trials - len(hits),
        size_histogram=dict(sorted(hist.items())),
        counterexamples=tuple(hits),
    )
