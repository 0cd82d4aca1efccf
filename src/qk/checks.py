"""Structural checkers: re-verify the k-quasi-transitive theory on corpora.

Every checker takes a digraph known (by construction) to be
k-quasi-transitive and confirms one structural fact about it.  It returns
(fired, findings): whether the fact's hypothesis occurred at all, and one
(clause, witness, detail) triple per concrete failure instead of an
assertion.  `run_checker` turns each finding into a Violation record,
stamped with the check id, k and the instance's index in the corpus.  A
violation on generated input means either the generator or the checked
fact is wrong, and both are worth knowing about.

A note on quantification: several facts range over every minimum-length
u->v path.  A vertex x lies at position j of SOME minimum u->v path iff
d(u,x) = j and d(x,v) = d(u,v) - j, and two positions j1 < j2 are realized
by x, y on a COMMON minimum path iff additionally d(x,y) = j2 - j1 (a walk
of length d(u,v) through them cannot repeat a vertex).  That turns
every-path quantifiers into distance-matrix scans with no path
enumeration.
"""

from __future__ import annotations

import random as _random

from .base import Record
from .digraph import Digraph, INF, build
from .errors import InstanceTooLarge, NotQuasiTransitiveInput, QkError
from .kings import census, degree_step, degree_threshold_vertices, final_disjunction
from .kernels import construct_kplus2_kernel
from .qt import ENUM_CAP, FORWARD, mix_seed, qt_closure, random_qt


class Violation(Record):
    """One concrete failed claim: which checker, which clause, on what."""

    check_id: str
    clause: str
    k: int
    witness: tuple
    detail: str
    instance: int


def check_distance_dichotomy(d: Digraph, k: int):
    """Return-distance table: a pair at forward distance >= k must answer
    back at distance 1, <= k+1, or <= 2 depending on parity and offset."""
    dm = d.dist
    fired = False
    out = []
    for u in range(d.n):
        for v in range(d.n):
            duv = dm[u][v]
            if u == v or duv is INF or duv < k:
                continue
            fired = True
            dvu = dm[v][u]
            if duv == k + 1:
                need, ok = "back<=k+1", dvu <= k + 1
            elif duv == k or k % 2 == 0 or duv % 2 == 1:
                need, ok = "back=1", dvu == 1
            else:
                need, ok = "back<=2", dvu <= 2
            if not ok:
                out.append((need, (u, v, duv, dvu), f"d({u},{v})={duv} but d({v},{u})={dvu}, needed {need}"))
    return fired, out


def check_component_domination(d: Digraph, k: int):
    """If one strong component reaches another, every cross pair sits at
    distance <= k-1."""
    dm = d.dist
    comps = d.cond.components
    fired = False
    out = []
    for i, ci in enumerate(comps):
        for j, cj in enumerate(comps):
            if i == j or dm[ci[0]][cj[0]] is INF:
                continue
            fired = True
            for u in ci:
                for v in cj:
                    if dm[u][v] > k - 1:
                        out.append((
                            "cross-distance",
                            (u, v, dm[u][v]),
                            f"component {i} reaches {j} but d({u},{v})={dm[u][v]} > {k - 1}",
                        ))
    return fired, out


def check_min_path_domination(d: Digraph, k: int):
    """Arcs forced from the far end v of any minimum u->v path of length
    k+2 into u's distance ball (radius k for even k, its even distances up
    to k-1 for odd k), and from the vertex before v back onto the path.

    The ball holds every position the far end must dominate on a minimum
    path (positions 0..k for even k, the even ones for odd k), so that
    back-arc fact needs no clause of its own."""
    dm = d.dist
    n = d.n
    fired = False
    out = []
    for u in range(n):
        row = dm[u]
        for v in range(n):
            if row[v] != k + 2:
                continue
            fired = True
            # ball domination by the far endpoint
            if k % 2 == 0:
                for w in range(n):
                    if row[w] <= k and not d.has_arc(v, w):
                        out.append((
                            "endpoint-dominates-ball",
                            (u, v, w, row[w]),
                            f"d({u},{w})={row[w]} <= {k} but no arc {v}->{w}",
                        ))
            else:
                for w in range(n):
                    if row[w] <= k - 1 and row[w] % 2 == 0 and not d.has_arc(v, w):
                        out.append((
                            "endpoint-dominates-even-ball",
                            (u, v, w, row[w]),
                            f"d({u},{w})={row[w]} even <= {k - 1} but no arc {v}->{w}",
                        ))
            # the vertex before the endpoint dominates even offsets
            for y in range(n):
                if row[y] != k + 1 or dm[y][v] != 1:
                    continue
                for i in range(2, k + 1, 2):
                    j = k - i
                    for x in range(n):
                        if row[x] == j and dm[x][y] == k + 1 - j and not d.has_arc(y, x):
                            out.append((
                                "penultimate-backarc-even-offsets",
                                (u, v, y, x, i),
                                f"{y} (position {k + 1}) must dominate position {j} vertex {x}",
                            ))
    return fired, out


def check_degree_growth(d: Digraph, k: int):
    """Out-degree climbs along minimum paths of length k+2: by k at the far
    endpoint (even k), by (k-1)/2 at the vertex before it (odd k)."""
    dm = d.dist
    n = d.n
    fired = False
    out = []
    step = degree_step(k)
    for u in range(n):
        for v in range(n):
            if dm[u][v] != k + 2:
                continue
            fired = True
            du = d.out_degree(u)
            if k % 2 == 0:
                dv = d.out_degree(v)
                if dv < du + step:
                    out.append(("endpoint-degree", (u, v, du, dv), f"deg+({v})={dv} < deg+({u})+{step}"))
            else:
                for x in range(n):
                    if dm[u][x] == k + 1 and dm[x][v] == 1:
                        dx = d.out_degree(x)
                        if dx < du + step:
                            out.append((
                                "penultimate-degree",
                                (u, v, x, du, dx),
                                f"deg+({x})={dx} < deg+({u})+{step}",
                            ))
    return fired, out


def check_king_theorems(d: Digraph, k: int):
    """King-structure facts: targets at distance k+2 from a (k+2)-king are
    3-kings (even k) / 4-kings (odd k) with their distance-3/4 successors
    pinned back to distance k+2; a (k+2)-but-not-(k+1)-king sees a 2-king
    at distance k+2 across a semicomplete distance class (even k >= 4); the
    king triple and final disjunctions under a unique initial component;
    distance-(k+1) propagation; and, for k=2, maximum out-degree vertices
    are 3-kings whenever any 3-king exists."""
    dm = d.dist
    n = d.n
    ecc = d.ecc
    fired = False
    out = []

    small = 3 if k % 2 == 0 else 4
    for v in range(n):
        if ecc[v] > k + 2:
            continue
        for u in range(n):
            if dm[v][u] != k + 2:
                continue
            fired = True
            if ecc[u] > small:
                out.append((
                    "distant-target-small-king",
                    (v, u, ecc[u]),
                    f"d({v},{u})=k+2 but ecc({u})={ecc[u]} > {small}",
                ))
            for w in range(n):
                if dm[u][w] == small and dm[v][w] != k + 2:
                    out.append((
                        "distant-target-closure",
                        (v, u, w, dm[v][w]),
                        f"d({u},{w})={small} forces d({v},{w})=k+2, got {dm[v][w]}",
                    ))

    if k % 2 == 0 and k >= 4:
        for v in range(n):
            if not (k + 1 < ecc[v] <= k + 2):
                continue
            fired = True
            distant = [w for w in range(n) if dm[v][w] == k + 2]
            if not any(ecc[w] <= 2 for w in distant):
                out.append((
                    "demoted-king-two-king", (v,), f"no 2-king at distance k+2 from demoted king {v}"
                ))
            for a in range(len(distant)):
                for b in range(a + 1, len(distant)):
                    x, y = distant[a], distant[b]
                    if not d.adjacent(x, y):
                        out.append((
                            "distant-class-semicomplete",
                            (v, x, y),
                            f"distance-(k+2) class of {v} misses arc between {x} and {y}",
                        ))

    comp = d.cond.initial_component
    if comp is not None and k >= 3 and not all(ecc[x] <= k + 1 for x in comp):
        fired = True
        u3_radius = 2 if k % 2 == 0 else 4
        ok = False
        for u2 in comp:
            if ecc[u2] > k + 2:
                continue
            if not any(d.has_arc(u2, u1) and ecc[u1] <= k + 1 for u1 in comp):
                continue
            if not any(dm[u2][u3] == k + 2 and ecc[u3] <= u3_radius for u3 in comp):
                continue
            if all(ecc[w] <= small for w in range(n) if dm[u2][w] == k + 2):
                ok = True
                break
        if not ok:
            out.append((
                "king-triple",
                tuple(comp),
                "no (k+2)-king in the initial component with a "
                "dominated (k+1)-king and a small king at distance k+2",
            ))
        row, witness, detail = final_disjunction(k, comp, ecc)
        if not row.passed:
            out.append(("final-disjunction", witness, detail))

    for u in range(n):
        if ecc[u] > k + 1:
            continue
        for v in range(n):
            if dm[u][v] == k + 1:
                fired = True
                if ecc[v] > k + 1:
                    out.append((
                        "king-propagation",
                        (u, v, ecc[v]),
                        f"{u} is a (k+1)-king with d({u},{v})=k+1 but ecc({v})={ecc[v]}",
                    ))

    if k == 2 and n > 0 and any(e <= 3 for e in ecc):
        fired = True
        dmax = d.max_out_degree()
        for v in range(n):
            if d.out_degree(v) == dmax and ecc[v] > 3:
                out.append((
                    "max-degree-three-king",
                    (v, dmax, ecc[v]),
                    f"max out-degree vertex {v} has ecc {ecc[v]} > 3",
                ))
    return fired, out


def check_unique_initial_equivalence(d: Digraph, k: int):
    """A (k+1)-king exists iff the initial strong component is unique."""
    kings = [v for v, e in enumerate(d.ecc) if e <= k + 1]
    unique = d.cond.initial_component is not None
    out = []
    if bool(kings) != unique:
        out.append((
            "existence-iff-unique-initial",
            (tuple(kings), unique),
            f"(k+1)-kings {kings} vs unique_initial={unique}",
        ))
    return d.n > 0, out


def check_degree_threshold_kings(d: Digraph, k: int):
    """Every vertex of the unique initial component above the parity degree
    cutoff is a (k+1)-king.  The fast finder's vertex, of maximum degree in
    the component, is one of them, so the finder rejects an input only
    where this clause fires."""
    if d.cond.initial_component is None:
        return False, []
    out = []
    ecc = d.ecc
    for v in degree_threshold_vertices(d, k):
        if ecc[v] > k + 1:
            out.append((
                "threshold-vertex-is-king", (v, ecc[v]), f"threshold vertex {v} has ecc {ecc[v]} > {k + 1}"
            ))
    return True, out


def check_census_audits(d: Digraph, k: int):
    """All applicable counting-audit rows of the census pass."""
    rep = census(d, k)
    out = [
        (row.tag, (row.observed,), f"{row.tag}: expected {row.expected}, observed {row.observed}")
        for row in rep.failed_audits
    ]
    return bool(rep.counting_audit), out


def check_kernel_construction(d: Digraph, k: int):
    """construct_kplus2_kernel yields a verified (k+2, k+1)-kernel.  Its
    candidate takes one member from each terminal strong component by
    construction, so only a failed verification can show here."""
    try:
        construct_kplus2_kernel(d, k)
    except NotQuasiTransitiveInput as exc:
        return True, [("construction-rejected", (), str(exc))]
    return d.n > 0, []


LEMMA_CHECKS = (
    "distance-dichotomy",
    "component-domination",
    "min-path-domination",
    "degree-growth",
    "king-theorems",
)

KING_CHECKS = (
    "unique-initial-equivalence",
    "degree-threshold-kings",
    "census-audits",
    "kernel-construction",
)

CHECKERS = {
    "distance-dichotomy": check_distance_dichotomy,
    "component-domination": check_component_domination,
    "min-path-domination": check_min_path_domination,
    "degree-growth": check_degree_growth,
    "king-theorems": check_king_theorems,
    "unique-initial-equivalence": check_unique_initial_equivalence,
    "degree-threshold-kings": check_degree_threshold_kings,
    "census-audits": check_census_audits,
    "kernel-construction": check_kernel_construction,
}


def revalidate(d: Digraph, violation: Violation) -> bool:
    """Re-run the reporting checker on d and confirm the same claim fails."""
    _, found = CHECKERS[violation.check_id](d, violation.k)
    claim = (violation.clause, violation.witness)
    return any((clause, witness) == claim for clause, witness, _ in found)


def kings_corpus(
    k: int, trials: int = 200, n_max: int = 10, base_seed: int = 1789
) -> list[Digraph]:
    """Mixed-density k-quasi-transitive instances for king/kernel checks:
    cycles through sparse (usually several components), two medium, and
    dense (usually strong) regimes."""
    out = []
    for t in range(trials):
        rng = _random.Random(mix_seed(base_seed, k, t, 0xA11CE))
        n = rng.randint(2, n_max)
        profile = t % 4
        if profile == 0:
            p = rng.uniform(0.8, 1.8) / n
        elif profile == 1:
            p = rng.uniform(0.15, 0.35)
        elif profile == 2:
            p = rng.uniform(0.4, 0.8)
        else:
            p = rng.uniform(0.05, 0.5)
        out.append(random_qt(n, k, min(1.0, p), rng.getrandbits(64)))
    return out


def _interesting(d: Digraph, k: int, want: int) -> bool:
    if want == 1:
        cond = d.cond
        return len(cond.terminal) < len(cond.components)
    if want == 0:
        return k + 2 in d.ecc
    return any(k + 2 <= x < INF for row in d.dist for x in row)


def _long_diameter_instance(
    k: int, rng: _random.Random, m_lo: int, m_hi: int, satellite: bool
) -> Digraph:
    """Instance with a planted geodesic of length m-1 >= k+2.

    Pairs at distance >= k+2 are essentially unreachable by sparse random
    generation: the domination consequences of such a pair force the
    geodesic's neighbourhood toward completeness, so random closure
    either stays shallow or goes dense and shallow.  Plant the canonical
    deep family instead: consecutive arcs i->i+1 plus every long
    back-arc j->i (j >= i+2) give d(0, m-1) = m-1 while staying
    k-quasi-transitive for every k (the core is semicomplete).
    Decorations for variety: digons on random consecutive pairs
    (backward arcs never shorten a forward geodesic), an optional short
    cycle attached downstream (reachable from the core, never back), and
    optionally a disjoint satellite piece.  FORWARD closure then repairs
    the few core-to-tail pairs without touching core distances.
    """
    m = rng.randint(m_lo, m_hi)
    arcs = [(i, i + 1) for i in range(m - 1)]
    arcs += [(j, i) for i in range(m) for j in range(i + 2, m)]
    for i in range(m - 1):
        if rng.random() < 0.25:
            arcs.append((i + 1, i))
    n = m
    if rng.random() < 0.35:
        c = rng.randint(2, min(k + 1, 4))
        arcs.append((rng.randrange(m), n))
        arcs += [(n + i, n + (i + 1) % c) for i in range(c)]
        n += c
    if satellite and rng.random() < 0.4:
        if rng.random() < 0.5:
            arcs.append((n, n + 1))
            n += 2
        else:
            n += 1
    return qt_closure(build(n, arcs), k, FORWARD, seed=0)


def lemma_corpus(k: int, trials: int = 60, base_seed: int = 355, start: int = 0) -> list[Digraph]:
    """Instances sized k+3..2k+6-ish, screened so the distance-based
    hypotheses actually occur: trials start..trials-1 of the corpus.

    Trials rotate through three screening targets: a vertex of
    out-eccentricity exactly k+2 (arms the king facts), at least one
    reachable pair of distinct components (arms cross-component
    domination), and a finite distance >= k+2 (arms the minimum-path and
    degree facts; some pair then sits at exactly k+2 because a prefix of
    a longer minimum path is itself a minimum path).  The two
    distance-depth targets alternate between planted long-diameter
    instances (the only systematic way to reach depth k+2 once k grows)
    and sparse random generation; the component target always samples
    sparse.  Each trial retries fresh sub-seeds until its target holds,
    keeping the last attempt otherwise, so each trial is deterministic
    in (k, t, base_seed) and a run of trials is a slice of the corpus.
    """
    out = []
    for t in range(start, trials):
        want = t % 3
        plant = want != 1 and (t // 3) % 2 == 0
        picked = None
        for attempt in range(30):
            rng = _random.Random(mix_seed(base_seed, k, t, attempt))
            if plant:
                m_lo = k + 3 if want == 0 else k + 4
                d = _long_diameter_instance(k, rng, m_lo, 2 * k + 4, satellite=want == 2)
            else:
                n = rng.randint(k + 3, 2 * k + 6)
                p = rng.uniform(0.9, 2.2) / n
                d = random_qt(n, k, p, rng.getrandbits(64))
            picked = d
            if _interesting(d, k, want):
                break
        out.append(picked)
    return out


class CheckResult(Record):
    check_id: str
    k: int
    instances_checked: int
    fired: int
    violations: tuple[Violation, ...]

    @property
    def fire_fraction(self) -> float:
        return self.fired / self.instances_checked if self.instances_checked else 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


def run_checker(check_id: str, k: int, corpus: list[Digraph], first: int = 0) -> CheckResult:
    """check_id's checker on every instance; corpus[0] is instance first."""
    fn = CHECKERS[check_id]
    fired = 0
    vs: list[Violation] = []
    for idx, d in enumerate(corpus):
        f, found = fn(d, k)
        fired += bool(f)
        vs.extend(Violation(check_id, clause, k, witness, detail, first + idx) for clause, witness, detail in found)
    return CheckResult(check_id, k, len(corpus), fired, tuple(vs))


def _merged(*parts: CheckResult) -> CheckResult:
    """One checker's results on consecutive runs of a corpus, as one."""
    return CheckResult(
        parts[0].check_id, parts[0].k, sum(p.instances_checked for p in parts),
        sum(p.fired for p in parts), tuple(v for p in parts for v in p.violations),
    )


CHUNK = 6  # lemma trials per job: one turn of lemma_corpus's (want, plant) pattern
MAX_LEMMA_K = 11  # run time climbs with k: default sizes took 3.0 s at k = 10, 3.9 s at 11 on one Xeon CPU


def run_suite(
    k_values=(2, 3, 4, 5, 6),
    kings_trials: int = 200,
    kings_n_max: int = 10,
    lemma_trials: int = 60,
    base_seed: int = 1789,
) -> list[CheckResult]:
    """Generate both corpora for each k and run every checker on its
    corpus: distance/path/degree/king facts on the screened depth corpus,
    king-finding and kernel construction on the mixed-density corpus.

    The jobs of qk.fanout.fan_out, which may run in parallel workers, are,
    for each k in order: one per CHUNK lemma trials, then the kings corpus.
    A CHUNK is one turn of lemma_corpus's (want, plant) pattern, so lemma
    jobs cost about the same; finer jobs would deal one worker every costly
    unplanted depth trial.  A k's lemma results merge back by position:
    counts add up and a violation keeps its index in the whole corpus.  The
    results, and the error raised if a job fails, are those of the serial
    loop over the jobs.  A k above MAX_LEMMA_K raises QkError, and a
    kings_n_max above ENUM_CAP InstanceTooLarge, before any job runs."""
    from .fanout import fan_out  # loaded on use: qk's start-up imports no more

    for k in k_values:
        if k > MAX_LEMMA_K:
            raise QkError(f"k={k} exceeds lemmas k cap {MAX_LEMMA_K}")
    if kings_n_max > ENUM_CAP:
        raise InstanceTooLarge(kings_n_max, ENUM_CAP)

    starts = range(0, max(lemma_trials, 1), CHUNK)

    def job(spec) -> list[CheckResult]:
        k, start = spec
        if start is None:
            kings = kings_corpus(k, trials=kings_trials, n_max=kings_n_max, base_seed=base_seed)
            return [run_checker(check_id, k, kings) for check_id in KING_CHECKS]
        lemmas = lemma_corpus(k, min(start + CHUNK, lemma_trials), base_seed, start)
        return [run_checker(check_id, k, lemmas, start) for check_id in LEMMA_CHECKS]

    parts = iter(fan_out(job, [(k, start) for k in k_values for start in (*starts, None)]))
    results = []
    for _ in k_values:
        results += map(_merged, *[next(parts) for _ in starts])
        results += next(parts)
    return results


def summarize(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "ok" if r.passed else f"{len(r.violations)} VIOLATIONS"
        lines.append(f"{r.check_id:28s} k={r.k}  fired {r.fired:3d}/{r.instances_checked:<3d}  {status}")
    return "\n".join(lines)
