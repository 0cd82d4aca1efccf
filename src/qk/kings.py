"""r-kings, the degree-based (k+1)-king finder, and counting audits.

An r-king is a vertex whose directed distance to every vertex is at most r
(out-eccentricity <= r); a "king" with no radius means a 2-king.  On
k-quasi-transitive input a (k+1)-king exists precisely when the digraph has a
unique initial strong component, and inside that component any vertex whose
out-degree (measured in the component) comes within k of the component
maximum (even k; within (k-1)/2 for odd k) is a (k+1)-king.  The finder
exploits that and BFS-verifies its answer so a violated precondition turns
into a diagnosable error instead of a silently wrong king.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .digraph import Digraph, distances_from
from .errors import NotQuasiTransitiveInput


def all_r_kings(d: Digraph, r: float) -> tuple[int, ...]:
    """Sorted vertex ids with out-eccentricity <= r."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    return tuple(v for v, e in enumerate(d.ecc) if e <= r)


def _threshold(k: int) -> int:
    return k if k % 2 == 0 else (k - 1) // 2


def _component_out_degrees(rows, comp) -> dict[int, int]:
    """Out-degree of each vertex of comp over the bitmask rows, counting
    only arcs into comp."""
    members = sum(1 << v for v in comp)
    return {v: (rows[v] & members).bit_count() for v in comp}


def max_degree_vertex(rows, comp) -> int:
    """Smallest vertex of the non-empty vertex set comp whose out-degree
    over the bitmask rows (`d.masks`, or `d.pred` for in-degree), counted
    inside comp, is maximum."""
    degs = _component_out_degrees(rows, comp)
    dmax = max(degs.values())
    return min(v for v, dv in degs.items() if dv == dmax)


def degree_threshold_vertices(d: Digraph, k: int) -> tuple[int, ...]:
    """Vertices of the unique initial component C whose out-degree within C
    exceeds max_degree(C) - k (even k) or max_degree(C) - (k-1)/2 (odd k).

    On k-quasi-transitive input every one of them is a (k+1)-king.  Empty
    when the initial component is not unique.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    comp = d.cond.initial_component
    if comp is None:
        return ()
    degs = _component_out_degrees(d.masks, comp)
    cutoff = max(degs.values()) - _threshold(k)
    return tuple(sorted(v for v, dv in degs.items() if dv > cutoff))


def find_kplus1_king_fast(d: Digraph, k: int) -> int | None:
    """Degree-based (k+1)-king finder for k-quasi-transitive digraphs.

    Returns None when the initial component is not unique (then no
    (k+1)-king can exist).  Otherwise returns the smallest vertex of maximum
    out-degree within the unique initial component; the answer is
    BFS-verified, and a verification failure raises NotQuasiTransitiveInput
    because the degree argument only holds on k-quasi-transitive input.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    comp = d.cond.initial_component
    if comp is None:
        return None
    king = max_degree_vertex(d.masks, comp)
    if max(distances_from(d, king)) > k + 1:
        raise NotQuasiTransitiveInput(
            f"vertex {king} has out-eccentricity > {k + 1}; "
            f"input is not {k}-quasi-transitive"
        )
    return king


@dataclass(frozen=True)
class AuditRow:
    """One counting-theorem clause evaluated on one digraph.

    passed is None for informational rows (logged count, no bound to hold).
    """

    tag: str
    expected: str
    observed: object
    passed: bool | None


@dataclass(frozen=True)
class KingReport:
    k: int
    ecc_out: tuple[float, ...]
    kings_by_radius: dict[int, tuple[int, ...]]
    unique_initial: bool
    initial_component: tuple[int, ...] | None
    fast_king: int | None
    max_out_degree: int
    max_out_degree_vertices: tuple[int, ...]
    counting_audit: tuple[AuditRow, ...] = field(default_factory=tuple)

    @property
    def failed_audits(self) -> tuple[AuditRow, ...]:
        return tuple(row for row in self.counting_audit if row.passed is False)


def _audit_rows(
    d: Digraph,
    k: int,
    comp: tuple[int, ...],
    kings: dict[int, tuple[int, ...]],
    ecc: tuple[float, ...],
) -> list[AuditRow]:
    """Evaluate every applicable counting clause for the unique initial C."""
    rows: list[AuditRow] = []
    n_c = len(comp)
    if n_c <= k:
        rows.append(
            AuditRow(
                tag="small-component-exact",
                expected=f"exactly {n_c} {k - 1}-kings",
                observed=len(kings[k - 1]),
                passed=len(kings[k - 1]) == n_c,
            )
        )
    if n_c == k + 1:
        rows.append(
            AuditRow(
                tag="boundary-exact",
                expected=f"exactly {k + 1} {k}-kings",
                observed=len(kings[k]),
                passed=len(kings[k]) == k + 1,
            )
        )
    bound_applies = (k % 2 == 0 and k >= 4) or (k % 2 == 1 and k >= 5)
    if n_c >= k + 2 and bound_applies:
        found = len(kings[k + 1])
        rows.append(
            AuditRow(
                tag="large-component-bound",
                expected=f"at least {k + 2} {k + 1}-kings",
                observed=found,
                passed=found >= k + 2,
            )
        )
        rows.append(
            AuditRow(
                tag="large-component-plus-one",
                expected=f"informational: {k + 3} {k + 1}-kings when not path-aligned",
                observed=found,
                passed=None,
            )
        )
    if k == 2:
        if n_c >= 4:
            rows.append(
                AuditRow(
                    tag="quasi-transitive-four",
                    expected="at least 4 3-kings",
                    observed=len(kings[3]),
                    passed=len(kings[3]) >= 4,
                )
            )
        if not kings[2]:
            rows.append(
                AuditRow(
                    tag="quasi-transitive-seven",
                    expected="no 2-king implies at least 7 3-kings",
                    observed=len(kings[3]),
                    passed=len(kings[3]) >= 7,
                )
            )
    all_c_kings = all(ecc[v] <= k + 1 for v in comp)
    if k % 2 == 0 and k >= 4:
        ok = all_c_kings or (len(kings[2]) >= 1 and len(kings[3]) >= 2)
        rows.append(
            AuditRow(
                tag="even-disjunction",
                expected="all of C are (k+1)-kings, or a 2-king and two 3-kings exist",
                observed=f"all_C={all_c_kings} kings2={len(kings[2])} kings3={len(kings[3])}",
                passed=ok,
            )
        )
    if k % 2 == 1:
        three_in_c = any(ecc[v] <= 3 for v in comp)
        ok = all_c_kings or three_in_c or len(kings[4]) >= 4
        rows.append(
            AuditRow(
                tag="odd-disjunction",
                expected="all of C are (k+1)-kings, or C has a 3-king, or four 4-kings exist",
                observed=(
                    f"all_C={all_c_kings} three_in_C={three_in_c} kings4={len(kings[4])}"
                ),
                passed=ok,
            )
        )
    return rows


def census(d: Digraph, k: int, checked: bool = False) -> KingReport:
    """Eccentricities, r-kings for r in 1..k+2, and counting-theorem audits.

    Audits never abort the census; a failing row is the most valuable output
    (either a library defect or a genuine counterexample) and is left for
    the caller to surface.  checked=True first certifies the
    k-quasi-transitivity precondition and raises NotQuasiTransitiveInput.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if d.n == 0:
        raise ValueError("census needs at least one vertex")
    if checked:
        from .qt import certify_qt

        if not certify_qt(d, k):
            raise NotQuasiTransitiveInput(f"input is not {k}-quasi-transitive")
    ecc = d.ecc
    kings = {r: tuple(v for v in range(d.n) if ecc[v] <= r) for r in range(1, k + 3)}
    comp = d.cond.initial_component
    fast: int | None = None
    rows: list[AuditRow] = []
    if comp is not None:
        candidate = max_degree_vertex(d.masks, comp)
        if ecc[candidate] <= k + 1:
            fast = candidate
        else:
            rows.append(
                AuditRow(
                    tag="degree-max-king",
                    expected="max in-component out-degree vertex is a (k+1)-king",
                    observed=f"vertex {candidate} ecc {ecc[candidate]}",
                    passed=False,
                )
            )
        rows.extend(_audit_rows(d, k, comp, kings, ecc))
    dmax_global = d.max_out_degree()
    return KingReport(
        k=k,
        ecc_out=ecc,
        kings_by_radius=kings,
        unique_initial=comp is not None,
        initial_component=comp,
        fast_king=fast,
        max_out_degree=dmax_global,
        max_out_degree_vertices=tuple(
            v for v in range(d.n) if d.out_degree(v) == dmax_global
        ),
        counting_audit=tuple(rows),
    )
