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

from .base import Record
from .digraph import Digraph, distances_from, max_degree_vertex
from .errors import NotQuasiTransitiveInput


def all_r_kings(d: Digraph, r: float) -> tuple[int, ...]:
    """Sorted vertex ids with out-eccentricity <= r."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    return tuple(v for v, e in enumerate(d.ecc) if e <= r)


def degree_step(k: int) -> int:
    """The parity degree step: k for even k, (k-1)/2 for odd k."""
    return k if k % 2 == 0 else (k - 1) // 2


def _component_out_degrees(rows, comp) -> dict[int, int]:
    """Out-degree of each vertex of comp over the bitmask rows, counting
    only arcs into comp."""
    members = sum(1 << v for v in comp)
    return {v: (rows[v] & members).bit_count() for v in comp}


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
    cutoff = max(degs.values()) - degree_step(k)
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


class AuditRow(Record):
    """One counting-theorem clause evaluated on one digraph.

    passed is None for informational rows (logged count, no bound to hold).
    """

    tag: str
    expected: str
    observed: object
    passed: bool | None


class KingReport(Record):
    k: int
    ecc_out: tuple[float, ...]
    kings_by_radius: dict[int, tuple[int, ...]]
    unique_initial: bool
    initial_component: tuple[int, ...] | None
    fast_king: int | None
    max_out_degree: int
    max_out_degree_vertices: tuple[int, ...]
    counting_audit: tuple[AuditRow, ...] = ()

    @property
    def failed_audits(self) -> tuple[AuditRow, ...]:
        return tuple(row for row in self.counting_audit if row.passed is False)


def final_disjunction(
    k: int, comp: tuple[int, ...], ecc: tuple[float, ...]
) -> tuple[AuditRow, tuple, str]:
    """The final disjunction for k >= 3 on the unique initial component
    comp: all of it are (k+1)-kings, or a 2-king and two 3-kings exist
    (even k), or comp has a 3-king or four 4-kings exist (odd k).

    Returns the census row and the witness and detail that the
    king-theorems checker reports when the row fails."""
    all_c = all(ecc[v] <= k + 1 for v in comp)
    if k % 2 == 0:
        two = sum(1 for e in ecc if e <= 2)
        three = sum(1 for e in ecc if e <= 3)
        row = AuditRow(
            tag="even-disjunction",
            expected="all of C are (k+1)-kings, or a 2-king and two 3-kings exist",
            observed=f"all_C={all_c} kings2={two} kings3={three}",
            passed=all_c or (two >= 1 and three >= 2),
        )
        return row, (two, three), f"not all of C are (k+1)-kings yet only {two} 2-kings / {three} 3-kings"
    three_in_c = any(ecc[v] <= 3 for v in comp)
    four = sum(1 for e in ecc if e <= 4)
    row = AuditRow(
        tag="odd-disjunction",
        expected="all of C are (k+1)-kings, or C has a 3-king, or four 4-kings exist",
        observed=f"all_C={all_c} three_in_C={three_in_c} kings4={four}",
        passed=all_c or three_in_c or four >= 4,
    )
    return row, (three_in_c, four), f"no 3-king in C and only {four} 4-kings"


def _audit_rows(
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
    if n_c >= k + 2 and k >= 4:
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
    if k >= 3:
        rows.append(final_disjunction(k, comp, ecc)[0])
    return rows


def census(d: Digraph, k: int) -> KingReport:
    """Eccentricities, r-kings for r in 1..k+2, and counting-theorem audits.

    Audits never abort the census; a failing row is the most valuable output
    (either a library defect or a genuine counterexample) and is left for
    the caller to surface.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if d.n == 0:
        raise ValueError("census needs at least one vertex")
    ecc = d.ecc
    kings = {r: all_r_kings(d, r) for r in range(1, k + 3)}
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
        rows.extend(_audit_rows(k, comp, kings, ecc))
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
