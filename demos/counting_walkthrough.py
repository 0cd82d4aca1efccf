"""How many near-kings must exist?  A walkthrough of the counting audits.

Generates random k-quasi-transitive digraphs, runs the census on each, and
prints the audit rows grouped by the size of the unique initial component —
the quantity every counting statement pivots on.

Run:  python3 demos/counting_walkthrough.py [k] [trials]
"""

import sys
from collections import defaultdict

from qk import census, random_qt

k = int(sys.argv[1]) if len(sys.argv) > 1 else 2
trials = int(sys.argv[2]) if len(sys.argv) > 2 else 400

by_size = defaultdict(list)
skipped = 0
for t in range(trials):
    d = random_qt(n=4 + t % 6, k=k, arc_prob=0.12 + 0.04 * (t % 7), seed=t)
    comp = d.cond.initial_component
    if comp is None:
        skipped += 1
        continue
    by_size[len(comp)].append(census(d, k))

print(f"k={k}, {trials} digraphs, {skipped} without a unique initial component\n")
print(f"{'|C|':>4} {'count':>6}  audit rows seen (all must pass)")
for size in sorted(by_size):
    reports = by_size[size]
    tags = sorted({row.tag for rep in reports for row in rep.counting_audit})
    failures = sum(len(rep.failed_audits) for rep in reports)
    marker = "OK " if failures == 0 else f"{failures} FAILED"
    print(f"{size:>4} {len(reports):>6}  [{marker}] {', '.join(tags)}")

print("\nreading the rows:")
print(" - small-component-exact:   |C| <= k forces exactly |C| (k-1)-kings")
print(" - boundary-exact:          |C| = k+1 forces exactly k+1 k-kings")
print(" - large-component-bound:   |C| >= k+2 and k >= 4 force at least k+2 (k+1)-kings")
print(" - large-component-plus-one: the same case, logging the (k+1)-king count (info)")
print(" - quasi-transitive-four/-seven: the k=2 sharpenings (>= 4 3-kings,")
print("   and >= 7 when no 2-king exists)")
print(" - even-/odd-disjunction:    k >= 3: all of C are (k+1)-kings, or a 2-king and")
print("   two 3-kings exist (even k), or C has a 3-king or four 4-kings exist (odd k)")
print(" - degree-max-king:          listed only when the max out-degree vertex of C")
print("   is not a (k+1)-king")

example_size = max(by_size)
rep = by_size[example_size][0]
print(f"\none census in full (|C| = {example_size}):")
for row in rep.counting_audit:
    status = "info" if row.passed is None else ("pass" if row.passed else "FAIL")
    print(f"  {row.tag}: expected {row.expected}, observed {row.observed} [{status}]")
