"""Kernels: construct one, compare with the optimum, then hunt for trouble.

Every k-quasi-transitive digraph has a (k+2, k+1)-kernel and the library
builds it directly.  Whether a (k+1, k)-kernel always exists is open; the
hunt samples random instances and exhaustively searches each one.

Run:  python3 demos/kernel_hunt_demo.py [k]
"""

import sys

from qk import (
    build,
    construct_kplus2_kernel,
    exhaustive_kernel_search,
    hunt_conjecture,
    random_qt,
)

k = int(sys.argv[1]) if len(sys.argv) > 1 else 3

print(f"== the guaranteed construction (k={k}) ==")
for seed in range(4):
    d = random_qt(n=9, k=k, arc_prob=0.18, seed=seed)
    cert = construct_kplus2_kernel(d, k)
    s = cert.candidate
    best = exhaustive_kernel_search(d, k + 2, k + 1)
    note = "minimum" if best is not None and len(best) == len(s) else f"optimum has {len(best)}"
    print(f"seed {seed}: n={d.n} m={d.arc_count}  constructed {s} "
          f"[{cert.status}]  ({note})")

print(f"\n== sharpness: the ({k + 1})-cycle ==")
cyc = build(k + 1, [(i, (i + 1) % (k + 1)) for i in range(k + 1)])
print(f"radii (k, k-1)   = ({k}, {k - 1}): "
      f"{exhaustive_kernel_search(cyc, k, k - 1) or 'no kernel'}")
print(f"radii (k+1, k)   = ({k + 1}, {k}): "
      f"{exhaustive_kernel_search(cyc, k + 1, k)}")
print("one radius step separates 'never' from 'any single vertex'.")

print(f"\n== a micro hunt at the open radii (k+1, k) ==")
ledger = hunt_conjecture(k, trials=300, n_max=8, base_seed=42)
print(f"trials={ledger.trials} n<=8  kernels found: {ledger.kernels_found}")
print(f"kernel sizes: {dict(sorted(ledger.size_histogram.items()))}")
print("counterexamples:", ledger.counterexamples or "none — the conjecture survives")
