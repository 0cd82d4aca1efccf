"""Spans around the public functions of each qk module, and the per-layer
metrics derived from them.

The tracer patches functions from the outside: every module of the qk
package that binds a traced function (``kings`` does ``from .digraph import
distances_from``, ``cli`` imports most of the library) gets the wrapper on
its own attribute, so calls are caught whichever module makes them.  Spans
are kept in memory while the program runs; ``write_spans`` writes them out
once the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import os
import sys
import time
from collections import Counter

# Layer order: the qk modules, outermost first.
LAYERS = ("cli", "edgelist", "digraph", "qt", "kings", "kernels", "checks")

CHECK_IDS = (
    "distance-dichotomy",
    "component-domination",
    "min-path-domination",
    "degree-growth",
    "king-theorems",
    "unique-initial-equivalence",
    "degree-threshold-kings",
    "census-audits",
    "kernel-construction",
)


def subsets_enumerated(n: int, kernel) -> int:
    """Subsets that ``exhaustive_kernel_search`` visits on an n-vertex
    digraph before it returns ``kernel``: every subset smaller than the
    kernel, then the same-size subsets up to and including the kernel in
    ``itertools.combinations`` order; all 2**n of them when no kernel
    exists (kernel is None)."""
    if kernel is None:
        return 2**n
    size = len(kernel)
    smaller = sum(math.comb(n, s) for s in range(size))
    rank, prev = 0, -1
    for i, v in enumerate(kernel):
        for skipped in range(prev + 1, v):
            rank += math.comb(n - 1 - skipped, size - 1 - i)
        prev = v
    return smaller + rank + 1


# Hooks turn a traced call into counters: (args, kwargs, result) -> {key: amount}.
def _closure_arcs(args, kwargs, result):
    return {"arcs_added": result.arc_count - args[0].arc_count}


def _search(args, kwargs, result):
    return {
        "subsets": subsets_enumerated(args[0].n, result),
        "found": int(result is not None),
    }


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _length(args, kwargs, result):
    return {"items": len(result)}


# (module, function, span name or args -> span name, counter hook)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("edgelist", "read_digraph", "edgelist.read", _file_bytes),
    ("edgelist", "content_digest", "edgelist.digest", None),
    ("digraph", "distances_from", "digraph.bfs", None),
    ("digraph", "distance_matrix", "digraph.matrix", None),
    ("digraph", "strong_components", "digraph.scc", None),
    ("digraph", "build", "digraph.build", None),
    ("digraph", "reverse", "digraph.reverse", None),
    ("digraph", "induced", "digraph.induced", None),
    ("qt", "qt_closure", "qt.closure", _closure_arcs),
    ("qt", "random_qt", "qt.random_qt", None),
    ("qt", "certify_qt", "qt.certify", None),
    ("qt", "is_k_quasi_transitive", "qt.recognize", _length),
    ("kings", "census", "kings.census", None),
    ("kings", "find_kplus1_king_fast", "kings.fast", None),
    ("kings", "all_r_kings", "kings.all_r_kings", None),
    ("kernels", "exhaustive_kernel_search", "kernels.search", _search),
    ("kernels", "construct_kplus2_kernel", "kernels.construct", None),
    ("kernels", "verify_kernel", "kernels.verify", None),
    ("kernels", "hunt_conjecture", "kernels.hunt", None),
    ("checks", "lemma_corpus", "checks.corpus", _length),
    ("checks", "kings_corpus", "checks.corpus", _length),
    ("checks", "run_checker", lambda args: "checks.checker." + args[0], None),
    ("checks", "run_suite", "checks.suite", None),
)


class Tracer:
    """Context manager that records a span per traced call while active.

    A span is [name, parent index (-1 for a root), start, end] with
    perf_counter times; ``counters`` maps (span name, key) to a total.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            idx = len(spans)
            span = [span_name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                for key, amount in hook(args, kwargs, result).items():
                    counters[span_name, key] += amount
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            importlib.import_module("qk." + layer)
        modules = [m for key, m in sys.modules.items() if key == "qk" or key.startswith("qk.")]
        for mod_name, fn_name, name, hook in TARGETS:
            fn = getattr(sys.modules["qk." + mod_name], fn_name)
            wrapper = self._wrap(fn, name, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another (the program is single
    threaded), so the covered time is the sum of their durations."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _totals(spans):
    """Per span name: (calls, inclusive seconds, self seconds)."""
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for (name, _, start, end), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
    return calls, total, own


def layer_metrics(spans, counters, out_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, by metric name.

    ``X_s`` is the inclusive time of the spans of X, ``X_self_s`` their
    self time, ``<layer>.self_s`` the self time of all spans of a layer."""
    calls, total, own = _totals(spans)
    counters = Counter(counters)
    searches = calls["kernels.search"]
    m = {
        "cli.self_s": own["cli.main"],
        "cli.out_bytes": out_bytes,
        "edgelist.read_s": total["edgelist.read"],
        "edgelist.digest_s": total["edgelist.digest"],
        "edgelist.in_bytes": counters["edgelist.read", "bytes"],
        "digraph.bfs_calls": calls["digraph.bfs"],
        "digraph.bfs_self_s": own["digraph.bfs"],
        "digraph.matrix_calls": calls["digraph.matrix"],
        "digraph.matrix_s": total["digraph.matrix"],
        "digraph.scc_calls": calls["digraph.scc"],
        "digraph.scc_s": total["digraph.scc"],
        "digraph.build_calls": calls["digraph.build"],
        "digraph.build_s": total["digraph.build"],
        "digraph.reverse_calls": calls["digraph.reverse"],
        "digraph.induced_calls": calls["digraph.induced"],
        "qt.closure_calls": calls["qt.closure"],
        "qt.closure_s": total["qt.closure"],
        "qt.closure_arcs_added": counters["qt.closure", "arcs_added"],
        "qt.random_qt_calls": calls["qt.random_qt"],
        "qt.certify_calls": calls["qt.certify"],
        "qt.certify_s": total["qt.certify"],
        "qt.recognize_s": total["qt.recognize"],
        "qt.violations": counters["qt.recognize", "items"],
        "kings.census_calls": calls["kings.census"],
        "kings.census_self_s": own["kings.census"],
        "kings.fast_s": total["kings.fast"],
        "kings.all_r_kings_s": total["kings.all_r_kings"],
        "kernels.search_calls": searches,
        "kernels.search_self_s": own["kernels.search"],
        "kernels.subsets_enumerated": counters["kernels.search", "subsets"],
        "kernels.found_ratio": counters["kernels.search", "found"] / searches if searches else 0.0,
        "kernels.construct_s": total["kernels.construct"],
        "kernels.verify_calls": calls["kernels.verify"],
        "kernels.verify_s": total["kernels.verify"],
        "checks.corpus_s": total["checks.corpus"],
        "checks.corpus_instances": counters["checks.corpus", "items"],
    }
    for check_id in CHECK_IDS:
        m["checks.checker_s." + check_id] = total["checks.checker." + check_id]
    for layer in LAYERS[1:]:
        m[layer + ".self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    return m


def write_spans(path: str, spans) -> None:
    """Write spans as gzipped JSON lines: name, parent, start, end."""
    with gzip.open(path, "wt", encoding="ascii") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
