"""Digraph algorithms for k-quasi-transitive digraphs: recognition,
r-kings, (k,l)-kernels, and a brute-force checking suite for the structural
theorems the library is built on.

``from qk import name`` imports the submodule that defines the name when
the name is first asked for, so a program loads only the modules it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "checks": (
        "CHECKERS",
        "KING_CHECKS",
        "LEMMA_CHECKS",
        "CheckResult",
        "Violation",
        "kings_corpus",
        "lemma_corpus",
        "revalidate",
        "run_checker",
        "run_suite",
        "summarize",
    ),
    "digraph": (
        "INF",
        "Condensation",
        "Digraph",
        "build",
        "distance_matrix",
        "distances_from",
        "induced",
        "reverse",
        "strong_components",
    ),
    "edgelist": ("content_digest", "emit", "parse", "read_digraph", "write_digraph"),
    "errors": (
        "DuplicateArc",
        "EdgeListParseError",
        "InstanceTooLarge",
        "LoopArc",
        "NotQuasiTransitiveInput",
        "QkError",
        "VertexOutOfRange",
    ),
    "kernels": (
        "REFUTED",
        "VERIFIED",
        "Counterexample",
        "HuntLedger",
        "KernelCertificate",
        "construct_kplus2_kernel",
        "exhaustive_kernel_search",
        "hunt_conjecture",
        "min_kernel_size",
        "recheck_counterexample",
        "verify_kernel",
    ),
    "kings": (
        "AuditRow",
        "KingReport",
        "all_r_kings",
        "census",
        "degree_threshold_vertices",
        "find_kplus1_king_fast",
    ),
    "qt": (
        "ENUM_CAP",
        "FORWARD",
        "RANDOM",
        "QtViolation",
        "certify_qt",
        "is_k_quasi_transitive",
        "mix_seed",
        "qt_closure",
        "random_qt",
        "violation_batches",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
