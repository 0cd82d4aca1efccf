"""Digraph algorithms for k-quasi-transitive digraphs: recognition,
r-kings, (k,l)-kernels, and a brute-force checking suite for the structural
theorems the library is built on."""

from .checks import (
    CHECKERS,
    KING_CHECKS,
    LEMMA_CHECKS,
    CheckResult,
    Violation,
    kings_corpus,
    lemma_corpus,
    revalidate,
    run_checker,
    run_suite,
    summarize,
)
from .digraph import (
    INF,
    Condensation,
    Digraph,
    build,
    distance_matrix,
    distances_from,
    induced,
    reverse,
    strong_components,
)
from .edgelist import content_digest, emit, parse, read_digraph, write_digraph
from .errors import (
    DuplicateArc,
    EdgeListParseError,
    InstanceTooLarge,
    LoopArc,
    NotQuasiTransitiveInput,
    QkError,
    VertexOutOfRange,
)
from .kernels import (
    REFUTED,
    VERIFIED,
    Counterexample,
    HuntLedger,
    KernelCertificate,
    construct_kplus2_kernel,
    exhaustive_kernel_search,
    hunt_conjecture,
    recheck_counterexample,
    verify_kernel,
)
from .kings import (
    AuditRow,
    KingReport,
    all_r_kings,
    census,
    degree_threshold_vertices,
    find_kplus1_king_fast,
)
from .qt import (
    DEFAULT_ENUM_CAP,
    FORWARD,
    RANDOM,
    GenConfig,
    QtViolation,
    certify_qt,
    enum_cap,
    is_k_quasi_transitive,
    mix_seed,
    qt_closure,
    random_qt,
)

__version__ = "0.1.0"
