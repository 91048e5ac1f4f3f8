"""Potentially K_{p,1,1}-graphic degree sequences.

Exact thresholds by exhaustive search at small n, extremal lower-bound
constructions built from complete-graph decompositions, and a
constructive algorithm that realizes any qualifying sequence with a
K_{3,1,1} subgraph.
"""

from .decomp import (
    Decomposition,
    cycle_vertex_order,
    decompose_even,
    decompose_odd,
    join,
)
from .errors import (
    AttachmentInfeasible,
    BelowThreshold,
    CorruptCache,
    DomainError,
    InvalidInterchange,
    KnownException,
    NotGraphical,
    PotseqError,
    TooSmall,
)
from .extremal import (
    LowerBoundInstance,
    build_lower_bound,
    extremal_sequence,
    sigma_lower_bound,
    verify_not_potential,
)
from .graphs import (
    SimpleGraph,
    canonical_form,
    degree_sequence,
    graph_from_text,
    graph_to_text,
    realize,
)
from .potential import (
    PotentialVerdict,
    TargetPattern,
    certificate_errors,
    contains_subgraph,
    is_potentially,
    make_kp11,
    realize_with_forced_edges,
)
from .sequences import (
    DegreeSequence,
    degree_sum,
    enumerate_graphical,
    format_sequence,
    is_graphical,
    parse_sequence,
)
from .thresholds import (
    K311_SIGMA_TABLE,
    ExactValueReport,
    SigmaResult,
    VerdictStore,
    compute_sigma,
    verify_conjectured_sigma,
    verify_k311_thresholds,
)
from .witness import (
    WitnessResult,
    find_k311_realization,
    interchange,
    reattach,
    replay_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AttachmentInfeasible",
    "BelowThreshold",
    "CorruptCache",
    "Decomposition",
    "DegreeSequence",
    "DomainError",
    "ExactValueReport",
    "InvalidInterchange",
    "K311_SIGMA_TABLE",
    "KnownException",
    "LowerBoundInstance",
    "NotGraphical",
    "PotentialVerdict",
    "PotseqError",
    "SigmaResult",
    "SimpleGraph",
    "TargetPattern",
    "TooSmall",
    "VerdictStore",
    "WitnessResult",
    "build_lower_bound",
    "canonical_form",
    "certificate_errors",
    "compute_sigma",
    "contains_subgraph",
    "cycle_vertex_order",
    "decompose_even",
    "decompose_odd",
    "degree_sequence",
    "degree_sum",
    "enumerate_graphical",
    "extremal_sequence",
    "find_k311_realization",
    "format_sequence",
    "graph_from_text",
    "graph_to_text",
    "interchange",
    "is_graphical",
    "is_potentially",
    "join",
    "make_kp11",
    "parse_sequence",
    "realize",
    "realize_with_forced_edges",
    "reattach",
    "replay_trace",
    "sigma_lower_bound",
    "verify_conjectured_sigma",
    "verify_k311_thresholds",
    "verify_not_potential",
]
