"""Sparse Bayesian network construction from an independence oracle.

Given a predicate answering conditional-independence queries and whatever
causal hints a domain expert can offer (hypothesis/evidence labels, cause
statements, independence declarations), build a minimal I-map of the model
whose node order, chosen by expert priority and a greedy smallest-parent-set
heuristic, keeps the network sparse.
"""

from .dag import (
    CycleError,
    Dag,
    DuplicateNodeError,
    NodeSet,
    UnknownNodeError,
)
from .dsep import InvalidQueryError, check_query, d_separated, d_separated_bruteforce
from .oracle import DsepOracle, IndependenceModel
from .expert import (
    CausedBy,
    CauseOf,
    Contradiction,
    ContradictionError,
    ContradictionKind,
    Evidence,
    ExpertInfo,
    ExpertStatement,
    Hypothesis,
    Independence,
    ParseError,
    Priority,
    compile_statements,
    parse_statements,
)
from .builder import (
    BuildConfig,
    BuildResult,
    DeviationWarning,
    WarningKind,
    build,
    is_imap,
    is_minimal_imap,
)
from .harness import (
    ExperimentRecord,
    ExperimentSummary,
    InfeasibleSpecError,
    RandomDagSpec,
    full_expert_info,
    random_dag,
    sensitivity_experiment,
    summarize_experiment,
    write_records_csv,
)

__version__ = "0.3.0"

__all__ = [
    "BuildConfig",
    "BuildResult",
    "CausedBy",
    "CauseOf",
    "Contradiction",
    "ContradictionError",
    "ContradictionKind",
    "CycleError",
    "Dag",
    "DeviationWarning",
    "DsepOracle",
    "DuplicateNodeError",
    "Evidence",
    "ExperimentRecord",
    "ExperimentSummary",
    "ExpertInfo",
    "ExpertStatement",
    "Hypothesis",
    "Independence",
    "IndependenceModel",
    "InfeasibleSpecError",
    "InvalidQueryError",
    "NodeSet",
    "ParseError",
    "Priority",
    "RandomDagSpec",
    "UnknownNodeError",
    "WarningKind",
    "build",
    "check_query",
    "compile_statements",
    "d_separated",
    "d_separated_bruteforce",
    "full_expert_info",
    "is_imap",
    "is_minimal_imap",
    "parse_statements",
    "random_dag",
    "sensitivity_experiment",
    "summarize_experiment",
    "write_records_csv",
]
