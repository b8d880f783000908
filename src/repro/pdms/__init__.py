"""The PDMS core: the paper's primary contribution.

Peers and their schemas, the PPL mapping language (storage descriptions,
inclusion/equality/definitional peer mappings), the normalised catalogue,
complexity analysis per Theorems 3.1–3.3, the rule-goal-tree reformulation
algorithm of Section 4 with its optimizations, execution over stored
relations, and the certain-answer semantics of Section 2.2.
"""

from ..config import int_from_env
from .analysis import ComplexityClass, ComplexityReport, analyze_pdms, build_inclusion_graph
from .execution import (
    PeerFactSource,
    answer_query,
    answer_query_batch,
    combine_peer_instances,
    evaluate_reformulation,
    evaluate_rewritings,
    federate_if_per_peer,
    stream_answers,
    uses_oracle,
)
from .materialization import (
    FragmentCache,
    FragmentCacheStats,
    data_version_token,
    estimate_result_bytes,
    fragment_cache_from_env,
)
from .planning import (
    PlanStatistics,
    UnionPlan,
    compile_reformulation,
    ensure_plan,
    evaluate_plan,
    stream_plan_answers,
)
from .mappings import (
    DefinitionalMapping,
    EqualityMapping,
    InclusionMapping,
    StorageDescription,
    lav_style,
    replication,
)
from .optimizations import DEFAULT_CONFIG, ExpansionOrder, ReformulationConfig
from .peer import Peer, StoredRelation, qualified_name
from .reformulation import (
    CanonicalQuery,
    ReformulationProvenance,
    ReformulationResult,
    canonicalize_query,
    compute_productive_predicates,
    reformulate,
)
from .rule_goal_tree import GoalNode, RuleGoalTree, RuleNode, TreeStatistics
from .semantics import build_canonical_instance, certain_answers, is_consistent
from .service import QueryService, ServiceStats
from .distributed import (
    AsyncSocketTransport,
    ClusterAnswer,
    DistributedAnswer,
    LoopbackTransport,
    RemotePeerFactSource,
    ScanFailure,
    ScanPolicy,
    ServiceCluster,
    evaluate_distributed,
)
from .system import (
    PDMS,
    CatalogueChange,
    NormalizedCatalogue,
    NormalizedInclusion,
    NormalizedRule,
)

__all__ = [
    "CanonicalQuery",
    "CatalogueChange",
    "ClusterAnswer",
    "DistributedAnswer",
    "AsyncSocketTransport",
    "LoopbackTransport",
    "RemotePeerFactSource",
    "ScanFailure",
    "ScanPolicy",
    "ServiceCluster",
    "ComplexityClass",
    "ComplexityReport",
    "DEFAULT_CONFIG",
    "DefinitionalMapping",
    "EqualityMapping",
    "ExpansionOrder",
    "FragmentCache",
    "FragmentCacheStats",
    "GoalNode",
    "InclusionMapping",
    "NormalizedCatalogue",
    "NormalizedInclusion",
    "NormalizedRule",
    "PDMS",
    "Peer",
    "PeerFactSource",
    "PlanStatistics",
    "QueryService",
    "ReformulationConfig",
    "ReformulationProvenance",
    "ReformulationResult",
    "RuleGoalTree",
    "RuleNode",
    "ServiceStats",
    "StorageDescription",
    "StoredRelation",
    "TreeStatistics",
    "UnionPlan",
    "analyze_pdms",
    "answer_query",
    "answer_query_batch",
    "build_canonical_instance",
    "build_inclusion_graph",
    "canonicalize_query",
    "certain_answers",
    "combine_peer_instances",
    "compile_reformulation",
    "compute_productive_predicates",
    "data_version_token",
    "ensure_plan",
    "estimate_result_bytes",
    "evaluate_distributed",
    "evaluate_plan",
    "evaluate_reformulation",
    "evaluate_rewritings",
    "federate_if_per_peer",
    "fragment_cache_from_env",
    "int_from_env",
    "is_consistent",
    "lav_style",
    "qualified_name",
    "reformulate",
    "replication",
    "stream_answers",
    "stream_plan_answers",
    "uses_oracle",
]
