"""clusterbench: deterministic energy-aware clustering of ad hoc networks.

Range-based cluster formation (strict Manhattan coverage), energy-argmax
head election with threshold-gated membership, per-cluster IPv6 address
assignment, Dunn's-index validation, and a discrete-tick simulation harness
that rotates heads as energy drains and re-clusters when separation
degrades.
"""

from .addressing import DEFAULT_PREFIX, Message, MessageKind, assign_addresses
from .clustering import (
    CandidateCluster,
    expac_cluster,
    manhattan_distance,
    pac_candidates,
)
from .errors import (
    CapacityError,
    ClusterBenchError,
    ConfigError,
    ConsistencyError,
    DegenerateGeometryError,
    InputError,
    InvariantViolation,
    UndefinedIndexError,
)
from .head_election import (
    EnergySnapshot,
    HeadChange,
    psopac_rebuild,
    rotate_heads,
)
from .model import (
    Cluster,
    ClusterSet,
    Node,
    Position,
    ScenarioConfig,
    config_from_dict,
    generate_scenario,
    load_config,
)
from .sim import AddressEvent, ReclusterEvent, SimSnapshot, drain, run_simulation
from .validation import (
    Classification,
    Compactness,
    ValidationReport,
    classify,
    cluster_diameter,
    dunn_index,
    validate_clusters,
)

__version__ = "0.1.0"

__all__ = [
    "AddressEvent",
    "CandidateCluster",
    "CapacityError",
    "Classification",
    "Cluster",
    "ClusterBenchError",
    "ClusterSet",
    "Compactness",
    "ConfigError",
    "ConsistencyError",
    "DEFAULT_PREFIX",
    "DegenerateGeometryError",
    "EnergySnapshot",
    "HeadChange",
    "InputError",
    "InvariantViolation",
    "Message",
    "MessageKind",
    "Node",
    "Position",
    "ReclusterEvent",
    "ScenarioConfig",
    "SimSnapshot",
    "UndefinedIndexError",
    "ValidationReport",
    "assign_addresses",
    "classify",
    "cluster_diameter",
    "config_from_dict",
    "drain",
    "dunn_index",
    "expac_cluster",
    "generate_scenario",
    "load_config",
    "manhattan_distance",
    "pac_candidates",
    "psopac_rebuild",
    "rotate_heads",
    "run_simulation",
    "validate_clusters",
    "__version__",
]
