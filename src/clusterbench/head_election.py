"""Energy-based head election and rotation.

The head of a cluster is always its maximum-energy member (lowest id on
ties). A configurable comparator decides which members pass the energy
membership test; members that fail are not evicted — evicting them would
break the partition — but are flagged ``threshold_exempt``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ConsistencyError, InputError
from .model import (
    COMPARATOR_BELOW,
    COMPARATORS,
    Cluster,
    ClusterSet,
    EnergyLevel,
    NodeId,
)


@dataclass(frozen=True, slots=True)
class HeadChange:
    cluster_id: int
    old_head: NodeId
    new_head: NodeId
    at_tick: int


def psopac_rebuild(
    clusters: ClusterSet,
    energies: list[EnergyLevel],
    threshold: EnergyLevel,
    comparator: str = COMPARATOR_BELOW,
) -> ClusterSet:
    """Re-elect heads and recompute exempt flags for every cluster from
    ``energies``, one reading per node indexed by node id (``rotate_heads``).

    Membership is preserved exactly; only the head and the exempt set change.
    """
    return rotate_heads(clusters, energies, threshold, comparator)[0]


def cluster_states(clusters: ClusterSet) -> dict[tuple, Cluster]:
    """A ``rotate_heads`` state mapping that holds the clusters of ``clusters``."""
    return {(c.cluster_id, c.head, c.members, c.threshold_exempt): c for c in clusters.clusters}


def rotate_heads(
    clusters: ClusterSet,
    energies: list[EnergyLevel],
    threshold: EnergyLevel,
    comparator: str = COMPARATOR_BELOW,
    at_tick: int = 0,
    states: dict[tuple, Cluster] | None = None,
    settled: set[int] | frozenset[int] = frozenset(),
) -> tuple[ClusterSet, list[HeadChange]]:
    """Recompute the head and exempt set of every cluster not in ``settled``
    from ``energies``, a list or tuple of one reading per node id (anything
    else is a ``ConsistencyError``), reporting the head changes, each
    stamped ``at_tick``. A cluster whose head and exempt set are unchanged is
    returned as is: it was checked with exactly these members and flags.

    ``states`` interns cluster states across calls: it maps each state, the
    tuple of every field a ``Cluster`` holds, to the one checked ``Cluster``
    that has it (``cluster_states`` seeds one). A re-election that lands on a
    state in the mapping returns that object; any other state is built,
    checked and recorded. Without a mapping every changed cluster is built
    afresh.

    ``settled`` holds the ids of clusters whose election cannot have changed
    since they were last elected (``run_simulation`` says which); they are
    returned as they are. Every cluster keeps its members object, so the
    result's partition is not checked again."""
    if not clusters.clusters:
        raise InputError("cluster set is empty")
    if comparator not in COMPARATORS:
        raise ConfigError(f"comparator must be one of {COMPARATORS}, got {comparator!r}")
    if not isinstance(energies, (list, tuple)):
        raise ConsistencyError(f"energies must be a list or tuple, got {type(energies).__name__}")
    if len(energies) != clusters.node_universe:
        raise ConsistencyError(f"{len(energies)} energies for {clusters.node_universe} nodes")
    # "below" keeps the published behaviour: a member passes while its energy
    # is under the threshold. "at_or_above" is the conventional reading.
    below = comparator == COMPARATOR_BELOW
    if states is None:
        states = {}  # members are disjoint, so no state recurs within one call
    elected = []
    changes = []
    for cluster in clusters.clusters:
        if cluster.cluster_id in settled:
            # Exact only while its election cannot change: a singleton after
            # tick 0, or a cluster drained to 0.0 (run_simulation says why).
            elected.append(cluster)
            continue
        head = None
        best = float("-inf")
        failed = set()
        for member in cluster.members:  # ascending, so a tie keeps the lower id
            energy = energies[member]
            if energy > best:
                head, best = member, energy
            if not (energy < threshold if below else energy >= threshold):
                failed.add(member)
        if head is None:
            raise InputError(
                f"cluster {cluster.cluster_id}: no energy reading is above -inf, "
                "so no head can be elected"
            )
        failed.discard(head)
        if head != cluster.head:
            changes.append(HeadChange(cluster.cluster_id, cluster.head, head, at_tick))
        if head != cluster.head or failed != cluster.threshold_exempt:
            state = (cluster.cluster_id, head, cluster.members, frozenset(failed))
            try:
                cluster = states[state]
            except KeyError:
                cluster = states[state] = Cluster(*state)
        elected.append(cluster)
    return ClusterSet._rotation(clusters, elected), changes
