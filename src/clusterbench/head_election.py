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


@dataclass(frozen=True)
class HeadChange:
    cluster_id: int
    old_head: NodeId
    new_head: NodeId
    at_tick: int


def psopac_rebuild(
    clusters: ClusterSet,
    energies: dict[NodeId, EnergyLevel],
    threshold: EnergyLevel,
    comparator: str = COMPARATOR_BELOW,
) -> ClusterSet:
    """Re-elect heads and recompute exempt flags for every cluster.

    Membership is preserved exactly; only the head and the exempt set change.
    """
    return rotate_heads(clusters, energies, threshold, comparator)[0]


def rotate_heads(
    clusters: ClusterSet,
    energies: dict[NodeId, EnergyLevel],
    threshold: EnergyLevel,
    comparator: str = COMPARATOR_BELOW,
    at_tick: int = 0,
) -> tuple[ClusterSet, list[HeadChange]]:
    """Recompute every head and exempt set from current energies, reporting
    the head changes, each stamped ``at_tick``. A cluster whose head and
    exempt set are unchanged is returned as is: it was checked with exactly
    these members and flags."""
    if not clusters.clusters:
        raise InputError("cluster set is empty")
    if comparator not in COMPARATORS:
        raise ConfigError(f"comparator must be one of {COMPARATORS}, got {comparator!r}")
    # "below" keeps the published behaviour: a member passes while its energy
    # is under the threshold. "at_or_above" is the conventional reading.
    below = comparator == COMPARATOR_BELOW
    elected = []
    changes = []
    for cluster in clusters.clusters:
        head = None
        best = float("-inf")
        failed = set()
        for member in cluster.members:  # ascending, so a tie keeps the lower id
            try:
                energy = energies[member]
            except KeyError:
                raise ConsistencyError(f"no energy reading for node {member}") from None
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
            cluster = Cluster(cluster.cluster_id, head, cluster.members, frozenset(failed))
        elected.append(cluster)
    return ClusterSet(tuple(elected), clusters.node_universe), changes
