"""Energy-based head election and rotation.

The head of a cluster is always its maximum-energy member (lowest id on
ties). A configurable comparator decides which members pass the energy
membership test; members that fail are not evicted — evicting them would
break the partition — but are flagged ``threshold_exempt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class EnergySnapshot:
    """Per-node energies as observed at one instant."""

    at_tick: int
    energies: dict[NodeId, EnergyLevel] = field(default_factory=dict)


@dataclass(frozen=True)
class HeadChange:
    cluster_id: int
    old_head: NodeId
    new_head: NodeId
    at_tick: int


def max_energy_node(cluster: Cluster, snapshot: EnergySnapshot) -> NodeId:
    """The cluster member with the highest energy; ties go to the lower id."""
    best: NodeId | None = None
    best_energy = float("-inf")
    for member in cluster.members:  # members are kept ascending
        try:
            energy = snapshot.energies[member]
        except KeyError:
            raise ConsistencyError(f"no energy reading for node {member}") from None
        if energy > best_energy:
            best, best_energy = member, energy
    if best is None:
        raise InputError("cannot elect a head from an empty member list")
    return best


def _passes(energy: EnergyLevel, threshold: EnergyLevel, comparator: str) -> bool:
    # "below" keeps the published behaviour: a member passes while its energy
    # is under the threshold. "at_or_above" is the conventional reading.
    if comparator == COMPARATOR_BELOW:
        return energy < threshold
    return energy >= threshold


def psopac_rebuild(
    clusters: ClusterSet,
    snapshot: EnergySnapshot,
    threshold: EnergyLevel,
    comparator: str = COMPARATOR_BELOW,
) -> ClusterSet:
    """Re-elect heads and recompute exempt flags for every cluster.

    Membership is preserved exactly; only the head and the exempt set change.
    """
    return rotate_heads(clusters, snapshot, threshold, comparator)[0]


def rotate_heads(
    clusters: ClusterSet,
    snapshot: EnergySnapshot,
    threshold: EnergyLevel,
    comparator: str = COMPARATOR_BELOW,
) -> tuple[ClusterSet, list[HeadChange]]:
    """Recompute every head and exempt set from current energies, reporting
    the head changes. A cluster whose head and exempt set are unchanged is
    returned as is: it was checked with exactly these members and flags."""
    if not clusters.clusters:
        raise InputError("cluster set is empty")
    if comparator not in COMPARATORS:
        raise ConfigError(f"comparator must be one of {COMPARATORS}, got {comparator!r}")
    elected = []
    changes = []
    for cluster in clusters.clusters:
        head = max_energy_node(cluster, snapshot)
        exempt = frozenset(
            m
            for m in cluster.members
            if m != head and not _passes(snapshot.energies[m], threshold, comparator)
        )
        if head != cluster.head:
            changes.append(HeadChange(cluster.cluster_id, cluster.head, head, snapshot.at_tick))
        if head != cluster.head or exempt != cluster.threshold_exempt:
            cluster = Cluster(cluster.cluster_id, head, cluster.members, exempt)
        elected.append(cluster)
    return ClusterSet(tuple(elected), clusters.node_universe), changes
