"""Reference implementations, kept as oracles for the library's fast paths.

The brute-force kernels are the original O(N^2) loops: every node against
every node for the range candidates, a full rescan of all candidates per
greedy round, every cross-cluster pair of members for the minimum
inter-cluster distance, and every pair of members for a cluster's diameter.
The library's kernels must return exactly what these return.
``ref_rotate_heads`` is head election in two passes, rebuilding every
cluster and then diffing the heads; its argmax and its membership test are
written out here and share no code with the library. ``ref_csv_cell`` and
``ref_json_cell`` are the per-cell renderings that ``write_table`` must
reproduce, and ``ref_timeline_rows`` is the simulate timeline as plain
tuples, each cell looked up afresh from the snapshots.
"""

from __future__ import annotations

import math
from enum import Enum

from clusterbench import (
    Cluster,
    ClusterSet,
    DegenerateGeometryError,
    InvariantViolation,
    UndefinedIndexError,
    manhattan_distance,
)
from clusterbench.clustering import _check_nodes
from clusterbench.errors import ConfigError, ConsistencyError, InputError
from clusterbench.head_election import HeadChange
from clusterbench.model import COMPARATOR_BELOW, COMPARATORS


def ref_pac_candidates(nodes, tx_range):
    """``(temp_head, covered)`` per node, as ``CandidateCluster`` reports them."""
    _check_nodes(nodes)
    by_id = {n.node_id: n for n in nodes}
    order = sorted(by_id)
    out = []
    for head in order:
        hp = by_id[head].pos
        in_range = [
            other
            for other in order
            if other != head and manhattan_distance(hp, by_id[other].pos) < tx_range
        ]
        out.append((head, (head, *in_range)))
    return out


def ref_expac_cluster(nodes, tx_range):
    remaining = {head: set(covered) for head, covered in ref_pac_candidates(nodes, tx_range)}
    clusters = []
    clustered = set()
    while remaining:
        best_head = None
        best_size = 0
        for head in sorted(remaining):
            size = len(remaining[head])
            if size > best_size:
                best_head, best_size = head, size
        if best_head is None or best_size <= 1:
            break
        members = remaining.pop(best_head)
        clusters.append(Cluster(len(clusters), best_head, tuple(sorted(members))))
        clustered |= members
        for head in list(remaining):
            if head in clustered:
                del remaining[head]
            else:
                remaining[head] -= members
    for node_id in sorted(n.node_id for n in nodes):
        if node_id not in clustered:
            clusters.append(Cluster(len(clusters), node_id, (node_id,)))
            clustered.add(node_id)
    return ClusterSet(tuple(clusters), len(nodes))


def ref_rotate_heads(clusters, energies, threshold, comparator=COMPARATOR_BELOW, at_tick=0):
    if not clusters.clusters:
        raise InputError("cluster set is empty")
    if comparator not in COMPARATORS:
        raise ConfigError(f"comparator must be one of {COMPARATORS}, got {comparator!r}")
    rebuilt = []
    for cluster in clusters.clusters:
        readings = []
        for m in cluster.members:
            if m not in energies:
                raise ConsistencyError(f"no energy reading for node {m}")
            readings.append((energies[m], m))
        # The highest reading; among equal readings the lowest id. NaN and
        # -inf can never be the head.
        candidates = [(e, m) for e, m in readings if e > -math.inf]
        if not candidates:
            raise InputError(f"cluster {cluster.cluster_id}: no reading above -inf")
        top = max(e for e, _ in candidates)
        head = min(m for e, m in candidates if e == top)
        if comparator == COMPARATOR_BELOW:
            passed = {m for e, m in readings if e < threshold}
        else:
            passed = {m for e, m in readings if e >= threshold}
        exempt = frozenset(set(cluster.members) - passed - {head})
        rebuilt.append(Cluster(cluster.cluster_id, head, cluster.members, exempt))
    rebuilt = ClusterSet(tuple(rebuilt), clusters.node_universe)
    changes = [
        HeadChange(old.cluster_id, old.head, new.head, at_tick)
        for old, new in zip(clusters.clusters, rebuilt.clusters)
        if old.head != new.head
    ]
    return rebuilt, changes


def ref_csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def ref_json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, Enum):
        return value.value
    return value


TIMELINE_COLUMNS = ["tick", "node_id", "cluster_id", "is_head", "exempt", "energy", "address"]


def ref_timeline_rows(snapshots):
    """One tuple per tick and node, ticks in order and nodes by ascending id;
    each node's cluster is found by scanning the partition."""
    rows = []
    for snap in snapshots:
        for node_id in range(snap.clusters.node_universe):
            (cluster,) = [c for c in snap.clusters.clusters if node_id in c.members]
            rows.append(
                (
                    snap.at_tick,
                    node_id,
                    cluster.cluster_id,
                    node_id == cluster.head,
                    node_id in cluster.threshold_exempt,
                    snap.energies[node_id],
                    str(snap.addresses[node_id]),
                )
            )
    return rows


def inter_cluster_distance(a, b, positions):
    """Minimum Manhattan distance over all cross pairs of members."""
    if set(a.members) & set(b.members):
        raise InvariantViolation(
            f"clusters {a.cluster_id} and {b.cluster_id} share members"
        )
    return min(
        manhattan_distance(positions[m], positions[n])
        for m in a.members
        for n in b.members
    )


def ref_cluster_diameter(cluster, positions):
    """Maximum Manhattan distance over all pairs of members; 0 for a singleton."""
    members = cluster.members
    if len(members) < 2:
        return 0.0
    return max(
        manhattan_distance(positions[members[i]], positions[members[j]])
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )


def ref_dunn_index(clusters, positions):
    cs = clusters.clusters
    if len(cs) < 2:
        raise UndefinedIndexError(f"index needs at least two clusters, got {len(cs)}")
    min_dist = min(
        inter_cluster_distance(cs[i], cs[j], positions)
        for i in range(len(cs))
        for j in range(i + 1, len(cs))
    )
    max_dia = max(ref_cluster_diameter(c, positions) for c in cs)
    if math.isinf(min_dist) and math.isinf(max_dia):
        raise InputError("Manhattan distances overflow: the index is inf / inf")
    if max_dia == 0.0:
        if min_dist == 0.0:
            raise DegenerateGeometryError(
                "all clusters are single points and two of them coincide"
            )
        return math.inf
    return min_dist / max_dia
