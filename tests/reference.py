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
tuples, each cell looked up afresh from the snapshots. ``ref_handshake`` is
the addressing trace as a plain list of ``Message`` objects, each address
put together from its bit fields, and ``handshake_messages`` expands the
library's ``Handshake`` clusters into the same objects, each Assign payload
read from the address map of the same ``assign_addresses`` call.
``ref_message_rows`` is the simulate messages table as tuples, each event's
trace rebuilt by ``ref_handshake``. ``ref_addresses`` is the address map as
an eager dict, each address built by ``node_address`` in serving order.
``event_row`` is one event as its events-table tuple. ``ref_simulate`` is a
whole simulate run from its config, all five tables as tuples, and
``ref_csv_text`` and ``ref_json_text`` render rows as csv.writer and
json.dumps write them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import astuple, dataclass
from enum import Enum
from ipaddress import IPv6Address

from clusterbench import (
    AddressEvent,
    Cluster,
    ClusterSet,
    DegenerateGeometryError,
    InvariantViolation,
    MessageKind,
    ReclusterEvent,
    UndefinedIndexError,
    classify,
    generate_scenario,
    manhattan_distance,
)
from clusterbench.addressing import node_address
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
        for m in cluster.members:  # energies map or list node ids to readings
            try:
                readings.append((energies[m], m))
            except (KeyError, IndexError):
                raise ConsistencyError(f"no energy reading for node {m}") from None
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


def ref_csv_text(columns, rows):
    """A table's CSV file: the header, then each row's ``ref_csv_cell``s."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([ref_csv_cell(v) for v in row])
    return expected.getvalue()


def ref_json_text(columns, rows):
    """A table's JSON file: one object of ``ref_json_cell``s per row."""
    payload = [dict(zip(columns, map(ref_json_cell, row))) for row in rows]
    return json.dumps(payload, indent=2) + "\n"


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


#: The 48-bit value of the default prefix fd00::/48.
DEFAULT_PREFIX48 = 0xFD00 << 32


@dataclass(frozen=True)
class Message:
    seq: int
    sender: int
    receiver: int
    kind: MessageKind
    payload: IPv6Address | None = None


def handshake_messages(handshake, addresses):
    """A ``Handshake``'s messages, cluster by cluster: per non-head member,
    ascending, Hello, Reply and Assign, numbered on from 0. Each Assign
    carries the member's address in ``addresses``, the map of the same call."""
    messages = []
    for cluster in handshake.clusters:
        head = cluster.head
        for member in cluster.members:
            if member != head:
                seq = len(messages)
                messages += (
                    Message(seq, head, member, MessageKind.HELLO),
                    Message(seq + 1, member, head, MessageKind.REPLY),
                    Message(seq + 2, head, member, MessageKind.ASSIGN, addresses[member]),
                )
    return tuple(messages)


def ref_addresses(clusters, prefix48=DEFAULT_PREFIX48):
    """Every node's address, built at once: clusters by ascending id, each
    head and then its other members by ascending id."""
    addresses = {}
    for cluster in sorted(clusters.clusters, key=lambda c: c.cluster_id):
        head = cluster.head
        addresses[head] = node_address(prefix48, cluster.cluster_id, head)
        for member in sorted(cluster.members):
            if member != head:
                addresses[member] = node_address(prefix48, cluster.cluster_id, member)
    return addresses


def ref_address(prefix48, cluster_id, node_id):
    """A node's address, put together from its bit fields."""
    return IPv6Address(prefix48 * 2**80 + cluster_id * 2**64 + node_id + 1)


def ref_handshake(clusters, prefix48=DEFAULT_PREFIX48):
    """Every cluster by ascending id, every non-head member by ascending id:
    Hello, Reply, Assign, numbered from 0 across the whole list."""
    trace = []
    for cluster in sorted(clusters.clusters, key=lambda c: c.cluster_id):
        head = cluster.head
        for member in sorted(cluster.members):
            if member == head:
                continue
            address = ref_address(prefix48, cluster.cluster_id, member)
            for sender, receiver, kind, payload in (
                (head, member, MessageKind.HELLO, None),
                (member, head, MessageKind.REPLY, None),
                (head, member, MessageKind.ASSIGN, address),
            ):
                trace.append(Message(len(trace), sender, receiver, kind, payload))
    return trace


MESSAGES_COLUMNS = ["at_tick", "seq", "from", "to", "kind", "payload"]


def ref_message_rows(snapshots, prefix48=DEFAULT_PREFIX48):
    """One tuple per message of every address event, ticks in order: the
    event's trace rebuilt by ``ref_handshake`` from its snapshot's partition.
    ``prefix48`` is the run's prefix value, or a list of one per snapshot."""
    if not isinstance(prefix48, list):
        prefix48 = [prefix48] * len(snapshots)
    rows = []
    for snap, prefix in zip(snapshots, prefix48):
        for event in snap.events:
            if isinstance(event, AddressEvent):
                for msg in ref_handshake(snap.clusters, prefix):
                    payload = None if msg.payload is None else str(msg.payload)
                    rows.append((event.at_tick, msg.seq, msg.sender, msg.receiver, msg.kind, payload))
    return rows


def event_row(event) -> tuple:
    """One events-table row; each event kind leaves the other kinds' columns
    empty. An AddressEvent gives the counts of its addresses and messages."""
    if isinstance(event, HeadChange):
        heads = (event.cluster_id, event.old_head, event.new_head)
        return (event.at_tick, "head_change", *heads, None, None, None, None, None)
    if isinstance(event, ReclusterEvent):
        counts = (event.trigger_index, event.old_cluster_count, event.new_cluster_count)
        return (event.at_tick, "recluster", None, None, None, *counts, None, None)
    sizes = (len(event.assigned), len(event.messages))  # an AddressEvent
    return (event.at_tick, "address", None, None, None, None, None, None, *sizes)


def ref_simulate(config, nodes, prefix48=DEFAULT_PREFIX48):
    """The simulate command's five tables as lists of rows, by file stem,
    derived afresh from the config: ``nodes``, or the seeded placement if
    None, clustered by ``ref_expac_cluster`` and elected by
    ``ref_rotate_heads``; every tick drains every node through a dict,
    ``max(0.0, e - rate)``, and elects every cluster; a scheduled report is
    ``classify`` of ``ref_dunn_index`` on the tick's partition; a re-cluster
    clusters and elects from scratch and re-runs ``ref_handshake``. Every
    address is put together from its bit fields by ``ref_address``. A domain
    error is raised as it is, without its tick."""
    if nodes is None:
        nodes = generate_scenario(config)
    positions = {n.node_id: n.pos for n in nodes}
    energies = {n.node_id: n.energy for n in nodes}
    node_ids = range(len(nodes))
    threshold, comparator = config.energy_threshold, config.comparator
    timeline, events, validation, messages = [], [], [], []

    def elect(at_tick):
        fresh = ref_expac_cluster(nodes, config.tx_range)
        return ref_rotate_heads(fresh, energies, threshold, comparator, at_tick)[0]

    def address(clusters, at_tick):
        trace = ref_handshake(clusters, prefix48)
        counts = (len(nodes), len(trace))
        events.append((at_tick, "address", None, None, None, None, None, None, *counts))
        for msg in trace:
            payload = None if msg.payload is None else str(msg.payload)
            messages.append((at_tick, msg.seq, msg.sender, msg.receiver, msg.kind, payload))
        return {
            m: str(ref_address(prefix48, c.cluster_id, m))
            for c in clusters.clusters
            for m in c.members
        }

    clusters = elect(0)
    addresses = address(clusters, 0)
    for tick in range(config.steps + 1):
        if tick > 0:
            heads = {c.head for c in clusters.clusters}
            energies = {
                nid: max(0.0, e - (config.drain_head if nid in heads else config.drain_member))
                for nid, e in energies.items()
            }
            clusters, changes = ref_rotate_heads(clusters, energies, threshold, comparator, tick)
            for c in changes:
                cells = (c.cluster_id, c.old_head, c.new_head)
                events.append((tick, "head_change", *cells, None, None, None, None, None))
        if tick % config.validation_interval == 0 and len(clusters.clusters) > 1:
            index = ref_dunn_index(clusters, positions)  # one cluster has none
            report = classify(index, config.dunn_recluster_threshold)
            validation.append((tick, *astuple(report)))
            if tick > 0 and report.recommend_recluster:
                old_count = len(clusters.clusters)
                clusters = elect(tick)
                counts = (index, old_count, len(clusters.clusters))
                events.append((tick, "recluster", None, None, None, *counts, None, None))
                addresses = address(clusters, tick)
        cluster_of = {m: c for c in clusters.clusters for m in c.members}
        for nid in node_ids:
            cluster = cluster_of[nid]
            timeline.append(
                (
                    tick, nid, cluster.cluster_id, nid == cluster.head,
                    nid in cluster.threshold_exempt, energies[nid], addresses[nid],
                )
            )
    return {
        "timeline": timeline,
        "events": events,
        "validation": validation,
        "addresses": [(nid, cluster_of[nid].cluster_id, addresses[nid]) for nid in node_ids],
        "messages": messages,
    }


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
