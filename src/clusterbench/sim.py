"""Discrete-tick simulation harness.

Tick 0 sets the network up: place nodes, cluster by range, elect heads by
energy, hand out addresses, and validate the partition. Every later tick
drains the clusters with a reading still above zero (heads pay the higher
rate), re-elects the heads of the clusters whose election can still
change (not singletons, nor clusters drained to zero; see
``run_simulation``), reports the validation on schedule, and — when the
report recommends it — re-clusters and re-addresses. Positions are static
and energies only ever decrease. The partition depends on positions alone,
so a re-cluster reproduces the tick-0 partition, index and addresses; only
the Hello/Reply/Assign trace, which follows the current heads, is rebuilt,
as a ``Handshake`` of the served clusters. Each ``assign_addresses`` call
checks capacity when it is made, but its address map is built on first
read: the run keeps the tick-0 map, and a re-cluster's map is never read,
so never built. Tick 0 never re-clusters.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from ipaddress import IPv6Address

from .addressing import DEFAULT_PREFIX, Handshake, assign_addresses, parse_prefix
from .clustering import expac_cluster
from .errors import ClusterBenchError, ConfigError, ConsistencyError, UndefinedIndexError
from .head_election import HeadChange, cluster_states, psopac_rebuild, rotate_heads
from .model import (
    MAX_NODE_TICKS,
    ClusterSet,
    EnergyLevel,
    Node,
    NodeId,
    ScenarioConfig,
    generate_scenario,
)
from .validation import ValidationReport, validate_clusters


@dataclass(frozen=True, slots=True)
class ReclusterEvent:
    at_tick: int
    trigger_index: float
    old_cluster_count: int
    new_cluster_count: int


@dataclass(frozen=True, slots=True)
class AddressEvent:
    """One run of the addressing handshake at ``at_tick``: the run's address
    map, whose addresses are built on its first read, and the ``Handshake``
    trace, whose Assign payloads are that map's addresses."""

    at_tick: int
    assigned: Mapping[NodeId, IPv6Address]
    messages: Handshake


Event = HeadChange | ReclusterEvent | AddressEvent


@dataclass(frozen=True, slots=True)
class SimSnapshot:
    """State at the end of one tick.

    The address map is fixed after tick 0, so every snapshot and address event
    of a run shares that one read-only map, built on its first read and kept
    (``assign_addresses`` checked its capacity at tick 0). Likewise each
    distinct cluster state (id, head, members and exempt set) is one
    ``Cluster`` object per run, shared by every snapshot that holds it.
    ``energies`` holds each node's reading at the end of the tick, indexed by
    node id; a tick's ``drain`` returns a new list, so none is changed later.
    """

    at_tick: int
    clusters: ClusterSet
    energies: list[EnergyLevel]
    report: ValidationReport | None
    events: tuple[Event, ...]
    addresses: Mapping[NodeId, IPv6Address]


def drain(
    energies: list[EnergyLevel],
    clusters: ClusterSet,
    dead: set[int],
    config: ScenarioConfig,
) -> tuple[list[EnergyLevel], list[int]]:
    """One tick of energy loss: in each cluster whose id is not in ``dead``
    the head pays drain_head, the other members drain_member, clamped at
    zero. Returns a drained list copy of ``energies``, a list or tuple of
    one reading per node id (else a ``ConsistencyError``), and the ids of
    those clusters left with no reading above 0.0. A ``dead`` cluster keeps its readings."""
    if not isinstance(energies, (list, tuple)):
        raise ConsistencyError(f"energies must be a list or tuple, got {type(energies).__name__}")
    if len(energies) != clusters.node_universe:
        raise ConsistencyError(f"{len(energies)} energies for {clusters.node_universe} nodes")
    drained = list(energies)
    died = []
    drain_head, drain_member = config.drain_head, config.drain_member
    for cluster in clusters.clusters:
        if cluster.cluster_id in dead:
            continue
        head, live = cluster.head, False
        for nid in cluster.members:
            # max(0.0, e - rate) in one test: e - rate if above 0.0, else 0.0
            energy = drained[nid] - (drain_head if nid == head else drain_member)
            if energy > 0.0:
                drained[nid] = energy
                live = True
            else:
                drained[nid] = 0.0
        if not live:
            died.append(cluster.cluster_id)
    return drained, died


def run_simulation(
    config: ScenarioConfig,
    nodes: list[Node] | None = None,
    prefix: str | int = DEFAULT_PREFIX,
) -> list[SimSnapshot]:
    """Run the full scenario, returning one snapshot per tick (tick 0 included).

    ``nodes`` overrides the seeded placement for hand-built topologies; ids
    must still be the dense range 0..N-1. Any domain error is re-raised with
    the failing tick prefixed to its message. A run of more than
    ``MAX_NODE_TICKS`` node-ticks is a ``ConfigError``, and a bad ``prefix``
    an ``InputError``, both raised before the run.
    """
    node_count = config.node_count if nodes is None else len(nodes)
    if node_count * (config.steps + 1) > MAX_NODE_TICKS:
        raise ConfigError(
            f"node_count * (steps + 1) must be at most {MAX_NODE_TICKS} node-ticks, got "
            f"{node_count} nodes * {config.steps + 1} ticks; lower node_count or "
            f"execution_time / tick"
        )
    prefix48 = parse_prefix(prefix)
    if nodes is None:
        nodes = generate_scenario(config)

    try:
        clusters = expac_cluster(nodes, config.tx_range)
        # By id, not input order: expac_cluster has checked the ids are 0..N-1.
        energies = [n.energy for n in sorted(nodes, key=lambda n: n.node_id)]
        clusters = psopac_rebuild(
            clusters, energies, config.energy_threshold, config.comparator
        )
        addresses, messages = assign_addresses(clusters, prefix48)
        positions = {n.node_id: n.pos for n in nodes}
        try:
            report = validate_clusters(clusters, positions, config.dunn_recluster_threshold)
        except UndefinedIndexError:
            # A single-cluster partition has no defined index; the run
            # carries on without a report rather than dying mid-simulation.
            report = None
        events: list[Event] = [AddressEvent(0, addresses, messages)]
        snapshots = [SimSnapshot(0, clusters, energies, report, tuple(events), addresses)]
    except ClusterBenchError as err:
        raise type(err)(f"tick 0: {err}") from err

    # expac_cluster reads only the static positions and rotate_heads keeps
    # membership, so every later partition, Dunn report and address map is
    # the tick-0 one: a re-cluster keeps the cluster count and re-runs only
    # the handshake, whose trace depends on the current heads; its own
    # address map is never read, so never built. Each distinct cluster state
    # is built and checked once per run: heads cycle among the same few
    # members, so ``states`` hands back the object of a state seen before.
    #
    # Only a cluster whose election can still change is re-elected; the
    # ``settled`` rest are carried over as they are, which is exact because
    # an election reads nothing but its members' readings:
    # - a singleton, from tick 1 on: its one member is its head, and its
    #   exempt set, which never holds the head, is empty. Its reading is a
    #   drain result, >= +0.0 and never NaN, so it can always be elected.
    # - a ``dead`` cluster, one that ``drain`` left with no reading above
    #   0.0, from the tick after: max(0.0, 0.0 - r) is 0.0 for every r >= 0
    #   (ScenarioConfig holds drain_head >= drain_member >= 0), so ``drain``
    #   passes it by and its election never changes again. ``dead`` starts
    #   empty: a tick-0 reading of -0.0 is drained to 0.0 at tick 1.
    count = len(clusters.clusters)
    states = cluster_states(clusters)
    settled = {c.cluster_id for c in clusters.clusters if len(c.members) == 1}
    dead: set[int] = set()
    for t in range(1, config.steps + 1):
        try:
            energies, died = drain(energies, clusters, dead, config)
            clusters, changes = rotate_heads(
                clusters, energies, config.energy_threshold, config.comparator, t, states,
                settled,
            )
            dead.update(died)
            settled.update(died)
            events = list(changes)
            scheduled = report if t % config.validation_interval == 0 else None
            if scheduled is not None and scheduled.recommend_recluster:
                _, messages = assign_addresses(clusters, prefix48)
                events.append(ReclusterEvent(t, scheduled.dunn_index, count, count))
                events.append(AddressEvent(t, addresses, messages))
            snapshots.append(
                SimSnapshot(t, clusters, energies, scheduled, tuple(events), addresses)
            )
        except ClusterBenchError as err:
            raise type(err)(f"tick {t}: {err}") from err

    return snapshots
