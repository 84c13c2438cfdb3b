"""Discrete-tick simulation harness.

Tick 0 sets the network up: place nodes, cluster by range, elect heads by
energy, hand out addresses, and validate the partition. Every later tick
drains energy (heads pay the higher rate), re-elects heads from the fresh
energies, reports the validation on schedule, and — when the report
recommends it — re-clusters and re-addresses. Positions are static and
energies only ever decrease. The partition depends on positions alone, so a
re-cluster reproduces the tick-0 partition, index and addresses; only the
Hello/Reply/Assign trace, which follows the current heads, is rebuilt, as a
``Handshake`` whose messages are built only when read. Tick 0 never
re-clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv6Address

from .addressing import DEFAULT_PREFIX, Handshake, assign_addresses
from .clustering import expac_cluster
from .errors import ClusterBenchError, ConfigError, UndefinedIndexError
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


@dataclass(frozen=True)
class ReclusterEvent:
    at_tick: int
    trigger_index: float
    old_cluster_count: int
    new_cluster_count: int


@dataclass(frozen=True)
class AddressEvent:
    """One run of the addressing handshake at ``at_tick``: the run's address
    map and the ``Handshake`` trace, whose messages are built only when
    read."""

    at_tick: int
    assigned: dict[NodeId, IPv6Address]
    messages: Handshake


Event = HeadChange | ReclusterEvent | AddressEvent


@dataclass(frozen=True)
class SimSnapshot:
    """State at the end of one tick.

    The address map is fixed after tick 0, so every snapshot and address event
    of a run shares that one dict; treat it as read-only. Likewise each
    distinct cluster state (id, head, members and exempt set) is one
    ``Cluster`` object per run, shared by every snapshot that holds it.
    """

    at_tick: int
    clusters: ClusterSet
    energies: dict[NodeId, EnergyLevel]
    report: ValidationReport | None
    events: tuple[Event, ...]
    addresses: dict[NodeId, IPv6Address]


def drain(
    energies: dict[NodeId, EnergyLevel], clusters: ClusterSet, config: ScenarioConfig
) -> dict[NodeId, EnergyLevel]:
    """One tick of energy loss: heads pay drain_head, everyone else
    drain_member, clamped at zero. Returns the drained energies."""
    heads = {c.head for c in clusters.clusters}
    return {
        nid: max(0.0, e - (config.drain_head if nid in heads else config.drain_member))
        for nid, e in energies.items()
    }


def run_simulation(
    config: ScenarioConfig,
    nodes: list[Node] | None = None,
    prefix: str | int = DEFAULT_PREFIX,
) -> list[SimSnapshot]:
    """Run the full scenario, returning one snapshot per tick (tick 0 included).

    ``nodes`` overrides the seeded placement for hand-built topologies; ids
    must still be the dense range 0..N-1. Any domain error is re-raised with
    the failing tick prefixed to its message. A run of more than
    ``MAX_NODE_TICKS`` node-ticks is a ``ConfigError``, raised before the run.
    """
    node_count = config.node_count if nodes is None else len(nodes)
    if node_count * (config.steps + 1) > MAX_NODE_TICKS:
        raise ConfigError(
            f"node_count * (steps + 1) must be at most {MAX_NODE_TICKS} node-ticks, got "
            f"{node_count} nodes * {config.steps + 1} ticks; lower node_count or "
            f"execution_time / tick"
        )
    if nodes is None:
        nodes = generate_scenario(config)

    try:
        energies = {n.node_id: n.energy for n in nodes}
        clusters = expac_cluster(nodes, config.tx_range)
        clusters = psopac_rebuild(
            clusters, energies, config.energy_threshold, config.comparator
        )
        addresses, messages = assign_addresses(clusters, prefix)
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
    # the handshake, whose trace depends on the current heads. rotate_heads
    # re-elects every cluster, but each distinct cluster state is built and
    # checked once per run: heads cycle among the same few members, so
    # ``states`` hands back the object of a state seen before.
    count = len(clusters.clusters)
    states = cluster_states(clusters)
    for t in range(1, config.steps + 1):
        try:
            energies = drain(energies, clusters, config)
            clusters, changes = rotate_heads(
                clusters, energies, config.energy_threshold, config.comparator, t, states
            )
            events = list(changes)
            scheduled = report if t % config.validation_interval == 0 else None
            if scheduled is not None and scheduled.recommend_recluster:
                _, messages = assign_addresses(clusters, prefix)
                events.append(ReclusterEvent(t, scheduled.dunn_index, count, count))
                events.append(AddressEvent(t, addresses, messages))
            snapshots.append(
                SimSnapshot(t, clusters, energies, scheduled, tuple(events), addresses)
            )
        except ClusterBenchError as err:
            raise type(err)(f"tick {t}: {err}") from err

    return snapshots
