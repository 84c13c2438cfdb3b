"""Cluster-scoped IPv6 assignment.

Every cluster is a /64: the configured 48-bit prefix, then the 16-bit
cluster id, then ``node_id + 1`` as the interface identifier (so the id-0
node never produces the all-zero address). The head self-assigns without any
traffic; members are then served in ascending id order via a three-message
handshake — Hello (head to member), Reply (member to head), Assign (head to
member, carrying the address) — with one global sequence counter across the
whole run.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from ipaddress import IPv6Address, IPv6Network
from operator import attrgetter

from .errors import CapacityError, InputError
from .model import Cluster, ClusterSet, NodeId

DEFAULT_PREFIX = "fd00::/48"


class MessageKind(str, Enum):
    HELLO = "Hello"
    REPLY = "Reply"
    ASSIGN = "Assign"


def parse_prefix(prefix: str | int) -> int:
    """Normalize a routing prefix to its 48-bit integer value.

    Accepts an int (already the 48-bit value), or the text of a bare /48
    prefix: ``fd00::/48``, or without its length ``fd00::`` or the group
    form ``fd00:0:0``. Host bits below the top 48, in any spelling, another
    length and empty text are an ``InputError``.
    """
    if isinstance(prefix, int) and not isinstance(prefix, bool):
        if not 0 <= prefix < 2**48:
            raise InputError(f"prefix value must fit in 48 bits, got {prefix!r}")
        return prefix
    if not isinstance(prefix, str):
        raise InputError(f"prefix must be text or int, got {type(prefix).__name__}")
    address, slash, length = prefix.strip().partition("/")
    if address and "::" not in address and address.count(":") < 7:
        address += "::"  # a bare group form like "fd00:0:0" names just the leading bits
    try:
        net = IPv6Network(f"{address}/{length if slash else 48}")
    except ValueError as err:
        raise InputError(f"bad prefix {prefix!r}: {err}") from err
    if net.prefixlen != 48:
        raise InputError(f"prefix length must be 48, got /{net.prefixlen}")
    return int(net.network_address) >> 80


def node_address(prefix48: int, cluster_id: int, node_id: NodeId) -> IPv6Address:
    """prefix(48) | cluster_id(16) | node_id+1 (64)."""
    if not 0 <= cluster_id < 2**16:
        raise CapacityError(
            f"cluster id {cluster_id} does not fit the 16-bit subnet field"
        )
    iid = node_id + 1
    if not 0 < iid < 2**64:
        raise CapacityError(f"node id {node_id} does not fit the 64-bit host field")
    return IPv6Address((prefix48 << 80) | (cluster_id << 64) | iid)


@dataclass(frozen=True)
class Handshake:
    """The Hello/Reply/Assign trace of one ``assign_addresses`` call.

    It holds the call's served clusters, those with a member besides their
    head, by id: the call's own ``Cluster`` objects. Each non-head member,
    ascending, costs three messages, numbered on from 0 across the trace:
    Hello (head to member), Reply (member to head) and Assign (head to
    member, carrying the member's address in the call's map). ``len`` is 3 ×
    the non-heads.
    """

    clusters: tuple[Cluster, ...]

    def __len__(self) -> int:
        return 3 * (sum(map(len, map(attrgetter("members"), self.clusters))) - len(self.clusters))


class AddressMap(Mapping[NodeId, IPv6Address]):
    """The address map of one ``assign_addresses`` call, read-only.

    Its ``IPv6Address`` objects are built on the first read of a key, a
    value or the iteration, all at once, and kept; ``len`` is the node
    universe and builds nothing. It iterates as the handshake serves the
    nodes: clusters by id, each head and then its other members ascending.
    """

    def __init__(self, prefix48: int, ordered: list[Cluster], node_universe: int) -> None:
        self._prefix48 = prefix48
        self._ordered = ordered
        self._len = node_universe

    @cached_property
    def _addresses(self) -> dict[NodeId, IPv6Address]:
        addresses = {}
        for cluster in self._ordered:
            cluster_id, head = cluster.cluster_id, cluster.head
            for node_id in (head, *(m for m in cluster.members if m != head)):
                addresses[node_id] = node_address(self._prefix48, cluster_id, node_id)
        return addresses

    def __getitem__(self, node_id: NodeId) -> IPv6Address:
        return self._addresses[node_id]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._addresses)

    def __len__(self) -> int:
        return self._len


def assign_addresses(
    clusters: ClusterSet, prefix: str | int = DEFAULT_PREFIX
) -> tuple[AddressMap, Handshake]:
    """Run the assignment handshake over every cluster.

    Returns the address map and the message trace, which holds the served
    clusters themselves. Clusters are served in cluster-id order; within
    each, the head self-assigns silently, then each member in ascending id
    order costs three messages (Hello, Reply, Assign).
    The capacity check runs here, once per cluster on its id and the ends of
    its sorted members, so a ``CapacityError`` is raised by this call, for
    the first cluster by id and the first node in serving order that does
    not fit. The map builds its addresses on its first read.
    """
    prefix48 = parse_prefix(prefix)
    ordered = sorted(clusters.clusters, key=lambda c: c.cluster_id)
    for cluster in ordered:
        cluster_id, head, members = cluster.cluster_id, cluster.head, cluster.members
        if not (0 <= cluster_id < 2**16 and members[0] >= 0 and members[-1] < 2**64 - 1):
            for node_id in (head, *members):  # raises as a node-by-node pass would
                node_address(prefix48, cluster_id, node_id)
    served = tuple(c for c in ordered if len(c.members) > 1)
    return AddressMap(prefix48, ordered, clusters.node_universe), Handshake(served)
