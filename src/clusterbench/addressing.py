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

import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from ipaddress import AddressValueError, IPv6Address, IPv6Network

from .errors import CapacityError, InputError
from .model import ClusterSet, NodeId

DEFAULT_PREFIX = "fd00::/48"


class MessageKind(str, Enum):
    HELLO = "Hello"
    REPLY = "Reply"
    ASSIGN = "Assign"


@dataclass(frozen=True)
class Message:
    seq: int
    sender: NodeId
    receiver: NodeId
    kind: MessageKind
    payload: IPv6Address | None = None


def parse_prefix(prefix: str | int) -> int:
    """Normalize a routing prefix to its 48-bit integer value.

    Accepts an int (already the 48-bit value), or text like ``fd00::/48``,
    ``fd00::`` — any IPv6 address whose low 80 bits are zero.
    """
    if isinstance(prefix, int) and not isinstance(prefix, bool):
        if not 0 <= prefix < 2**48:
            raise InputError(f"prefix value must fit in 48 bits, got {prefix!r}")
        return prefix
    if not isinstance(prefix, str):
        raise InputError(f"prefix must be text or int, got {type(prefix).__name__}")
    text = prefix.strip()
    if "/" in text:
        try:
            net = IPv6Network(text, strict=False)
        except (AddressValueError, ValueError) as err:
            raise InputError(f"bad prefix {prefix!r}: {err}") from err
        if net.prefixlen != 48:
            raise InputError(f"prefix length must be 48, got /{net.prefixlen}")
        base = int(net.network_address)
    else:
        try:
            base = int(IPv6Address(text))
        except (AddressValueError, ValueError) as err:
            # a bare group form like "fd00:0:0" names just the leading bits
            if "::" not in text:
                try:
                    base = int(IPv6Address(text + "::"))
                except (AddressValueError, ValueError):
                    raise InputError(f"bad prefix {prefix!r}: {err}") from err
            else:
                raise InputError(f"bad prefix {prefix!r}: {err}") from err
    if base & ((1 << 80) - 1):
        raise InputError(f"prefix {prefix!r} has bits set below the top 48")
    return base >> 80


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


class Handshake(Sequence[Message]):
    """The Hello/Reply/Assign trace of one ``assign_addresses`` call.

    It holds the 48-bit prefix value and one block per served cluster (one
    with a member besides its head): ``(first seq, cluster id, head, non-head
    members)``, clusters by id and members ascending. Its messages are built
    as they are read. ``len`` is 3 × the non-heads; indexing, slicing and
    iteration give ``Message`` objects, and it equals any list or tuple of
    the same messages.
    """

    def __init__(
        self, prefix48: int, blocks: tuple[tuple[int, int, NodeId, tuple[NodeId, ...]], ...]
    ) -> None:
        self.prefix48 = prefix48
        self.blocks = blocks

    def __len__(self) -> int:
        if not self.blocks:
            return 0
        first, _, _, members = self.blocks[-1]
        return first + 3 * len(members)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        seq = operator.index(index)
        if seq < 0:
            seq += len(self)
        if not 0 <= seq < len(self):
            raise IndexError("handshake index out of range")
        first, cluster_id, head, members = self.blocks[
            bisect_right(self.blocks, seq, key=operator.itemgetter(0)) - 1
        ]
        step, kind = divmod(seq - first, 3)
        member = members[step]
        if kind == 0:
            return Message(seq, head, member, MessageKind.HELLO)
        if kind == 1:
            return Message(seq, member, head, MessageKind.REPLY)
        address = node_address(self.prefix48, cluster_id, member)
        return Message(seq, head, member, MessageKind.ASSIGN, address)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Handshake, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Handshake(prefix48={self.prefix48:#x}, blocks={self.blocks!r})"


def assign_addresses(
    clusters: ClusterSet, prefix: str | int = DEFAULT_PREFIX
) -> tuple[dict[NodeId, IPv6Address], Handshake]:
    """Run the assignment handshake over every cluster.

    Returns the address map and the message trace. Clusters are served in
    cluster-id order; within each, the head self-assigns silently, then each
    member in ascending id order costs three messages (Hello, Reply, Assign).
    Every address is built here, so a ``CapacityError`` is raised by this
    call; the trace's messages are built only when read.
    """
    prefix48 = parse_prefix(prefix)
    addresses: dict[NodeId, IPv6Address] = {}
    blocks = []
    seq = 0
    for cluster in sorted(clusters.clusters, key=lambda c: c.cluster_id):
        cluster_id, head = cluster.cluster_id, cluster.head
        addresses[head] = node_address(prefix48, cluster_id, head)
        others = tuple(m for m in cluster.members if m != head)
        for member in others:
            addresses[member] = node_address(prefix48, cluster_id, member)
        if others:
            blocks.append((seq, cluster_id, head, others))
            seq += 3 * len(others)
    return addresses, Handshake(prefix48, tuple(blocks))
