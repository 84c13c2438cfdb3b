import random
from ipaddress import IPv6Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbench import (
    CapacityError,
    Cluster,
    ClusterSet,
    InputError,
    MessageKind,
    assign_addresses,
)
from clusterbench.addressing import node_address, parse_prefix
from reference import DEFAULT_PREFIX48, handshake_messages, ref_addresses, ref_handshake
from strategies import head_rotations, partitions, random_partition


def test_layout_example():
    # head 7 with member 5 in cluster 0: interface id is node_id + 1
    clusters = ClusterSet(
        (
            Cluster(0, 7, (5, 7)),
            Cluster(1, 0, (0, 1, 2, 3, 4, 6)),
        ),
        8,
    )
    addresses, _ = assign_addresses(clusters, "fd00:0:0")
    assert addresses[5] == IPv6Address("fd00::6")
    assert addresses[7] == IPv6Address("fd00::8")
    assert addresses[1] == IPv6Address("fd00:0:0:1::2")


def test_prefix_spellings_agree():
    assert parse_prefix("fd00::/48") == parse_prefix("fd00::") == parse_prefix("fd00:0:0")
    assert parse_prefix(0xFD00_0000_0000) == parse_prefix("fd00::")


def test_prefix_rejects_bad_values():
    with pytest.raises(InputError):
        parse_prefix("fd00::/64")  # wrong length
    with pytest.raises(InputError):
        parse_prefix("fd00::1")  # bits below the top 48
    with pytest.raises(InputError):
        parse_prefix("not-an-address")
    with pytest.raises(InputError):
        parse_prefix(2**48)
    with pytest.raises(InputError):
        parse_prefix(True)


def test_head_only_cluster_has_no_traffic():
    clusters = ClusterSet((Cluster(0, 0, (0,)),), 1)
    addresses, trace = assign_addresses(clusters)
    assert len(addresses) == 1
    assert len(trace) == 0 and handshake_messages(trace, addresses) == ()


def test_trace_choreography():
    clusters = ClusterSet((Cluster(0, 2, (0, 1, 2)),), 3)
    addresses, handshake = assign_addresses(clusters)
    assert len(handshake) == 6  # three messages per non-head member
    trace = handshake_messages(handshake, addresses)
    assert [m.seq for m in trace] == list(range(6))
    # member 0 first, then member 1, each Hello/Reply/Assign
    hello, reply, assign = trace[:3]
    assert (hello.kind, hello.sender, hello.receiver) == (MessageKind.HELLO, 2, 0)
    assert (reply.kind, reply.sender, reply.receiver) == (MessageKind.REPLY, 0, 2)
    assert (assign.kind, assign.sender, assign.receiver) == (MessageKind.ASSIGN, 2, 0)
    assert assign.payload == addresses[0]
    assert trace[3].receiver == 1
    assert hello.payload is None and reply.payload is None


def test_cluster_id_overflow():
    clusters = ClusterSet((Cluster(2**16, 0, (0,)),), 1)
    with pytest.raises(CapacityError, match="cluster id 65536 does not fit"):
        assign_addresses(clusters)


def test_capacity_is_checked_at_the_call():
    # The map builds its addresses only when read, but a field that does not
    # fit is refused by the call itself, for the first cluster by id.
    clusters = ClusterSet(
        (Cluster(2**16 + 1, 3, (3,)), Cluster(0, 0, (0, 1)), Cluster(2**16, 2, (2,))), 4
    )
    with pytest.raises(CapacityError) as raised:
        assign_addresses(clusters)
    assert str(raised.value) == "cluster id 65536 does not fit the 16-bit subnet field"


def unchecked_partition(clusters, node_universe):
    """A ClusterSet whose partition check is skipped, so that node ids too
    wide for the host field can reach ``assign_addresses``."""
    partition = object.__new__(ClusterSet)
    object.__setattr__(partition, "clusters", clusters)
    object.__setattr__(partition, "node_universe", node_universe)
    return partition


@pytest.mark.parametrize(
    "clusters",
    [
        (Cluster(0, 0, (0, 2**64 - 1, 2**64)),),
        (Cluster(0, 2**64, (0, 2**64 - 1, 2**64)),),
        (Cluster(1, -1, (-1, 2**64)), Cluster(0, 0, (0, 2**64 - 1))),
        (Cluster(0, 0, (-2, -1, 0)),),
        (Cluster(0, 0, (0, 1)), Cluster(2**16, 2**64, (2**64,))),
    ],
)
def test_capacity_error_names_what_a_node_by_node_pass_names(clusters):
    partition = unchecked_partition(clusters, 2)
    with pytest.raises(CapacityError) as expected:
        ref_addresses(partition)
    with pytest.raises(CapacityError) as raised:
        assign_addresses(partition)
    assert str(raised.value) == str(expected.value)


def test_node_address_overflow():
    with pytest.raises(CapacityError):
        node_address(0, 0, 2**64 - 1)  # interface id would need 2^64


def test_address_encodes_cluster_membership():
    nodes4 = ClusterSet((Cluster(0, 0, (0, 1)), Cluster(1, 2, (2, 3))), 4)
    regrouped = ClusterSet((Cluster(0, 0, (0,)), Cluster(1, 1, (1, 2, 3))), 4)
    before, _ = assign_addresses(nodes4)
    after, _ = assign_addresses(regrouped)
    assert before[1] != after[1]  # node 1 moved clusters, so its address moved
    assert before[0] == after[0]  # node 0 stayed in cluster 0


@settings(max_examples=100)
@given(data=partitions(max_nodes=30))
def test_addresses_unique_and_total(data):
    clusters, _pos = data
    addresses, trace = assign_addresses(clusters)
    assert set(addresses) == set(range(clusters.node_universe))
    assert len(set(addresses.values())) == clusters.node_universe
    non_heads = clusters.node_universe - len(clusters.clusters)
    assert len(trace) == 3 * non_heads


def test_trace_pattern_per_member():
    rnd = random.Random(8)
    for _ in range(50):
        clusters, _pos = random_partition(rnd, min_nodes=2, max_nodes=30)
        addresses, trace = assign_addresses(clusters)
        heads = {c.head for c in clusters.clusters}
        per_member: dict[int, list] = {}
        for msg in handshake_messages(trace, addresses):
            member = msg.receiver if msg.kind != MessageKind.REPLY else msg.sender
            per_member.setdefault(member, []).append(msg.kind)
        for member, kinds in per_member.items():
            assert member not in heads
            assert kinds == [MessageKind.HELLO, MessageKind.REPLY, MessageKind.ASSIGN]


PREFIXES = [0, DEFAULT_PREFIX48, 2**48 - 1]


@settings(max_examples=100, deadline=None)
@given(
    partition=partitions(max_nodes=30),
    prefix48=st.sampled_from(PREFIXES),
    data=st.data(),
)
def test_trace_matches_reference(partition, prefix48, data):
    # The handshake holds the call's own served clusters, by id; they expand
    # to the reference's messages, in order and numbered from 0, and its len
    # is their count, 3 for each non-head.
    clusters = data.draw(head_rotations(partition[0]))
    addresses, trace = assign_addresses(clusters, prefix48)
    by_id = sorted(clusters.clusters, key=lambda c: c.cluster_id)
    served = [c for c in by_id if len(c.members) > 1]
    assert list(map(id, trace.clusters)) == list(map(id, served))
    expected = ref_handshake(clusters, prefix48)
    assert len(trace) == len(expected) == 3 * (clusters.node_universe - len(clusters.clusters))
    # The payloads come from the map and the reference's from its bit fields.
    assert handshake_messages(trace, addresses) == tuple(expected)
    for msg in expected:
        if msg.kind is MessageKind.ASSIGN:
            assert addresses[msg.receiver] == msg.payload


@settings(max_examples=100, deadline=None)
@given(
    partition=partitions(max_nodes=30),
    prefix48=st.sampled_from(PREFIXES),
    data=st.data(),
)
def test_address_map_matches_reference(partition, prefix48, data):
    # The map builds its addresses on its first read, whichever key that
    # read asks for, and then reads as the eager dict: by key in any order,
    # by len, by iteration order and by ==.
    clusters = data.draw(head_rotations(partition[0]))
    expected = ref_addresses(clusters, prefix48)
    addresses, _trace = assign_addresses(clusters, prefix48)
    assert len(addresses) == len(expected) == clusters.node_universe
    order = data.draw(st.permutations(list(expected)))
    assert [addresses[node_id] for node_id in order] == [expected[i] for i in order]
    assert list(addresses) == list(expected)
    assert addresses == expected and expected == addresses
    assert list(addresses.items()) == list(expected.items())
    assert clusters.node_universe not in addresses
    with pytest.raises(KeyError):
        addresses[clusters.node_universe]
