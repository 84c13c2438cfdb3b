from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbench import (
    Cluster,
    ClusterSet,
    ConfigError,
    ConsistencyError,
    InputError,
    psopac_rebuild,
    rotate_heads,
)
from clusterbench.head_election import cluster_states
from clusterbench.model import COMPARATORS
from reference import ref_rotate_heads
from strategies import partitions_with_energies


def one_cluster(energies, head=None):
    """One cluster of nodes 0..len(energies)-1, headed by ``head`` or node 0,
    and its energies as a list."""
    members = tuple(range(len(energies)))
    cs = ClusterSet((Cluster(0, head if head is not None else 0, members),), len(members))
    return cs, list(energies)


def test_max_energy_argmax():
    cs, snap = one_cluster([50.0, 100.0, 500.0, 300.0])
    assert psopac_rebuild(cs, snap, 500.0).clusters[0].head == 2


def test_max_energy_tie_takes_lower_id():
    cs, snap = one_cluster([10.0, 500.0, 500.0])
    assert psopac_rebuild(cs, snap, 500.0).clusters[0].head == 1


def test_max_energy_missing_reading():
    cs = ClusterSet((Cluster(0, 0, (0, 1)),), 2)
    with pytest.raises(ConsistencyError):
        psopac_rebuild(cs, [5.0], 500.0)


def test_energies_that_are_not_a_list_or_tuple_are_refused():
    # A dict of the right length passed the length check, then raised a bare
    # KeyError for node 1.
    cs = ClusterSet((Cluster(0, 0, (0, 1)),), 2)
    with pytest.raises(
        ConsistencyError, match="^energies must be a list, tuple or array, got dict$"
    ):
        psopac_rebuild(cs, {0: 5.0, 7: 1.0}, 500.0)
    assert psopac_rebuild(cs, (5.0, 1.0), 500.0).clusters[0].head == 0
    assert psopac_rebuild(cs, array("d", [1.0, 5.0]), 500.0).clusters[0].head == 1


@pytest.mark.parametrize("reading", [float("nan"), float("-inf")])
def test_rotate_rejects_cluster_without_reading_above_minus_inf(reading):
    # NaN and -inf never beat the running maximum, so no member can be head.
    cs = ClusterSet((Cluster(0, 0, (0,)), Cluster(1, 1, (1, 2))), 3)
    snap = [5.0, reading, reading]
    with pytest.raises(InputError, match=r"^cluster 1: no energy reading is above -inf"):
        rotate_heads(cs, snap, threshold=500.0)


def test_rebuild_elects_head_and_passes_low_energy_members():
    cs, snap = one_cluster([900.0, 300.0, 450.0])
    out = psopac_rebuild(cs, snap, threshold=500.0)
    assert out.clusters[0].head == 0
    assert out.clusters[0].threshold_exempt == frozenset()


def test_rebuild_flags_member_failing_literal_test():
    # literal mode passes only members with energy strictly under the threshold
    cs, snap = one_cluster([900.0, 600.0])
    out = psopac_rebuild(cs, snap, threshold=500.0)
    assert out.clusters[0].head == 0
    assert out.clusters[0].threshold_exempt == frozenset({1})
    assert out.clusters[0].members == (0, 1)  # flagged, not dropped


def test_rebuild_conventional_comparator():
    cs, snap = one_cluster([900.0, 600.0, 300.0])
    out = psopac_rebuild(cs, snap, threshold=500.0, comparator="at_or_above")
    assert out.clusters[0].head == 0
    assert out.clusters[0].threshold_exempt == frozenset({2})


def test_rebuild_singleton_without_membership_test():
    cs, snap = one_cluster([1.0])
    out = psopac_rebuild(cs, snap, threshold=500.0)
    assert out.clusters[0].head == 0
    assert out.clusters[0].threshold_exempt == frozenset()


def test_rebuild_rejects_empty_and_bad_comparator():
    with pytest.raises(InputError):
        psopac_rebuild(ClusterSet((), 0), [], 500.0)
    cs, snap = one_cluster([1.0])
    with pytest.raises(ConfigError):
        psopac_rebuild(cs, snap, 500.0, comparator="between")


@settings(max_examples=100)
@given(data=partitions_with_energies())
def test_rebuild_preserves_partition_and_head_invariant(data):
    clusters, _positions, energies = data
    out = psopac_rebuild(clusters, energies, threshold=400.0)
    assert out.node_universe == clusters.node_universe
    for before, after in zip(clusters.clusters, out.clusters):
        assert after.cluster_id == before.cluster_id
        assert after.members == before.members
        head_energy = energies[after.head]
        for member in after.members:
            assert energies[member] <= head_energy
            if energies[member] == head_energy:
                assert after.head <= member


@settings(max_examples=60)
@given(data=partitions_with_energies(), k=st.sampled_from([0.5, 2.0, 3.0, 10.0]))
def test_scaling_energies_keeps_heads(data, k):
    clusters, _positions, energies = data
    threshold = 400.0
    base = psopac_rebuild(clusters, energies, threshold)
    scaled = psopac_rebuild(clusters, [e * k for e in energies], threshold * k)
    assert [c.head for c in base.clusters] == [c.head for c in scaled.clusters]


def test_rotate_reports_changes_and_is_idempotent():
    cs, snap = one_cluster([100.0, 90.0])
    rotated, changes = rotate_heads(cs, snap, threshold=1000.0)
    assert changes == []  # argmax unchanged
    drained = [40.0, 80.0]
    rotated, changes = rotate_heads(rotated, drained, threshold=1000.0, at_tick=1)
    assert len(changes) == 1
    change = changes[0]
    assert (change.cluster_id, change.old_head, change.new_head, change.at_tick) == (0, 0, 1, 1)
    again, changes = rotate_heads(rotated, drained, threshold=1000.0, at_tick=1)
    assert changes == []
    assert again == rotated


def test_rotate_new_head_loses_exempt_flag():
    # a member above the literal threshold is exempt — until it becomes head
    cs, snap = one_cluster([700.0, 600.0])
    built = psopac_rebuild(cs, snap, threshold=500.0)
    assert built.clusters[0].threshold_exempt == frozenset({1})
    drained = [550.0, 590.0]
    rotated, changes = rotate_heads(built, drained, threshold=500.0, at_tick=3)
    assert changes[0].new_head == 1
    assert rotated.clusters[0].head == 1
    assert rotated.clusters[0].threshold_exempt == frozenset({0})


@settings(max_examples=200)
@given(
    data=partitions_with_energies(max_energy=8),
    threshold=st.integers(0, 8).map(float),
    comparator=st.sampled_from(COMPARATORS),
    draw=st.data(),
)
def test_rotate_matches_reference(data, threshold, comparator, draw):
    # Energies of 0..8 against a threshold in 0..8 give tied heads and
    # readings exactly at the threshold. The second partition carries the
    # heads and exempt sets of a first election, so some clusters come out
    # unchanged after the energies move.
    clusters, _positions, energies = data
    elected, _ = ref_rotate_heads(clusters, energies, threshold, comparator)
    moved = [
        float(draw.draw(st.integers(0, 8))) if draw.draw(st.booleans()) else e for e in energies
    ]
    for start in (clusters, elected):
        rotated, changes = rotate_heads(start, moved, threshold, comparator, 1)
        assert (rotated, changes) == ref_rotate_heads(start, moved, threshold, comparator, 1)
        for old, new in zip(start.clusters, rotated.clusters):
            unchanged = (new.head, new.threshold_exempt) == (old.head, old.threshold_exempt)
            assert (new is old) == unchanged


def test_shared_states_return_a_state_seen_before_as_its_object():
    cs, snap = one_cluster([100.0, 90.0])
    a, _ = rotate_heads(cs, snap, threshold=1000.0)
    states = cluster_states(a)
    b, changes = rotate_heads(a, [80.0, 90.0], 1000.0, at_tick=1, states=states)
    assert [(c.old_head, c.new_head) for c in changes] == [(0, 1)]
    back, changes = rotate_heads(b, [70.0, 60.0], 1000.0, at_tick=2, states=states)
    assert [(c.old_head, c.new_head) for c in changes] == [(1, 0)]
    assert back.clusters[0] is a.clusters[0]
    assert [id(c) for c in states.values()] == [id(a.clusters[0]), id(b.clusters[0])]


def test_without_states_a_changed_cluster_is_built_afresh():
    cs, snap = one_cluster([100.0, 90.0])
    a, _ = rotate_heads(cs, snap, threshold=1000.0)
    b, _ = rotate_heads(a, [80.0, 90.0], 1000.0, at_tick=1)
    back, _ = rotate_heads(b, [70.0, 60.0], 1000.0, at_tick=2)
    assert back.clusters[0] == a.clusters[0]
    assert back.clusters[0] is not a.clusters[0]


@settings(max_examples=150)
@given(
    data=partitions_with_energies(max_energy=8),
    threshold=st.integers(0, 8).map(float),
    comparator=st.sampled_from(COMPARATORS),
    ticks=st.lists(st.dictionaries(st.integers(0, 19), st.integers(0, 8)), min_size=1, max_size=6),
)
def test_rotate_with_shared_states_matches_reference(data, threshold, comparator, ticks):
    # Small integer energies moved a few at a time make heads and exempt sets
    # return to earlier states, which must come back as their first object.
    clusters, _positions, energies = data
    current, _ = ref_rotate_heads(clusters, energies, threshold, comparator)
    states = cluster_states(current)
    seen = {id(c): c for c in current.clusters}
    for tick, moves in enumerate(ticks, 1):
        energies = [float(moves.get(n, e)) for n, e in enumerate(energies)]
        expected = ref_rotate_heads(current, energies, threshold, comparator, tick)
        current, changes = rotate_heads(current, energies, threshold, comparator, tick, states)
        assert (current, changes) == expected
        for cluster in current.clusters:
            key = (cluster.cluster_id, cluster.head, cluster.members, cluster.threshold_exempt)
            assert states[key] is cluster
            seen[id(cluster)] = cluster
    # One object per distinct state over the whole run.
    assert len({(c.cluster_id, c.head, c.members, c.threshold_exempt) for c in seen.values()}) == len(seen)


def test_settled_clusters_are_returned_unelected():
    # Cluster 0's readings would elect node 1, but it is settled, so it comes
    # back as the same object; cluster 1 is elected as usual.
    cs = ClusterSet((Cluster(0, 0, (0, 1)), Cluster(1, 2, (2, 3))), 4)
    energies = [5.0, 9.0, 1.0, 7.0]
    rotated, changes = rotate_heads(cs, energies, 500.0, settled={0})
    assert rotated.clusters[0] is cs.clusters[0]
    assert rotated.clusters[1].head == 3
    assert [(c.cluster_id, c.new_head) for c in changes] == [(1, 3)]
    assert psopac_rebuild(cs, energies, 500.0).clusters[0].head == 1


def test_rotation_keeps_each_members_object():
    cs = ClusterSet((Cluster(0, 0, (0, 1, 2)), Cluster(1, 3, (3,))), 4)
    rotated, _ = rotate_heads(cs, [1.0, 2.0, 3.0, 4.0], 500.0)
    assert rotated.clusters[0].head == 2
    for before, after in zip(cs.clusters, rotated.clusters):
        assert after.members is before.members
