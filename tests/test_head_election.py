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
    members = tuple(sorted(energies))
    cs = ClusterSet((Cluster(0, head if head is not None else members[0], members),), len(members))
    return cs, dict(energies)


def test_max_energy_argmax():
    cs, snap = one_cluster({0: 50.0, 1: 100.0, 2: 500.0, 3: 300.0})
    # shift ids to match: members 0..3
    assert psopac_rebuild(cs, snap, 500.0).clusters[0].head == 2


def test_max_energy_tie_takes_lower_id():
    cs, snap = one_cluster({0: 10.0, 1: 500.0, 2: 500.0})
    assert psopac_rebuild(cs, snap, 500.0).clusters[0].head == 1


def test_max_energy_missing_reading():
    cs = ClusterSet((Cluster(0, 0, (0, 1)),), 2)
    with pytest.raises(ConsistencyError):
        psopac_rebuild(cs, {0: 5.0}, 500.0)


@pytest.mark.parametrize("reading", [float("nan"), float("-inf")])
def test_rotate_rejects_cluster_without_reading_above_minus_inf(reading):
    # NaN and -inf never beat the running maximum, so no member can be head.
    cs = ClusterSet((Cluster(0, 0, (0,)), Cluster(1, 1, (1, 2))), 3)
    snap = {0: 5.0, 1: reading, 2: reading}
    with pytest.raises(InputError, match=r"^cluster 1: no energy reading is above -inf"):
        rotate_heads(cs, snap, threshold=500.0)


def test_rebuild_elects_head_and_passes_low_energy_members():
    cs, snap = one_cluster({0: 900.0, 1: 300.0, 2: 450.0})
    out = psopac_rebuild(cs, snap, threshold=500.0)
    assert out.clusters[0].head == 0
    assert out.clusters[0].threshold_exempt == frozenset()


def test_rebuild_flags_member_failing_literal_test():
    # literal mode passes only members with energy strictly under the threshold
    cs, snap = one_cluster({0: 900.0, 1: 600.0})
    out = psopac_rebuild(cs, snap, threshold=500.0)
    assert out.clusters[0].head == 0
    assert out.clusters[0].threshold_exempt == frozenset({1})
    assert out.clusters[0].members == (0, 1)  # flagged, not dropped


def test_rebuild_conventional_comparator():
    cs, snap = one_cluster({0: 900.0, 1: 600.0, 2: 300.0})
    out = psopac_rebuild(cs, snap, threshold=500.0, comparator="at_or_above")
    assert out.clusters[0].head == 0
    assert out.clusters[0].threshold_exempt == frozenset({2})


def test_rebuild_singleton_without_membership_test():
    cs, snap = one_cluster({0: 1.0})
    out = psopac_rebuild(cs, snap, threshold=500.0)
    assert out.clusters[0].head == 0
    assert out.clusters[0].threshold_exempt == frozenset()


def test_rebuild_rejects_empty_and_bad_comparator():
    with pytest.raises(InputError):
        psopac_rebuild(ClusterSet((), 0), {}, 500.0)
    cs, snap = one_cluster({0: 1.0})
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
    scaled = psopac_rebuild(clusters, {n: e * k for n, e in energies.items()}, threshold * k)
    assert [c.head for c in base.clusters] == [c.head for c in scaled.clusters]


def test_rotate_reports_changes_and_is_idempotent():
    cs, snap = one_cluster({0: 100.0, 1: 90.0})
    rotated, changes = rotate_heads(cs, snap, threshold=1000.0)
    assert changes == []  # argmax unchanged
    drained = {0: 40.0, 1: 80.0}
    rotated, changes = rotate_heads(rotated, drained, threshold=1000.0, at_tick=1)
    assert len(changes) == 1
    change = changes[0]
    assert (change.cluster_id, change.old_head, change.new_head, change.at_tick) == (0, 0, 1, 1)
    again, changes = rotate_heads(rotated, drained, threshold=1000.0, at_tick=1)
    assert changes == []
    assert again == rotated


def test_rotate_new_head_loses_exempt_flag():
    # a member above the literal threshold is exempt — until it becomes head
    cs, snap = one_cluster({0: 700.0, 1: 600.0})
    built = psopac_rebuild(cs, snap, threshold=500.0)
    assert built.clusters[0].threshold_exempt == frozenset({1})
    drained = {0: 550.0, 1: 590.0}
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
    moved = {
        n: float(draw.draw(st.integers(0, 8))) if draw.draw(st.booleans()) else e
        for n, e in energies.items()
    }
    for start in (clusters, elected):
        rotated, changes = rotate_heads(start, moved, threshold, comparator, 1)
        assert (rotated, changes) == ref_rotate_heads(start, moved, threshold, comparator, 1)
        for old, new in zip(start.clusters, rotated.clusters):
            unchanged = (new.head, new.threshold_exempt) == (old.head, old.threshold_exempt)
            assert (new is old) == unchanged


def test_shared_states_return_a_state_seen_before_as_its_object():
    cs, snap = one_cluster({0: 100.0, 1: 90.0})
    a, _ = rotate_heads(cs, snap, threshold=1000.0)
    states = cluster_states(a)
    b, changes = rotate_heads(a, {0: 80.0, 1: 90.0}, 1000.0, at_tick=1, states=states)
    assert [(c.old_head, c.new_head) for c in changes] == [(0, 1)]
    back, changes = rotate_heads(b, {0: 70.0, 1: 60.0}, 1000.0, at_tick=2, states=states)
    assert [(c.old_head, c.new_head) for c in changes] == [(1, 0)]
    assert back.clusters[0] is a.clusters[0]
    assert [id(c) for c in states.values()] == [id(a.clusters[0]), id(b.clusters[0])]


def test_without_states_a_changed_cluster_is_built_afresh():
    cs, snap = one_cluster({0: 100.0, 1: 90.0})
    a, _ = rotate_heads(cs, snap, threshold=1000.0)
    b, _ = rotate_heads(a, {0: 80.0, 1: 90.0}, 1000.0, at_tick=1)
    back, _ = rotate_heads(b, {0: 70.0, 1: 60.0}, 1000.0, at_tick=2)
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
        energies = {n: float(moves.get(n, e)) for n, e in energies.items()}
        expected = ref_rotate_heads(current, energies, threshold, comparator, tick)
        current, changes = rotate_heads(current, energies, threshold, comparator, tick, states)
        assert (current, changes) == expected
        for cluster in current.clusters:
            key = (cluster.cluster_id, cluster.head, cluster.members, cluster.threshold_exempt)
            assert states[key] is cluster
            seen[id(cluster)] = cluster
    # One object per distinct state over the whole run.
    assert len({(c.cluster_id, c.head, c.members, c.threshold_exempt) for c in seen.values()}) == len(seen)
