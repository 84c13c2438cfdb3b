import pytest

from clusterbench import (
    Cluster,
    ClusterSet,
    HeadChange,
    InputError,
    Node,
    Position,
    ReclusterEvent,
    ScenarioConfig,
    drain,
    run_simulation,
)
from clusterbench import sim, validation
from clusterbench.sim import AddressEvent
from reference import ref_dunn_index, ref_expac_cluster, ref_rotate_heads


def line_nodes(xs, energies):
    return [Node(i, Position(float(x), 0.0), float(e)) for i, (x, e) in enumerate(zip(xs, energies))]


def head_changes(snapshots):
    return [e for s in snapshots for e in s.events if isinstance(e, HeadChange)]


def recluster_events(snapshots):
    return [e for s in snapshots for e in s.events if isinstance(e, ReclusterEvent)]


# --- drain ------------------------------------------------------------------


def test_drain_rates_and_clamp():
    clusters = ClusterSet((Cluster(0, 0, (0, 1)),), 2)
    cfg = ScenarioConfig(node_count=2)
    out = drain({0: 500.0, 1: 5.0}, clusters, cfg)
    assert out == {0: 450.0, 1: 0.0}


def test_drain_zero_rates_identity():
    clusters = ClusterSet((Cluster(0, 0, (0, 1)),), 2)
    cfg = ScenarioConfig(node_count=2, drain_member=0.0, drain_head=0.0)
    before = {0: 42.0, 1: 7.0}
    out = drain(before, clusters, cfg)
    assert out == before


# --- timeline shape ---------------------------------------------------------


def test_snapshot_count():
    snaps = run_simulation(ScenarioConfig(seed=3))
    assert [s.at_tick for s in snaps] == [0, 1, 2, 3, 4, 5]


def test_fractional_horizon_floors_tick_count():
    snaps = run_simulation(ScenarioConfig(seed=3, execution_time=2.5))
    assert [s.at_tick for s in snaps] == [0, 1, 2]


@pytest.mark.parametrize(
    "execution_time, tick, steps", [(0.3, 0.1, 3), (0.7, 0.1, 7), (2.5, 1.0, 2)]
)
def test_tick_count_tolerates_float_division(execution_time, tick, steps):
    cfg = ScenarioConfig(node_count=4, seed=3, execution_time=execution_time, tick=tick)
    assert [s.at_tick for s in run_simulation(cfg)] == list(range(steps + 1))


def test_initial_snapshot_has_addresses_and_setup_event():
    snaps = run_simulation(ScenarioConfig(seed=3))
    first = snaps[0]
    assert set(first.addresses) == set(range(25))
    setup = [e for e in first.events if isinstance(e, AddressEvent)]
    assert len(setup) == 1
    non_heads = 25 - len(first.clusters.clusters)
    assert len(setup[0].messages) == 3 * non_heads


def test_energies_never_increase_and_membership_total():
    for seed in (0, 1, 2):
        snaps = run_simulation(ScenarioConfig(seed=seed))
        for earlier, later in zip(snaps, snaps[1:]):
            for node_id, energy in later.energies.items():
                assert energy <= earlier.energies[node_id]
        for snap in snaps:
            members = [m for c in snap.clusters.clusters for m in c.members]
            assert sorted(members) == list(range(25))


def test_head_crossover_at_computed_tick():
    # head lead of 90 at unequal drain rates 50 vs 10 flips the argmax at tick 3
    nodes = line_nodes([0, 1], [500.0, 410.0])
    cfg = ScenarioConfig(
        node_count=2,
        tx_range=5.0,
        energy_threshold=10_000.0,
        execution_time=5.0,
        validation_interval=1,
    )
    snaps = run_simulation(cfg, nodes=nodes)
    assert snaps[0].clusters.clusters[0].head == 0
    changes = head_changes(snaps)
    assert changes, "expected at least the crossover change"
    first = changes[0]
    assert (first.cluster_id, first.old_head, first.new_head, first.at_tick) == (0, 0, 1, 3)
    assert all(c.at_tick >= 3 for c in changes)
    # energies at the crossover: 500-150 vs 410-30
    assert snaps[3].energies == {0: 350.0, 1: 380.0}
    assert snaps[3].clusters.clusters[0].head == 1


def test_recluster_fires_at_scheduled_validation_only():
    # two-cluster line: separation 18, widest cluster 38 → index just below 0.5
    nodes = line_nodes([0, 19, 38, 56], [800.0, 900.0, 700.0, 600.0])
    cfg = ScenarioConfig(
        node_count=4,
        tx_range=20.0,
        execution_time=5.0,
        validation_interval=3,
    )
    snaps = run_simulation(cfg, nodes=nodes)

    assert snaps[0].report is not None
    assert snaps[0].report.recommend_recluster is True  # but tick 0 never re-clusters
    assert recluster_events(snaps[:1]) == []

    events = recluster_events(snaps)
    assert len(events) == 1
    event = events[0]
    assert event.at_tick == 3
    assert event.trigger_index == 18 / 38
    assert event.trigger_index < cfg.dunn_recluster_threshold
    assert (event.old_cluster_count, event.new_cluster_count) == (2, 2)

    # validation only on schedule: ticks 0 and 3
    assert [s.at_tick for s in snaps if s.report is not None] == [0, 3]

    # the re-addressing that follows the re-cluster is recorded
    readdress = [e for e in snaps[3].events if isinstance(e, AddressEvent)]
    assert len(readdress) == 1


def test_single_cluster_run_reports_none():
    nodes = line_nodes([0, 1, 2], [500.0, 500.0, 500.0])
    cfg = ScenarioConfig(node_count=3, tx_range=10.0, execution_time=3.0)
    snaps = run_simulation(cfg, nodes=nodes)
    assert len(snaps[0].clusters.clusters) == 1
    assert all(s.report is None for s in snaps)


def test_single_node_run():
    snaps = run_simulation(ScenarioConfig(node_count=1, seed=9))
    assert all(s.report is None for s in snaps)
    assert len(snaps) == 6


def test_errors_carry_tick_number():
    bad = [Node(0, Position(0, 0), 1.0), Node(5, Position(1, 1), 1.0)]
    with pytest.raises(InputError) as err:
        run_simulation(ScenarioConfig(node_count=2), nodes=bad)
    assert str(err.value).startswith("tick 0:")


def test_simulation_is_deterministic():
    cfg = ScenarioConfig(seed=11)
    assert run_simulation(cfg) == run_simulation(cfg)


def test_timeline_matches_reference_kernels(monkeypatch):
    cfg = ScenarioConfig(node_count=60, seed=11)
    fast = run_simulation(cfg)
    monkeypatch.setattr(sim, "expac_cluster", ref_expac_cluster)
    monkeypatch.setattr(validation, "dunn_index", ref_dunn_index)
    assert run_simulation(cfg) == fast


# --- the re-cluster fixed point ---------------------------------------------


def test_recluster_reproduces_tick_zero_partition():
    # Positions are static and rotation keeps membership, so the partition,
    # the Dunn report and the addresses never leave their tick-0 values.
    reclusters = 0
    for seed in range(5):
        snaps = run_simulation(ScenarioConfig(seed=seed, execution_time=10.0))
        reclusters += len(recluster_events(snaps))
        first = snaps[0]
        membership = [(c.cluster_id, c.members) for c in first.clusters.clusters]
        for snap in snaps:
            assert [(c.cluster_id, c.members) for c in snap.clusters.clusters] == membership
            assert snap.report is None or snap.report == first.report
            assert snap.addresses == first.addresses
            for event in snap.events:
                if isinstance(event, ReclusterEvent):
                    assert event.old_cluster_count == event.new_cluster_count
                elif isinstance(event, AddressEvent):
                    assert event.assigned == first.addresses
    assert reclusters > 0


def test_partition_and_index_computed_once_per_run(monkeypatch):
    calls = {"expac_cluster": 0, "dunn_index": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(sim, "expac_cluster")
    counted(validation, "dunn_index")
    for seed in range(5):
        calls.update(expac_cluster=0, dunn_index=0)
        run_simulation(ScenarioConfig(seed=seed))
        assert calls == {"expac_cluster": 1, "dunn_index": 1}


def test_unchanged_clusters_carry_over_between_ticks():
    # Energies straddle the literal threshold and drain slowly, so the run has
    # unchanged clusters, head changes and exempt-only changes.
    cfg = ScenarioConfig(
        initial_energy=(480.0, 540.0), drain_member=1.0, drain_head=2.0, execution_time=20.0
    )
    snaps = run_simulation(cfg)
    kinds = {"kept": 0, "head": 0, "exempt": 0}
    for prev, cur in zip(snaps, snaps[1:]):
        fresh, _ = ref_rotate_heads(
            prev.clusters, cur.energies, cfg.energy_threshold, cfg.comparator
        )
        assert cur.clusters == fresh
        for old, new, built in zip(prev.clusters.clusters, cur.clusters.clusters, fresh.clusters):
            if new.head != old.head:
                kinds["head"] += 1
            elif new.threshold_exempt != old.threshold_exempt:
                kinds["exempt"] += 1
            else:
                kinds["kept"] += 1
                assert new is old
                continue
            assert new is not old and new == built
    assert all(kinds.values()), kinds
