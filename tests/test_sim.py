import json
import math
import random
import tracemalloc
from ipaddress import IPv6Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbench import (
    Cluster,
    ClusterBenchError,
    ClusterSet,
    ConfigError,
    ConsistencyError,
    HeadChange,
    InputError,
    Node,
    Position,
    ReclusterEvent,
    ScenarioConfig,
    drain,
    generate_scenario,
    run_simulation,
)
from clusterbench import addressing, cli, sim, validation
from clusterbench.model import COMPARATORS, MAX_NODE_TICKS
from clusterbench.sim import AddressEvent, SimSnapshot
from clusterbench.tables import (
    ADDRESSES_TABLE,
    EVENTS_TABLE,
    MESSAGES_TABLE,
    NODES_TABLE,
    TIMELINE_TABLE,
    VALIDATION_TABLE,
    nodes_rows,
    simulation_tables,
    write_table,
)
from reference import (
    DEFAULT_PREFIX48,
    event_row,
    ref_csv_text,
    ref_dunn_index,
    ref_expac_cluster,
    ref_json_text,
    ref_rotate_heads,
    ref_simulate,
    ref_timeline_rows,
)


def line_nodes(xs, energies):
    return [Node(i, Position(float(x), 0.0), float(e)) for i, (x, e) in enumerate(zip(xs, energies))]


def head_changes(snapshots):
    return [e for s in snapshots for e in s.events if isinstance(e, HeadChange)]


def recluster_events(snapshots):
    return [e for s in snapshots for e in s.events if isinstance(e, ReclusterEvent)]


# --- drain ------------------------------------------------------------------


def clusters_of(*clusters):
    """A ``ClusterSet`` of ``(cluster_id, head, members)`` triples."""
    built = tuple(Cluster(cid, head, tuple(members)) for cid, head, members in clusters)
    return ClusterSet(built, sum(len(c.members) for c in built))


def test_drain_rates_and_clamp():
    # Heads pay drain_head (50), other members drain_member (10), clamped at
    # 0.0; a head is not always its cluster's lowest id. A cluster dies when
    # no member is left above 0.0, not when its head is: cluster 1 outlives
    # its head 4, while cluster 2 dies at tick 2, not at tick 1 with node 5.
    cfg = ScenarioConfig(node_count=7)
    clusters = clusters_of((0, 0, (0, 1, 2)), (1, 4, (3, 4)), (2, 5, (5, 6)))
    before = [500.0, 5.0, 20.0, 30.0, 60.0, 50.0, 15.0]
    out, died = drain(before, clusters, set(), cfg)
    assert out == [450.0, 0.0, 10.0, 20.0, 10.0, 0.0, 5.0]
    assert died == []
    out, died = drain(out, clusters, set(), cfg)
    assert out == [400.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0]
    assert died == [2]


def test_drain_zero_rates_identity():
    cfg = ScenarioConfig(node_count=2, drain_member=0.0, drain_head=0.0)
    before = [42.0, 7.0]
    out, died = drain(before, clusters_of((0, 0, (0, 1))), set(), cfg)
    assert out == before and out is not before
    assert died == []


def test_drain_skips_dead_nodes_and_reports_each_death_once():
    # Cluster 1 is already dead, so it keeps its readings (even a -0.0) and is
    # not reported again; cluster 2's tick-0 readings of -0.0 and 0.0 count
    # as dead only once drained, to +0.0. Cluster 0 stays live at zero rates.
    cfg = ScenarioConfig(node_count=5, drain_member=0.0, drain_head=0.0)
    clusters = clusters_of((0, 0, (0,)), (1, 1, (1, 4)), (2, 3, (2, 3)))
    before = [42.0, 0.0, -0.0, 0.0, -0.0]
    out, died = drain(before, clusters, {1}, cfg)
    assert out == before
    assert math.copysign(1.0, out[2]) == 1.0
    assert math.copysign(1.0, out[4]) == -1.0
    assert died == [2]
    assert drain(out, clusters, {1, 2}, cfg)[1] == []


def test_drain_member_without_reading_is_consistency_error():
    # node 2, a member of cluster 1, has no reading in a list of two
    clusters = clusters_of((0, 0, (0,)), (1, 2, (1, 2)))
    with pytest.raises(ConsistencyError, match="^2 energies for 3 nodes$"):
        drain([5.0, 5.0], clusters, set(), ScenarioConfig(node_count=3))


def test_drain_refuses_energies_that_are_not_a_list_or_tuple():
    # A dict of the right length passed the length check, then raised a bare
    # KeyError for node 1; a tuple is drained into a list.
    clusters, cfg = clusters_of((0, 0, (0, 1))), ScenarioConfig(node_count=2)
    with pytest.raises(ConsistencyError, match="^energies must be a list or tuple, got dict$"):
        drain({0: 5.0, 7: 1.0}, clusters, set(), cfg)
    assert drain((500.0, 5.0), clusters, set(), cfg) == ([450.0, 0.0], [])


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
            assert len(later.energies) == 25
            for node_id, energy in enumerate(later.energies):
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
    assert snaps[3].energies == [350.0, 380.0]
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


def test_input_order_of_nodes_does_not_matter():
    # The energies are indexed by node id: a list built in input order would
    # hand the shuffled run's readings to the wrong nodes.
    cfg = ScenarioConfig(node_count=60, execution_time=10.0, validation_interval=2, seed=4)
    nodes = generate_scenario(cfg)
    shuffled = nodes[:]
    random.Random(1).shuffle(shuffled)
    assert shuffled != nodes
    for ours, theirs in zip(run_simulation(cfg, nodes=shuffled), run_simulation(cfg, nodes=nodes)):
        assert ours.energies == theirs.energies
        assert ours.clusters == theirs.clusters
        assert ours.report == theirs.report
        assert list(map(event_row, ours.events)) == list(map(event_row, theirs.events))
    assert head_changes(run_simulation(cfg, nodes=shuffled))


def test_shuffled_nodes_with_an_id_out_of_range_fail_at_tick_0():
    nodes = [Node(2, Position(1, 1), 1.0), Node(0, Position(0, 0), 1.0), Node(3, Position(2, 2), 1.0)]
    with pytest.raises(InputError, match=r"^tick 0: node ids must be the dense range 0\.\.N-1"):
        run_simulation(ScenarioConfig(node_count=3), nodes=nodes)


def test_run_size_bound_admits_exactly_max_node_ticks(monkeypatch):
    # 100 000 nodes over 50 ticks are MAX_NODE_TICKS: the run starts, which
    # the stubbed placement shows; one node more is refused before placement.
    # Hand-built nodes are counted in place of the config's node_count.
    class Placed(Exception):
        pass

    def placement(config):
        raise Placed

    monkeypatch.setattr(sim, "generate_scenario", placement)
    assert 100_000 * 50 == MAX_NODE_TICKS
    with pytest.raises(Placed):
        run_simulation(ScenarioConfig(node_count=100_000, execution_time=49.0))
    with pytest.raises(ConfigError, match="node-ticks"):
        run_simulation(ScenarioConfig(node_count=100_001, execution_time=49.0))
    nodes = line_nodes([0, 1], [500.0, 500.0])
    assert len(run_simulation(ScenarioConfig(node_count=100_001, execution_time=49.0), nodes)) == 50


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


def test_reclusters_build_no_address(monkeypatch, tmp_path):
    # perfbench's sim_recluster run: 300 nodes re-cluster at every tick after
    # tick 0. Each re-cluster's handshake needs no address map and its map is
    # never read, so none is built; the tick-0 map is built on its first
    # read, once, and every snapshot and address event shares it. The
    # written tables take every address from that map, so a whole simulate
    # builds each address once.
    built = []
    monkeypatch.setattr(
        addressing, "IPv6Address", lambda value: built.append(value) or IPv6Address(value)
    )
    after_call = []
    assign = sim.assign_addresses

    def counted(*args):
        result = assign(*args)
        after_call.append(len(built))
        return result

    monkeypatch.setattr(sim, "assign_addresses", counted)
    snaps = run_simulation(ScenarioConfig(node_count=300, execution_time=50.0))
    assert len(recluster_events(snaps)) == 50 and len(after_call) == 51
    # None after tick 0's call, and none at it: the run reads no map.
    assert len(built) == after_call[0] == 0
    first = snaps[0].addresses
    assert len(first) == 300 and not built  # len builds nothing
    assert sorted(first) == list(range(300)) and len(built) == 300
    for snap in snaps:
        assert snap.addresses is first
        for event in snap.events:
            if isinstance(event, AddressEvent):
                assert event.assigned is first
    assert len({first[n] for n in range(300)}) == 300 and len(built) == 300  # kept
    config = tmp_path / "config.json"
    config.write_text('{"node_count": 300, "execution_time": 50.0}')
    for fmt in ("csv", "json"):
        built.clear()
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / fmt), "--format", fmt]
        assert cli.main(argv) == 0
        assert len(built) == 300, fmt


def test_unchanged_clusters_carry_over_between_ticks():
    # Energies straddle the literal threshold and drain slowly, so the run has
    # unchanged clusters, head changes and exempt-only changes.
    cfg = ScenarioConfig(
        initial_energy=(480.0, 540.0), drain_member=1.0, drain_head=2.0, execution_time=20.0
    )
    snaps = run_simulation(cfg)
    kinds = {"kept": 0, "head": 0, "exempt": 0}
    for prev, cur in zip(snaps, snaps[1:]):
        # the oracle reads a node id -> energy mapping
        fresh, _ = ref_rotate_heads(
            prev.clusters, dict(enumerate(cur.energies)), cfg.energy_threshold, cfg.comparator
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


def steady_config():
    # perfbench's sim_steady run: 500 nodes at 25 nodes/ha over 201 ticks,
    # validated at tick 0 only, with drains slow enough that heads cycle
    # among the same members (15 467 head changes over 864 cluster states).
    side = 100.0 * math.sqrt(500 / 25)
    return ScenarioConfig(
        node_count=500,
        area=(side, side),
        execution_time=200.0,
        drain_member=2.0,
        drain_head=10.0,
        validation_interval=1000,
    )


def test_each_cluster_state_is_built_once_per_run(monkeypatch):
    built = []
    post_init = Cluster.__post_init__

    def counted(self):
        post_init(self)
        built.append((self.cluster_id, self.head, self.members, self.threshold_exempt))

    monkeypatch.setattr(Cluster, "__post_init__", counted)
    first_tick = []  # builds made before the first re-election, at tick 0
    rotate = sim.rotate_heads

    def rotate_heads(*args, **kwargs):
        if not first_tick:
            first_tick.append(len(built))
        return rotate(*args, **kwargs)

    monkeypatch.setattr(sim, "rotate_heads", rotate_heads)
    snaps = run_simulation(steady_config())
    seen = set()
    new_states = []  # after tick 0, each state in the order it first appears
    for snap in snaps:
        for c in snap.clusters.clusters:
            state = (c.cluster_id, c.head, c.members, c.threshold_exempt)
            if state not in seen:
                seen.add(state)
                if snap.at_tick > 0:
                    new_states.append(state)
    assert built[first_tick[0]:] == new_states
    assert len(head_changes(snaps)) > 10 * len(new_states)
    objects = {id(c): c for snap in snaps for c in snap.clusters.clusters}
    assert len(objects) == len(seen)


def test_run_holds_under_6_5_mb_on_the_steady_workload():
    # 100 500 node-ticks. Each tick's snapshot keeps its partition and its
    # energies as one list indexed by node id; every cluster state is shared,
    # and the records hold their fields in slots, so the run holds about
    # 4.3 MB, against 5.0 MB with a __dict__ per record, 8.0 MB when each
    # snapshot kept a node id -> energy dict and 13.1 MB when each head
    # change built a new Cluster. tracemalloc counts Python's allocations, so
    # the figure does not depend on the host.
    config = steady_config()
    tracemalloc.start()
    try:
        snaps = run_simulation(config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(snaps) == 201
    assert held < 6.5e6, held


def test_the_steady_workload_tables_allocate_under_0_5_mb():
    # simulation_tables renders the events from the snapshots as they are
    # written, as it does the timeline and the messages, so it allocates only
    # the validation and addresses rows: about 0.19 MB at its peak, against
    # 2.18 MB when it held a 10-cell row tuple for each event.
    snaps = run_simulation(steady_config())
    assert len(head_changes(snaps)) >= 10_000
    tracemalloc.start()
    try:
        tables = simulation_tables(snaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables["events"][1]) == sum(len(snap.events) for snap in snaps)
    assert peak < 0.5e6, peak


def test_event_and_snapshot_records_have_no_instance_dict():
    # A run keeps every record to its end, 15 467 head changes on the steady
    # workload, so each one holds its fields in slots: a HeadChange takes
    # about 40 B less than with a __dict__.
    records = [
        HeadChange(3, 1, 2, 5), ReclusterEvent(5, 0.25, 4, 4), AddressEvent(0, {}, None),
        SimSnapshot(0, None, [], None, (), {}),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record)


# --- settled clusters: carried over, never elected again ---------------------


def assert_matches_full_reelection(cfg, nodes=None):
    """Run the scenario and check every tick against ``ref_simulate``, a full
    drain of every node and a full re-election of every cluster: each node's
    cluster, head and exempt flags, its energy bit for bit (so -0.0 is told
    from 0.0, which a tuple == would not do) and the events."""
    snaps = run_simulation(cfg, nodes)
    expected = ref_simulate(cfg, nodes)

    def bitwise(rows):
        return [(*row[:5], repr(row[5]), row[6]) for row in rows]

    assert bitwise(ref_timeline_rows(snaps)) == bitwise(expected["timeline"])
    assert [event_row(e) for snap in snaps for e in snap.events] == expected["events"]
    return snaps


def dead_clusters(snap):
    """The multi-member clusters of a snapshot whose members all read 0.0."""
    return [
        c for c in snap.clusters.clusters
        if len(c.members) > 1 and not any(snap.energies[m] for m in c.members)
    ]


SETTLED_CASES = {
    # tx_range below every spacing: every cluster is a singleton
    "singletons": (ScenarioConfig(node_count=30, tx_range=0.5, execution_time=8.0), None),
    "die-out": (
        ScenarioConfig(node_count=40, initial_energy=(0.0, 60.0), execution_time=12.0), None
    ),
    "threshold-0-below": (
        ScenarioConfig(
            node_count=40, initial_energy=(0.0, 60.0), energy_threshold=0.0, execution_time=12.0
        ),
        None,
    ),
    "threshold-0-at-or-above": (
        ScenarioConfig(
            node_count=40,
            initial_energy=(0.0, 60.0),
            energy_threshold=0.0,
            comparator="at_or_above",
            execution_time=12.0,
        ),
        None,
    ),
    "drain-member-0": (
        ScenarioConfig(
            node_count=40, initial_energy=(0.0, 60.0), drain_member=0.0, execution_time=4.0
        ),
        None,
    ),
    # 0 and 1 start at -0.0 and 0.0 in one cluster, 2 and 3 at +inf in
    # another, 4 alone at -0.0; 5 and 6 die at ticks 1 and 2.
    "hand-built": (
        ScenarioConfig(node_count=7, tx_range=2.0, execution_time=6.0, energy_threshold=0.0),
        line_nodes(
            [0, 1, 10, 11, 20, 30, 31], [-0.0, 0.0, math.inf, math.inf, -0.0, 10.0, 60.0]
        ),
    ),
}


@pytest.mark.parametrize("case", list(SETTLED_CASES))
def test_settled_runs_match_full_reelection(case):
    cfg, nodes = SETTLED_CASES[case]
    snaps = assert_matches_full_reelection(cfg, nodes)
    last = snaps[-1]
    if case == "singletons":
        assert all(len(c.members) == 1 for c in last.clusters.clusters)
        return
    if case == "hand-built":
        assert [c.members for c in last.clusters.clusters] == [(0, 1), (2, 3), (5, 6), (4,)]
        assert [repr(s.energies[0]) for s in snaps[:2]] == ["-0.0", "0.0"]
        assert last.energies[2] == last.energies[3] == math.inf
    if case == "drain-member-0":
        # only heads drain: a node never elected keeps its tick-0 reading
        heads = {c.head for snap in snaps for c in snap.clusters.clusters}
        kept = [n for n in range(len(last.energies)) if n not in heads]
        assert kept and all(last.energies[n] == snaps[0].energies[n] for n in kept)
    assert dead_clusters(last), "expected a cluster drained to 0.0"


HAND_ENERGY = st.sampled_from([-0.0, 0.0, math.inf]) | st.integers(0, 60).map(float)


@st.composite
def settled_scenarios(draw):
    """A small run, seeded or hand-built, where singletons, clusters that die
    out, zero thresholds and zero member drains are all common."""
    drain_member = draw(st.sampled_from([0.0, 1.0, 5.0]))
    base = dict(
        area=(60.0, 60.0),
        comparator=draw(st.sampled_from(COMPARATORS)),
        energy_threshold=draw(st.sampled_from([0.0, 10.0, 30.0, 500.0])),
        drain_member=drain_member,
        drain_head=drain_member + draw(st.sampled_from([0.0, 2.0, 20.0])),
        execution_time=float(draw(st.integers(1, 25))),
        validation_interval=draw(st.integers(1, 5)),
    )
    if draw(st.booleans()):
        low = draw(st.sampled_from([0.0, 5.0]))
        high = low + draw(st.sampled_from([0.0, 40.0, 100.0]))
        node_count = draw(st.integers(1, 30))
        seed = draw(st.integers(0, 2**16))
        return ScenarioConfig(node_count, seed=seed, initial_energy=(low, high), **base), None
    spots = draw(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=12,
                 unique=True)
    )
    nodes = [
        Node(i, Position(float(x), float(y)), draw(HAND_ENERGY)) for i, (x, y) in enumerate(spots)
    ]
    return ScenarioConfig(len(nodes), **base), nodes


@settings(max_examples=150, deadline=None)
@given(scenario=settled_scenarios())
def test_run_matches_full_reelection_every_tick(scenario):
    cfg, nodes = scenario
    assert_matches_full_reelection(cfg, nodes)


# --- the whole run against its oracle ---------------------------------------


@st.composite
def whole_runs(draw):
    """A run of up to 40 nodes over up to 12 ticks, seeded or hand-built
    (with energies of -0.0, 0.0 and +inf), under either comparator, validated
    every 1 to 3 ticks. A Dunn threshold of 100 re-clusters at each
    validation, and a range of 200 m makes one cluster, which has no index.
    A member drain of 0.0 is drawn half the time: -0.0 minus 0.0 is -0.0,
    which the drain must clamp to 0.0."""
    drain_member = draw(st.sampled_from([0.0, 0.0, 1.0, 5.0]))
    base = dict(
        area=(60.0, 60.0),
        tx_range=draw(st.sampled_from([5.0, 20.0, 200.0])),
        comparator=draw(st.sampled_from(COMPARATORS)),
        energy_threshold=draw(st.sampled_from([0.0, 10.0, 30.0, 500.0])),
        drain_member=drain_member,
        drain_head=drain_member + draw(st.sampled_from([0.0, 2.0, 20.0])),
        execution_time=float(draw(st.integers(0, 12))),
        validation_interval=draw(st.integers(1, 3)),
        dunn_recluster_threshold=draw(st.sampled_from([0.0, 0.5, 100.0])),
    )
    if draw(st.booleans()):
        low = draw(st.sampled_from([0.0, 5.0]))
        high = low + draw(st.sampled_from([0.0, 40.0, 100.0]))
        node_count = draw(st.integers(1, 40))
        seed = draw(st.integers(0, 2**16))
        return ScenarioConfig(node_count, seed=seed, initial_energy=(low, high), **base), None
    spots = draw(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=40,
                 unique=True)
    )
    nodes = [
        Node(i, Position(float(x), float(y)), draw(HAND_ENERGY)) for i, (x, y) in enumerate(spots)
    ]
    return ScenarioConfig(len(nodes), **base), nodes


SIMULATE_TABLES = {
    "timeline": TIMELINE_TABLE, "events": EVENTS_TABLE, "validation": VALIDATION_TABLE,
    "addresses": ADDRESSES_TABLE, "messages": MESSAGES_TABLE,
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("sim")


@settings(max_examples=200, deadline=None)
@given(run=whole_runs(), prefix48=st.sampled_from([DEFAULT_PREFIX48, 0, 2**48 - 1]))
def test_simulate_writes_what_the_whole_run_oracle_derives(scratch, run, prefix48):
    # Differential testing: every byte of the five simulate files, in both
    # formats, against ref_simulate's rows rendered through csv.writer and
    # json.dumps. The command's node reader refuses +inf, so a run holding
    # one is written as the command writes its tables.
    cfg, nodes = run
    try:
        expected = ref_simulate(cfg, nodes, prefix48)
    except ClusterBenchError as err:
        with pytest.raises(type(err)):
            run_simulation(cfg, nodes, prefix48)
        return
    out = scratch / "out"
    config, nodes_csv = scratch / "config.json", scratch / "nodes.csv"
    config.write_text(json.dumps(cfg.to_dict()))
    for fmt, render in (("csv", ref_csv_text), ("json", ref_json_text)):
        if nodes is not None and not all(math.isfinite(n.energy) for n in nodes):
            out.mkdir(exist_ok=True)
            snapshots = run_simulation(cfg, nodes, prefix48)
            for stem, (table, rows) in simulation_tables(snapshots).items():
                write_table(out / f"{stem}.{fmt}", table, rows, fmt)
        else:
            argv = ["simulate", "--config", str(config), "--out", str(out), "--format", fmt,
                    "--prefix", str(IPv6Address(prefix48 << 80))]
            if nodes is not None:
                write_table(nodes_csv, NODES_TABLE, nodes_rows(nodes), "csv")
                argv += ["--nodes", str(nodes_csv)]
            assert cli.main(argv) == 0
        for stem, table in SIMULATE_TABLES.items():
            got = (out / f"{stem}.{fmt}").read_bytes().decode("utf-8")
            assert got == render(table.columns, expected[stem]), (stem, fmt)
