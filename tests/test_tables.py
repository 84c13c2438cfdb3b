import csv
import hashlib
import importlib
import json
import math
import pkgutil
import sys
import tracemalloc
from dataclasses import astuple
from enum import Enum
from ipaddress import IPv6Address
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterbench
from clusterbench import (
    AddressEvent,
    Classification,
    Cluster,
    ClusterSet,
    Compactness,
    DEFAULT_PREFIX,
    HeadChange,
    InputError,
    MessageKind,
    Node,
    Position,
    ReclusterEvent,
    SimSnapshot,
    assign_addresses,
    classify,
    config_from_dict,
    generate_scenario,
    run_simulation,
)
from clusterbench import tables
from clusterbench.tables import (
    CLUSTERS_TABLE,
    ENERGY_DAT_COLUMNS,
    EVENTS_TABLE,
    INT,
    NODES_TABLE,
    SWEEP_TABLE,
    VALIDATION_TABLE,
    EventRows,
    Kind,
    Table,
    clusters_rows,
    energy_dats,
    manifest_timestamp,
    nodes_rows,
    read_clusters_csv,
    read_nodes_csv,
    report_row,
    sha256_file,
    simulation_tables,
    write_manifest,
    write_table,
)
from clusterbench.validation import STRICT_PCT_FOOTNOTE
from reference import (
    DEFAULT_PREFIX48,
    MESSAGES_COLUMNS,
    TIMELINE_COLUMNS,
    event_row,
    ref_csv_text,
    ref_json_text,
    ref_message_rows,
    ref_simulate,
    ref_timeline_rows,
)
from strategies import head_rotations, member_moves, partitions


def sample_nodes():
    return [
        Node(0, Position(1.5, 2.5), 400.0),
        Node(1, Position(3.0, 4.0), 500.5),
        Node(2, Position(5.0, 6.0), 600.0),
    ]


def sample_clusters():
    return ClusterSet(
        (Cluster(0, 1, (0, 1), frozenset({0})), Cluster(1, 2, (2,))), 3
    )


def test_nodes_roundtrip(tmp_path):
    path = tmp_path / "nodes.csv"
    nodes = sample_nodes()
    write_table(path, NODES_TABLE, nodes_rows(nodes), "csv")
    assert read_nodes_csv(path) == nodes


def test_clusters_roundtrip(tmp_path):
    path = tmp_path / "clusters.csv"
    clusters = sample_clusters()
    nodes = sample_nodes()
    write_table(path, CLUSTERS_TABLE, clusters_rows(clusters, nodes), "csv")
    got, positions = read_clusters_csv(path)
    assert got == clusters
    assert positions == {n.node_id: n.pos for n in nodes}


def reclustering_config():
    """200 nodes at 25 nodes/ha that re-cluster on every tick."""
    side = 100.0 * math.sqrt(200 / 25)
    return config_from_dict(
        {"node_count": 200, "area": [side, side], "dunn_recluster_threshold": 2.0}
    )


def reclustering_run():
    """``reclustering_config``'s run: nodes, snapshots."""
    config = reclustering_config()
    nodes = generate_scenario(config)
    return nodes, run_simulation(config, nodes)


def test_every_row_has_one_cell_per_column():
    # The timeline, events and messages render their own records (see the
    # reference tests below, and test_sim's whole-run oracle test, which
    # pins every byte of them); the events' reference rows are checked here.
    nodes, snapshots = reclustering_run()
    clusters = snapshots[0].clusters
    rows_by_columns = [
        (NODES_TABLE.columns, nodes_rows(nodes)),
        (CLUSTERS_TABLE.columns, clusters_rows(clusters, nodes)),
        (VALIDATION_TABLE.columns, [report_row(0, snapshots[0].report)]),
    ]
    dats = energy_dats(clusters_rows(clusters, nodes))
    rows_by_columns += [(ENERGY_DAT_COLUMNS, rows) for _, rows in dats]
    rows_by_columns += [
        (table.columns, rows)
        for stem, (table, rows) in simulation_tables(snapshots).items()
        if stem not in ("timeline", "events", "messages")
    ]
    events = ref_simulate(reclustering_config(), nodes)["events"]
    rows_by_columns.append((EVENTS_TABLE.columns, events))
    assert len(rows_by_columns) == 3 + len(clusters.clusters) + 3
    for columns, rows in rows_by_columns:
        assert rows
        for row in rows:
            assert isinstance(row, tuple) and len(row) == len(columns), (columns, row)


def test_report_row_is_the_tick_and_the_report_fields():
    # The indices span every classification; those below 0.1 carry the
    # footnote, and a threshold of 0.6 recommends a re-cluster for some.
    reports = [classify(index, 0.6) for index in (0.0, 0.05, 0.3, 0.7, 1.5, math.inf)]
    assert {r.footnote for r in reports} == {None, STRICT_PCT_FOOTNOTE}
    assert {r.classification for r in reports} == set(Classification)
    assert {r.recommend_recluster for r in reports} == {True, False}
    for report in reports:
        row = report_row(7, report)
        assert row == (7, *astuple(report))
        assert list(map(type, row)) == [int, *map(type, astuple(report))]


def test_each_address_is_rendered_once(tmp_path, monkeypatch):
    # Making an address text costs about 10 µs. The addresses table, the
    # timeline and the re-clusters' Assign payloads share one text for each
    # address, in either format.
    _, snapshots = reclustering_run()
    assert sum(isinstance(e, ReclusterEvent) for s in snapshots for e in s.events) > 1
    made, text = [], IPv6Address.__str__
    monkeypatch.setattr(IPv6Address, "__str__", lambda a: made.append(a) or text(a))
    for fmt in ("csv", "json"):
        made.clear()
        for stem, (table, rows) in simulation_tables(snapshots).items():
            write_table(tmp_path / f"{stem}.{fmt}", table, rows, fmt)
        assert sorted(made) == sorted(snapshots[0].addresses.values())
    with open(tmp_path / "messages.csv", encoding="utf-8") as fh:
        assert sum(row["kind"] == "Assign" for row in csv.DictReader(fh)) > 200


# Every table the package declares, by name.
DECLARED = {name: t for name, t in vars(tables).items() if isinstance(t, Table)}
EDGE_FLOATS = [math.inf, -math.inf, -0.0, 5e-324, 1e-7, 1e22, 1.7976931348623157e308]
# Each cell kind's domain: a number is a float, or an int from a
# library-built node; a text is one of its column's vocabulary.
KIND_CELLS = {
    "int": st.integers(-(2**200), 2**200) | st.sampled_from([0, 1, -1]),
    "number": st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS)
    | st.integers(-(2**70), 2**70),
    "flag": st.booleans(),
    "address": st.integers(0, 2**128 - 1).map(lambda i: str(IPv6Address(i))),
}


def kind_cells(kind):
    cells = st.sampled_from(kind.vocabulary) if kind.base == "text" else KIND_CELLS[kind.base]
    return cells | st.none() if kind.optional else cells


def declared_rows(table):
    """Up to 5 rows from the table's cell kinds, some repeated past a
    write chunk."""
    rows = st.lists(st.tuples(*map(kind_cells, table.kinds)), max_size=5)
    repeats = st.sampled_from([1, 1, 1, tables.CHUNK_ROWS + 1, 3 * tables.CHUNK_ROWS])
    return st.tuples(rows, repeats).map(lambda r: r[0] * r[1])


def assert_same_text(got, expected, name):
    # Names the first differing line: a diff of two whole files is slow to make.
    if got != expected:
        pairs = zip(got.splitlines(), expected.splitlines())
        first = next(((i, g, e) for i, (g, e) in enumerate(pairs) if g != e), "(lengths differ)")
        pytest.fail(f"{name}: line, got, expected: {first}")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def test_every_table_is_drawn():
    assert set(DECLARED) == {
        "NODES_TABLE", "CLUSTERS_TABLE", "TIMELINE_TABLE", "EVENTS_TABLE", "VALIDATION_TABLE",
        "ADDRESSES_TABLE", "MESSAGES_TABLE", "SWEEP_TABLE",
    }


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_csv_matches_reference_rendering(scratch, data):
    # Every declared table, rows drawn from its columns' kinds.
    for name, table in DECLARED.items():
        rows = data.draw(declared_rows(table), label=name)
        path = scratch / f"{name}.csv"
        write_table(path, table, rows, "csv")
        got = path.read_bytes().decode("utf-8")
        assert_same_text(got, ref_csv_text(table.columns, rows), name)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_json_matches_reference_rendering(scratch, data):
    for name, table in DECLARED.items():
        rows = data.draw(declared_rows(table), label=name)
        path = scratch / f"{name}.json"
        write_table(path, table, rows, "json")
        got = path.read_bytes().decode("utf-8")
        assert_same_text(got, ref_json_text(table.columns, rows), name)


# Energies a library-built node may hold: any float >= 0 including inf, and
# ints, which the timeline renders the way write_table does.
NODE_ENERGIES = st.one_of(
    st.floats(0.0, 1000.0),
    st.sampled_from([math.inf, -0.0, 5e-324, 1e22, 0, 700]),
)


@st.composite
def simulations(draw):
    """A run of up to 10 hand-built nodes on distinct points of a 5 m grid,
    over up to 4 ticks: heads change as energies drain, members above or
    below the threshold are exempt, and a high Dunn threshold re-clusters."""
    n = draw(st.integers(1, 10))
    points = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=n,
                           max_size=n, unique=True))
    energies = draw(st.lists(NODE_ENERGIES, min_size=n, max_size=n))
    nodes = [
        Node(i, Position(5.0 * x, 5.0 * y), e) for i, ((x, y), e) in enumerate(zip(points, energies))
    ]
    config = config_from_dict(
        {
            "node_count": n,
            "tx_range": draw(st.sampled_from([6.0, 11.0, 16.0])),
            "energy_threshold": draw(st.floats(0.0, 1000.0)),
            "execution_time": float(draw(st.integers(0, 4))),
            "drain_member": draw(st.sampled_from([0.0, 10.0, 300.0])),
            "drain_head": 300.0,
            "dunn_recluster_threshold": draw(st.sampled_from([0.0, 0.5, 100.0])),
            "validation_interval": draw(st.integers(1, 2)),
            "comparator": draw(st.sampled_from(["below", "at_or_above"])),
        }
    )
    return run_simulation(config, nodes)


def assert_written_as(path, table, rows, expected_rows):
    """``rows`` written by write_table as CSV and as JSON equal the reference
    tuples rendered by csv.writer and json.dumps with the reference cells."""
    assert len(rows) == len(expected_rows)
    for fmt, reference in (("csv", ref_csv_text), ("json", ref_json_text)):
        write_table(path.with_suffix(f".{fmt}"), table, rows, fmt)
        got = path.with_suffix(f".{fmt}").read_bytes().decode("utf-8")
        assert_same_text(got, reference(table.columns, expected_rows), fmt)


@settings(max_examples=150, deadline=None)
@given(snapshots=simulations())
def test_timeline_matches_reference_rendering(scratch, snapshots):
    table, rows = simulation_tables(snapshots)["timeline"]
    assert table.columns == TIMELINE_COLUMNS
    assert_written_as(scratch / "timeline", table, rows, ref_timeline_rows(snapshots))


@settings(max_examples=150, deadline=None)
@given(snapshots=simulations())
def test_events_match_reference_rendering(scratch, snapshots):
    table, rows = simulation_tables(snapshots)["events"]
    expected = [event_row(event) for snap in snapshots for event in snap.events]
    assert_written_as(scratch / "events", table, rows, expected)


@pytest.mark.parametrize("index", [math.inf, -math.inf, 0.1, -0.0])
def test_a_recluster_index_is_written_by_its_column_rule(tmp_path, index):
    # A run re-clusters only at an index below its finite threshold, never at
    # an infinite one, so only a hand-built event shows that the index goes
    # through the number column's rule: JSON's infinities are "inf"/"-inf".
    events = (HeadChange(4, 0, 1, 2), ReclusterEvent(2, index, 3, 3), HeadChange(4, 1, 0, 2))
    rows = EventRows([SimSnapshot(2, None, [], None, events, {})])
    assert_written_as(tmp_path / "events", EVENTS_TABLE, rows, list(map(event_row, events)))


@settings(max_examples=150, deadline=None)
@given(snapshots=simulations())
def test_messages_match_reference_rendering(scratch, snapshots):
    table, rows = simulation_tables(snapshots)["messages"]
    assert table.columns == MESSAGES_COLUMNS
    assert_written_as(scratch / "messages", table, rows, ref_message_rows(snapshots))


@settings(max_examples=150, deadline=None)
@given(partition=partitions(max_nodes=16), data=st.data())
def test_messages_follow_each_address_event(scratch, partition, data):
    # Up to five address events over one node set. Between two events each
    # head may move, a member may move to another cluster (which shifts the
    # seqs of the clusters in between) and the prefix may change. An event
    # may keep the previous event's map, as a run keeps its tick-0 map, so a
    # cluster's records rendered for one event are reused only where its
    # first seq, head and members are the same. Each Assign payload is the
    # member's address in its own event's map.
    clusters, _ = partition
    n = clusters.node_universe
    energies = dict.fromkeys(range(n), 0.0)
    gaps = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    snapshots, expected, addresses = [], [], None
    for tick in accumulate(gaps):
        clusters = data.draw(
            st.one_of(
                st.just(clusters),
                head_rotations(clusters),
                member_moves(clusters),
            )
        )
        prefix48 = data.draw(st.sampled_from([DEFAULT_PREFIX48, 0, 2**48 - 1]))
        fresh, trace = assign_addresses(clusters, prefix48)
        if addresses is None or not data.draw(st.booleans(), label="keeps the map"):
            addresses = fresh
        snapshot = SimSnapshot(
            tick, clusters, energies, None, (AddressEvent(tick, addresses, trace),), addresses
        )
        snapshots.append(snapshot)
        expected += [
            (*row[:5], None if row[5] is None else str(addresses[row[3]]))
            for row in ref_message_rows([snapshot], prefix48)
        ]
    table, rows = simulation_tables(snapshots)["messages"]
    assert_written_as(scratch / "events", table, rows, expected)


def test_timeline_is_written_without_a_row_list(tmp_path):
    # perfbench's sim_steady run: 500 nodes at 25 nodes/ha over 201 ticks,
    # 100 500 timeline records. Held as row tuples until written, they took
    # about 12 MB; rendered tick by tick, the timeline's table and its write
    # need under a tenth of that at any moment, in either format. The other
    # tables are freed before the write, so they do not count.
    side = 100.0 * math.sqrt(500 / 25)
    config = config_from_dict(
        {
            "node_count": 500,
            "area": [side, side],
            "execution_time": 200.0,
            "drain_member": 2.0,
            "drain_head": 10.0,
            "validation_interval": 1000,
        }
    )
    snapshots = run_simulation(config)
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            table, rows = simulation_tables(snapshots)["timeline"]
            tracemalloc.reset_peak()
            write_table(tmp_path / f"timeline.{fmt}", table, rows, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 100_500
        assert peak < 1.2e6, (fmt, peak)


def test_messages_are_written_without_a_row_list(tmp_path):
    # reclustering_run re-addresses at each of its 6 ticks, 339 messages an
    # event. Held as row tuples until written, they took about 220 KB, some
    # 26 times one event's CSV text. Rendered event by event, the messages
    # table and its write take a small multiple of one event's text beyond
    # what the same write of no rows takes: the per-address texts, the
    # clusters' records rendered so far (about two events' worth here) and
    # one event's text in flight. The run's address map is built on its first
    # read, so it is read here, before the trace: the write takes it as it is.
    _, snapshots = reclustering_run()
    dict(snapshots[0].addresses)
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            write_table(tmp_path / f"empty.{fmt}", tables.MESSAGES_TABLE, [], fmt)
            fixed = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            table, rows = simulation_tables(snapshots)["messages"]
            tracemalloc.reset_peak()
            write_table(tmp_path / f"messages.{fmt}", table, rows, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 6 * 339
        chunk = max(map(len, rows.chunks(fmt)))
        assert peak - fixed < 16 * chunk, (fmt, peak, fixed, chunk)


def test_every_enum_member_is_in_its_column_vocabulary():
    # A text cell is written by its column's vocabulary map, so each enum
    # the package defines must be some column's vocabulary, every member.
    enums = set()
    for info in pkgutil.iter_modules(clusterbench.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"clusterbench.{info.name}")
            enums.update(
                obj
                for obj in vars(module).values()
                if isinstance(obj, type) and issubclass(obj, Enum)
                and obj.__module__ == module.__name__
            )
    assert {MessageKind, Compactness, Classification} <= enums
    kinds = [kind for table in DECLARED.values() for kind in table.kinds]
    vocabularies = [set(kind.vocabulary) for kind in kinds if kind.vocabulary]
    for enum in enums:
        assert [v for v in vocabularies if v & set(enum)] == [set(enum)], enum


def test_csv_cells_are_stable(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, SWEEP_TABLE, [(25, 0, None), (50, 1, math.inf), (300, 2, 0.1)], "csv")
    assert path.read_text() == "node_count,seed,dunn_index\n25,0,\n50,1,inf\n300,2,0.1\n"
    row = (3, 0.01, 1, 99, Compactness.VERY_LOW, Classification.COMPACT_LESS_SEPARATED, True,
           STRICT_PCT_FOOTNOTE)
    write_table(path, VALIDATION_TABLE, [row], "csv")
    assert path.read_text().splitlines()[1] == (
        f"3,0.01,1,99,VeryLow,CompactLessSeparated,true,{STRICT_PCT_FOOTNOTE}"
    )
    # A vocabulary text that would split its cell is quoted as csv.writer quotes it.
    texts = ("a,b", 'say "hi"', "two\nlines", " ", "plain")
    table = Table({"n": INT, "text": Kind("text", vocabulary=texts)})
    write_table(path, table, [(i, t) for i, t in enumerate(texts)], "csv")
    assert path.read_bytes().decode("utf-8") == ref_csv_text(table.columns, enumerate(texts))


def test_json_table(tmp_path):
    path = tmp_path / "t.json"
    write_table(path, SWEEP_TABLE, [(1, 2, math.inf), (3, 4, None)], "json")
    data = json.loads(path.read_text())
    assert data == [
        {"node_count": 1, "seed": 2, "dunn_index": "inf"},
        {"node_count": 3, "seed": 4, "dunn_index": None},
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_text_outside_its_vocabulary_is_refused(tmp_path, fmt):
    # Written as it is, an unknown kind would go out unquoted.
    for kind in ("split", 'say "hi"', MessageKind.HELLO):
        row = (0, kind, 1, 2, 3, None, None, None, None, None)
        with pytest.raises(KeyError):
            write_table(tmp_path / f"events.{fmt}", EVENTS_TABLE, [row], fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [[(1, 2)], [(1, 2, 3, 4)], [(1, 2, 3), (1, 2)]])
def test_a_row_of_the_wrong_width_is_refused(tmp_path, fmt, rows):
    with pytest.raises(ValueError):
        write_table(tmp_path / f"sweep.{fmt}", SWEEP_TABLE, rows, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_none_in_a_column_that_is_not_optional_is_refused(tmp_path, fmt):
    # Kept, it would be written as None, which is not even JSON.
    rows = [(i, 1.0, 2.0, 3.0) for i in range(200)] + [(200, None, 2.0, 3.0)]  # in chunk 2
    with pytest.raises(ValueError, match="^column x is not optional, got None$"):
        write_table(tmp_path / f"nodes.{fmt}", NODES_TABLE, rows, fmt)
    row = (0, 1, None, 2.0, 3.0, 4.0, False)  # a flag's None is not a KeyError either
    with pytest.raises(ValueError, match="^column is_head is not optional, got None$"):
        write_table(tmp_path / f"clusters.{fmt}", CLUSTERS_TABLE, [row], fmt)
    with pytest.raises(ValueError, match="^column node_id is not optional, got None$"):
        NODES_TABLE.layouts[fmt].cell(0, None)
    assert SWEEP_TABLE.layouts[fmt].cell(2, None) == {"csv": "", "json": "null"}[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_refused_row_leaves_no_partial_table(tmp_path, fmt):
    # The file is open before the first chunk is rendered: a None x in row 201,
    # the second chunk, is refused after the header and 128 records.
    path = tmp_path / f"nodes.{fmt}"
    rows = [(i, 1.0, 2.0, 3.0) for i in range(200)] + [(200, None, 2.0, 3.0)]
    with pytest.raises(ValueError, match="^column x is not optional, got None$"):
        write_table(path, NODES_TABLE, rows, fmt)
    assert list(tmp_path.iterdir()) == []


def test_write_table_rejects_unknown_format(tmp_path):
    with pytest.raises(InputError):
        write_table(tmp_path / "t.xml", SWEEP_TABLE, [], "xml")


def test_read_nodes_requires_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node_id,x\n0,1\n")
    with pytest.raises(InputError):
        read_nodes_csv(path)


def test_read_nodes_requires_dense_ids(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node_id,x,y,energy\n0,1,1,5\n2,2,2,5\n")
    with pytest.raises(InputError):
        read_nodes_csv(path)


def test_read_nodes_rejects_garbage_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node_id,x,y,energy\n0,one,1,5\n")
    with pytest.raises(InputError):
        read_nodes_csv(path)


@pytest.mark.parametrize("column", ["node_id", "x", "y", "energy"])
@pytest.mark.parametrize("value", ["1_0", "\u0665", "\uff11", "1\u00a0"])
def test_read_nodes_rejects_underscores_and_non_ascii_digits(tmp_path, column, value):
    # int() and float() accept each of these; a number cell is ASCII without "_".
    row = {"node_id": "1", "x": "2", "y": "3", "energy": "5", column: value}
    path = tmp_path / "bad.csv"
    path.write_text(
        "node_id,x,y,energy\n0,1,1,5\n" + ",".join(row.values()) + "\n", encoding="utf-8"
    )
    with pytest.raises(InputError) as err:
        read_nodes_csv(path)
    assert f"row 2: {column} must be" in str(err.value) and repr(value) in str(err.value)


@pytest.mark.parametrize("column", ["x", "y", "energy"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_nodes_rejects_non_finite(tmp_path, column, value):
    row = {"node_id": "1", "x": "2", "y": "3", "energy": "5", column: value}
    path = tmp_path / "bad.csv"
    path.write_text("node_id,x,y,energy\n0,1,1,5\n" + ",".join(row.values()) + "\n")
    with pytest.raises(InputError) as err:
        read_nodes_csv(path)
    assert "row 2" in str(err.value) and column in str(err.value)


@pytest.mark.parametrize("line", ["1,2,3,-5", "-1,2,3,5"], ids=["energy", "node_id"])
def test_read_nodes_rejects_negative_cells(tmp_path, line):
    path = tmp_path / "bad.csv"
    path.write_text("node_id,x,y,energy\n0,1,1,5\n" + line + "\n")
    with pytest.raises(InputError) as err:
        read_nodes_csv(path)
    assert "row 2" in str(err.value)


@pytest.mark.parametrize("column", ["x", "y", "energy"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_clusters_rejects_non_finite(tmp_path, column, value):
    row = {"cluster_id": "0", "node_id": "1", "is_head": "false", "energy": "4", "x": "1", "y": "1"}
    row[column] = value
    path = tmp_path / "bad.csv"
    path.write_text(
        "cluster_id,node_id,is_head,energy,x,y\n0,0,true,5,0,0\n" + ",".join(row.values()) + "\n"
    )
    with pytest.raises(InputError) as err:
        read_clusters_csv(path)
    assert "row 2" in str(err.value) and column in str(err.value)


def test_read_clusters_rejects_negative_energy(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("cluster_id,node_id,is_head,energy,x,y\n0,0,true,-5,0,0\n0,1,false,4,1,1\n")
    with pytest.raises(InputError) as err:
        read_clusters_csv(path)
    assert "row 1" in str(err.value) and "energy" in str(err.value)


def test_read_clusters_requires_single_head(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "cluster_id,node_id,is_head,energy,x,y\n"
        "0,0,true,5,0,0\n"
        "0,1,true,5,1,1\n"
    )
    with pytest.raises(InputError) as err:
        read_clusters_csv(path)
    assert "exactly one head" in str(err.value)


def test_read_clusters_exempt_defaults_false(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "cluster_id,node_id,is_head,energy,x,y\n"
        "0,0,true,5,0,0\n"
        "0,1,false,4,1,1\n"
    )
    got, _pos = read_clusters_csv(path)
    assert got.clusters[0].threshold_exempt == frozenset()


def test_read_clusters_rejects_overlap(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "cluster_id,node_id,is_head,energy,x,y\n"
        "0,0,true,5,0,0\n"
        "1,0,true,5,0,0\n"
    )
    with pytest.raises(InputError):
        read_clusters_csv(path)


def test_read_clusters_names_a_failed_cluster_once(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "cluster_id,node_id,is_head,energy,x,y,exempt\n"
        "0,0,true,5,0,0,true\n"
        "0,1,false,4,1,1,false\n"
    )
    with pytest.raises(InputError) as err:
        read_clusters_csv(path)
    assert str(err.value) == f"{path}: cluster 0: exempt ids must be non-head members"


# Numbers whose text is easy to get wrong: the smallest subnormal, a negative
# zero, the first power of ten past 2**53, the largest float, and ints.
EDGE_NUMBERS = [5e-324, -0.0, 0.0, 1e22, sys.float_info.max, 7]
COORDINATES = (
    st.sampled_from(EDGE_NUMBERS + [-5e-324, -sys.float_info.max, -3])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(2**53), 2**53)
)
ENERGIES = (
    st.sampled_from(EDGE_NUMBERS)
    | st.floats(min_value=0, allow_infinity=False)
    | st.integers(0, 2**53)
)


@st.composite
def stored_scenes(draw):
    """Nodes with edge-value numbers, and a partition of them with exempt
    members whose cluster ids are sparse and out of order."""
    n = draw(st.integers(1, 12))
    nodes = [
        Node(i, Position(draw(COORDINATES), draw(COORDINATES)), draw(ENERGIES)) for i in range(n)
    ]
    groups = {}
    for node_id, cid in enumerate(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))):
        groups.setdefault(cid, []).append(node_id)
    clusters = []
    for cid in draw(st.permutations(sorted(groups))):
        head = draw(st.sampled_from(groups[cid]))
        others = [m for m in groups[cid] if m != head]
        exempt = draw(st.frozensets(st.sampled_from(others))) if others else frozenset()
        clusters.append(Cluster(cid, head, tuple(groups[cid]), exempt))
    return nodes, ClusterSet(tuple(clusters), n)


def bits(*values):
    """Each number as the hex of its float, so that -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(scene=stored_scenes())
def test_tables_read_back_what_was_written(scratch, scene):
    nodes, partition = scene
    write_table(scratch / "nodes.csv", NODES_TABLE, nodes_rows(nodes), "csv")
    write_table(scratch / "clusters.csv", CLUSTERS_TABLE, clusters_rows(partition, nodes), "csv")
    got_nodes = read_nodes_csv(scratch / "nodes.csv")
    assert got_nodes == nodes
    assert [bits(n.pos.x, n.pos.y, n.energy) for n in got_nodes] == [
        bits(n.pos.x, n.pos.y, n.energy) for n in nodes
    ]
    got, positions = read_clusters_csv(scratch / "clusters.csv")
    assert got == ClusterSet(
        tuple(sorted(partition.clusters, key=lambda c: c.cluster_id)), len(nodes)
    )
    assert positions == {n.node_id: n.pos for n in nodes}
    assert {i: bits(p.x, p.y) for i, p in positions.items()} == {
        n.node_id: bits(n.pos.x, n.pos.y) for n in nodes
    }


# Each table's reader and lines: a header and two good rows.
READERS = {
    "nodes": (read_nodes_csv, ["node_id,x,y,energy", "0,1,1,5", "1,2,3,5"]),
    "clusters": (
        read_clusters_csv,
        ["cluster_id,node_id,is_head,energy,x,y,exempt", "0,0,true,5,0,0,false", "0,1,false,4,1,1,false"],
    ),
}


@pytest.mark.parametrize(
    "table, column, text, spelling",
    [
        ("nodes", "node_id", "1.5", "an integer"),
        ("nodes", "x", "one", "a finite number"),
        ("nodes", "energy", "inf", "a finite number"),
        ("clusters", "cluster_id", "zero", "an integer"),
        ("clusters", "node_id", "", "an integer"),
        ("clusters", "x", "nan", "a finite number"),
        ("clusters", "energy", "1e400", "a finite number"),
        ("clusters", "is_head", "yes", "true or false"),
        ("clusters", "exempt", "2", "true or false"),
    ],
)
def test_a_bad_cell_names_its_row_and_column(tmp_path, table, column, text, spelling):
    read, lines = READERS[table]
    cells = lines[2].split(",")
    cells[lines[0].split(",").index(column)] = text
    path = tmp_path / "t.csv"
    path.write_text("\n".join([*lines[:2], ",".join(cells)]) + "\n")
    with pytest.raises(InputError) as err:
        read(path)
    assert str(err.value) == f"{path} row 2: {column} must be {spelling}, got {text!r}"


def test_manifest_honors_source_date_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert manifest_timestamp() == "2023-11-14T22:13:20Z"
    flags = {"format": "csv", "prefix": DEFAULT_PREFIX}
    write_manifest(tmp_path, "simulate", config_from_dict({"seed": 1}), flags)
    text = (tmp_path / "manifest.json").read_text()
    data = json.loads(text)
    assert data["timestamp"] == "2023-11-14T22:13:20Z"
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert "prefix" not in data


# The ends of years 1 to 9999; glibc's %Y does not pad year 1.
@pytest.mark.parametrize(
    "epoch, stamp",
    [("253402300799", "9999-12-31T23:59:59Z"), ("-62135596800", "1-01-01T00:00:00Z")],
)
def test_source_date_epoch_stamps_the_ends_of_its_range(monkeypatch, epoch, stamp):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    assert manifest_timestamp() == stamp


def test_sha256_is_stable(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


try:
    import _sha256 as built_in_sha256
except ImportError:  # renamed in 3.12
    import _sha2 as built_in_sha256


# Empty, one whole 64 KiB block, and a few blocks with a partial last one;
# hashed through each import sha256_file tries, the others blocked. The
# built-in module stands in under either of its names, so each branch runs
# on any interpreter.
@pytest.mark.parametrize("size", [0, 1 << 16, 200_003])
@pytest.mark.parametrize("source", ["_sha256", "_sha2", "hashlib"])
def test_sha256_file_equals_hashlib(tmp_path, monkeypatch, size, source):
    data = bytes(i * 7919 % 251 for i in range(size))
    path = tmp_path / "x"
    path.write_bytes(data)
    modules = {"_sha256": built_in_sha256, "_sha2": built_in_sha256, "hashlib": hashlib}
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module if name == source else None)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()
