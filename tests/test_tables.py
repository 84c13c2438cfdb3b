import csv
import importlib
import io
import json
import math
import pkgutil
import tracemalloc
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
    InputError,
    MessageKind,
    Node,
    Position,
    ReclusterEvent,
    SimSnapshot,
    assign_addresses,
    config_from_dict,
    generate_scenario,
    run_simulation,
)
from clusterbench.tables import (
    CLUSTERS_COLUMNS,
    ENERGY_DAT_COLUMNS,
    NODES_COLUMNS,
    VALIDATION_COLUMNS,
    clusters_rows,
    energy_dat_rows,
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
from reference import (
    DEFAULT_PREFIX48,
    MESSAGES_COLUMNS,
    TIMELINE_COLUMNS,
    ref_csv_cell,
    ref_json_cell,
    ref_message_rows,
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
    write_table(path, NODES_COLUMNS, nodes_rows(nodes), "csv")
    assert read_nodes_csv(path) == nodes


def test_clusters_roundtrip(tmp_path):
    path = tmp_path / "clusters.csv"
    clusters = sample_clusters()
    nodes = sample_nodes()
    write_table(path, CLUSTERS_COLUMNS, clusters_rows(clusters, nodes), "csv")
    got, positions = read_clusters_csv(path)
    assert got == clusters
    assert positions == {n.node_id: n.pos for n in nodes}


def reclustering_run():
    """200 nodes at 25 nodes/ha that re-cluster on every tick: nodes, snapshots."""
    side = 100.0 * math.sqrt(200 / 25)
    config = config_from_dict(
        {"node_count": 200, "area": [side, side], "dunn_recluster_threshold": 2.0}
    )
    nodes = generate_scenario(config)
    return nodes, run_simulation(config, nodes)


def test_every_row_has_one_cell_per_column():
    # JSON zips cells with columns, so a short row would lose cells silently.
    # The timeline and messages render their own records (see the reference
    # tests below).
    nodes, snapshots = reclustering_run()
    clusters = snapshots[0].clusters
    tables = [
        (NODES_COLUMNS, nodes_rows(nodes)),
        (CLUSTERS_COLUMNS, clusters_rows(clusters, nodes)),
        (VALIDATION_COLUMNS, [report_row(0, snapshots[0].report)]),
    ]
    tables += [(ENERGY_DAT_COLUMNS, rows) for _, rows in energy_dat_rows(clusters, nodes)]
    tables += [
        t for stem, t in simulation_tables(snapshots).items() if stem not in ("timeline", "messages")
    ]
    assert len(tables) == 3 + len(clusters.clusters) + 3
    for columns, rows in tables:
        assert rows
        for row in rows:
            assert isinstance(row, tuple) and len(row) == len(columns), (columns, row)


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
        for stem, (columns, rows) in simulation_tables(snapshots).items():
            write_table(tmp_path / f"{stem}.{fmt}", columns, rows, fmt)
        assert sorted(made) == sorted(snapshots[0].addresses.values())
    with open(tmp_path / "messages.csv", encoding="utf-8") as fh:
        assert sum(row["kind"] == "Assign" for row in csv.DictReader(fh)) > 200


ENUM_MEMBERS = [*MessageKind, *Compactness, *Classification]
TABLE_CELLS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(),
    st.sampled_from([0, 1, -1]),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, -0.0, 5e-324, 1e-7, 1e22, 1.7976931348623157e308]),
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\r", " ", ""]),
    st.sampled_from(ENUM_MEMBERS),
)


@st.composite
def tables(draw, cells):
    columns = draw(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=6, unique=True))
    row = st.tuples(*[cells] * len(columns))
    return columns, draw(st.lists(row, max_size=5))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@settings(max_examples=200, deadline=None)
@given(table=tables(st.one_of(TABLE_CELLS, st.integers(0, 2**128 - 1).map(IPv6Address))))
def test_csv_matches_reference_rendering(scratch, table):
    columns, rows = table
    path = scratch / "t.csv"
    write_table(path, columns, rows, "csv")
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([ref_csv_cell(v) for v in row])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(table=tables(TABLE_CELLS))
def test_json_matches_reference_rendering(scratch, table):
    columns, rows = table
    path = scratch / "t.json"
    write_table(path, columns, rows, "json")
    payload = [dict(zip(columns, map(ref_json_cell, row))) for row in rows]
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"


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


def assert_written_as(path, columns, rows, expected_rows):
    """``rows`` written by write_table as CSV and as JSON equal the reference
    tuples rendered by csv.writer and json.dumps with the reference cells."""
    assert len(rows) == len(expected_rows)

    write_table(path.with_suffix(".csv"), columns, rows, "csv")
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    for row in expected_rows:
        writer.writerow([ref_csv_cell(v) for v in row])
    assert path.with_suffix(".csv").read_bytes() == expected.getvalue().encode("utf-8")

    write_table(path.with_suffix(".json"), columns, rows, "json")
    payload = [dict(zip(columns, map(ref_json_cell, row))) for row in expected_rows]
    assert path.with_suffix(".json").read_text(encoding="utf-8") == (
        json.dumps(payload, indent=2) + "\n"
    )


@settings(max_examples=150, deadline=None)
@given(snapshots=simulations())
def test_timeline_matches_reference_rendering(scratch, snapshots):
    columns, rows = simulation_tables(snapshots)["timeline"]
    assert columns == TIMELINE_COLUMNS
    assert_written_as(scratch / "timeline", columns, rows, ref_timeline_rows(snapshots))


@settings(max_examples=150, deadline=None)
@given(snapshots=simulations())
def test_messages_match_reference_rendering(scratch, snapshots):
    columns, rows = simulation_tables(snapshots)["messages"]
    assert columns == MESSAGES_COLUMNS
    assert_written_as(scratch / "messages", columns, rows, ref_message_rows(snapshots))


@settings(max_examples=150, deadline=None)
@given(partition=partitions(max_nodes=16), data=st.data())
def test_messages_follow_each_address_event(scratch, partition, data):
    # Up to five address events over one node set. Between two events each
    # head may move, a member may move to another cluster (which shifts the
    # seqs of the clusters in between) and the prefix may change, so a block
    # rendered for one event is reused only where it is the same block.
    clusters, _ = partition
    n = clusters.node_universe
    gaps = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    snapshots, prefixes = [], []
    for tick in accumulate(gaps):
        clusters = data.draw(
            st.one_of(
                st.just(clusters),
                head_rotations(clusters),
                member_moves(clusters),
            )
        )
        prefix48 = data.draw(st.sampled_from([DEFAULT_PREFIX48, 0, 2**48 - 1]))
        addresses, trace = assign_addresses(clusters, prefix48)
        event = AddressEvent(tick, addresses, trace)
        energies = dict.fromkeys(range(n), 0.0)
        snapshots.append(SimSnapshot(tick, clusters, energies, None, (event,), addresses))
        prefixes.append(prefix48)
    columns, rows = simulation_tables(snapshots)["messages"]
    assert_written_as(scratch / "events", columns, rows, ref_message_rows(snapshots, prefixes))


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
            columns, rows = simulation_tables(snapshots)["timeline"]
            tracemalloc.reset_peak()
            write_table(tmp_path / f"timeline.{fmt}", columns, rows, fmt)
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
    # what the same write of no rows takes (for CSV, csv.writer's 128 KiB
    # record buffer): the per-address texts, the blocks rendered so far
    # (about two events' worth here) and one event's text in flight.
    _, snapshots = reclustering_run()
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            write_table(tmp_path / f"empty.{fmt}", MESSAGES_COLUMNS, [], fmt)
            fixed = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            columns, rows = simulation_tables(snapshots)["messages"]
            tracemalloc.reset_peak()
            write_table(tmp_path / f"messages.{fmt}", columns, rows, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 6 * 339
        chunk = max(map(len, rows.chunks(fmt)))
        assert peak - fixed < 16 * chunk, (fmt, peak, fixed, chunk)


def test_every_enum_is_a_str_enum():
    # write_table hands enum cells to csv.writer and to the JSON encoder as they
    # are; both render a str subclass as its text, which is the enum's value.
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
    assert all(issubclass(e, str) for e in enums)


def test_csv_cells_are_stable(tmp_path):
    path = tmp_path / "t.csv"
    write_table(
        path,
        ["a", "b", "c", "d"],
        [(True, None, math.inf, 0.1)],
        "csv",
    )
    assert path.read_text() == "a,b,c,d\ntrue,,inf,0.1\n"


def test_json_table(tmp_path):
    path = tmp_path / "t.json"
    write_table(path, ["a", "b"], [(1, math.inf)], "json")
    data = json.loads(path.read_text())
    assert data == [{"a": 1, "b": "inf"}]


def test_write_table_rejects_unknown_format(tmp_path):
    with pytest.raises(InputError):
        write_table(tmp_path / "t.xml", ["a"], [], "xml")


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


def test_manifest_honors_source_date_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert manifest_timestamp() == "2023-11-14T22:13:20Z"
    path = tmp_path / "manifest.json"
    write_manifest(path, {"seed": 1})
    data = json.loads(path.read_text())
    assert data == {"seed": 1, "timestamp": "2023-11-14T22:13:20Z"}


def test_sha256_is_stable(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
