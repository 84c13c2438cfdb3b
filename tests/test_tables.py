import json
import math

import pytest

from clusterbench import (
    Cluster,
    ClusterSet,
    InputError,
    Node,
    Position,
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
    got, positions, energies = read_clusters_csv(path)
    assert got == clusters
    assert positions == {n.node_id: n.pos for n in nodes}
    assert energies == {n.node_id: n.energy for n in nodes}


def test_every_row_has_one_cell_per_column():
    # JSON zips cells with columns, so a short row would lose cells silently.
    side = 100.0 * math.sqrt(200 / 25)  # 200 nodes at 25 nodes/ha
    config = config_from_dict(
        {"node_count": 200, "area": [side, side], "dunn_recluster_threshold": 2.0}
    )
    nodes = generate_scenario(config)
    snapshots = run_simulation(config, nodes)
    clusters = snapshots[0].clusters
    tables = [
        (NODES_COLUMNS, nodes_rows(nodes)),
        (CLUSTERS_COLUMNS, clusters_rows(clusters, nodes)),
        (VALIDATION_COLUMNS, [report_row(0, snapshots[0].report)]),
    ]
    tables += [(ENERGY_DAT_COLUMNS, rows) for _, rows in energy_dat_rows(clusters, nodes)]
    tables += simulation_tables(snapshots).values()
    for columns, rows in tables:
        assert rows
        for row in rows:
            assert isinstance(row, tuple) and len(row) == len(columns), (columns, row)


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
    got, _pos, _energy = read_clusters_csv(path)
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
