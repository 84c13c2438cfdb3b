import argparse
import csv
import dataclasses
import inspect
import json
import math

import pytest

from clusterbench import (
    Cluster,
    ClusterSet,
    ScenarioConfig,
    cli,
    config_from_dict,
    run_simulation,
    sim,
)
from clusterbench.tables import HASHED_FLAGS, RECORDED_FLAGS, write_table


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("CLUSTERBENCH_SEED", raising=False)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def read_bytes_map(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def check_replay(tmp_path, command, flags, tables=()):
    """Run ``command`` with ``flags`` and the input ``tables`` flags into
    ``a``, then replay it into ``b`` from a's manifest alone, the tables given
    again: every byte, the manifest's included, must match. Returns ``a``."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(command, *flags, *tables, "--out", str(a)) == 0
    assert run(command, "--config", str(a / "manifest.json"), *tables, "--out", str(b)) == 0
    assert read_bytes_map(a) == read_bytes_map(b)
    return a


# --- generate ---------------------------------------------------------------


def test_generate_writes_table_and_manifest(tmp_path, capsys):
    out = tmp_path / "g"
    assert run("generate", "--seed", "7", "--out", str(out)) == 0
    lines = (out / "nodes.csv").read_text().splitlines()
    assert lines[0] == "node_id,x,y,energy"
    assert len(lines) == 26
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["rng"] == "python-random-mt19937"
    assert manifest["placement"] == "uniform-iid"
    assert manifest["config"]["node_count"] == 25
    assert "wrote 25 nodes" in capsys.readouterr().out


def test_generate_same_seed_identical_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("generate", "--seed", "3", "--out", str(a))
    run("generate", "--seed", "3", "--out", str(b))
    assert read_bytes_map(a) == read_bytes_map(b)


def test_generate_json_format(tmp_path):
    out = tmp_path / "g"
    assert run("generate", "--seed", "1", "--out", str(out), "--format", "json") == 0
    rows = json.loads((out / "nodes.json").read_text())
    assert len(rows) == 25
    assert set(rows[0]) == {"node_id", "x", "y", "energy"}


def test_generate_single_node(tmp_path):
    out = tmp_path / "g"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"node_count": 1}))
    assert run("generate", "--config", str(cfg), "--out", str(out)) == 0
    assert len((out / "nodes.csv").read_text().splitlines()) == 2


# --- seed precedence --------------------------------------------------------


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}))

    flag = tmp_path / "flag"
    config = tmp_path / "config"
    env = tmp_path / "env"
    direct3 = tmp_path / "d3"
    direct9 = tmp_path / "d9"
    direct5 = tmp_path / "d5"

    run("generate", "--seed", "3", "--out", str(direct3))
    run("generate", "--seed", "9", "--out", str(direct9))
    run("generate", "--seed", "5", "--out", str(direct5))

    # flag beats config
    run("generate", "--config", str(cfg), "--seed", "3", "--out", str(flag))
    assert (flag / "nodes.csv").read_bytes() == (direct3 / "nodes.csv").read_bytes()

    # config beats environment
    monkeypatch.setenv("CLUSTERBENCH_SEED", "5")
    run("generate", "--config", str(cfg), "--out", str(config))
    assert (config / "nodes.csv").read_bytes() == (direct9 / "nodes.csv").read_bytes()

    # environment used when nothing else names a seed
    run("generate", "--out", str(env))
    assert (env / "nodes.csv").read_bytes() == (direct5 / "nodes.csv").read_bytes()


def test_bad_env_seed_is_config_error(tmp_path, monkeypatch, capsys):
    # Read as a table's int cell is: Python's int would take 1_0 and ٥.
    for value in ("lots", "1_0", "\u0665"):
        monkeypatch.setenv("CLUSTERBENCH_SEED", value)
        assert run("generate", "--out", str(tmp_path / "g")) == 2
        assert "CLUSTERBENCH_SEED" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--seed", ["generate", "--seed", "1_0"]),
        ("--seed", ["generate", "--seed", "\u0661"]),
        ("--sizes", ["sweep", "--sizes", "2_5", "--seeds", "1"]),
        ("--sizes", ["sweep", "--sizes", "25,\u0665", "--seeds", "1"]),
        ("--seeds", ["sweep", "--sizes", "25", "--seeds", "1_0"]),
        ("--seeds", ["sweep", "--sizes", "25", "--seeds", "\u0661"]),
        ("--threads", ["generate", "--threads", "1_0"]),
        ("--threads", ["generate", "--threads", "\u0661"]),
    ],
)
def test_bad_integer_flag_is_config_error(tmp_path, capsys, flag, argv):
    # An integer flag is read as a table's int cell is, and its error names it.
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# A stamp is in years 1 to 9999: one second past either end is refused.
@pytest.mark.parametrize(
    "value",
    ["abc", "-99999999999999", "1_700_000_000", "\u0661\u0667", "253402300800", "-62135596801"],
)
def test_bad_source_date_epoch_is_config_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
    out = tmp_path / "s"
    assert run("simulate", "--out", str(out)) == 2
    assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err
    assert not out.exists()  # failed before any table was written


def test_overflowing_tick_count_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"execution_time": 1e308, "tick": 1e-300}))
    out = tmp_path / "s"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


def test_tick_count_above_limit_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"execution_time": 1e300, "tick": 1}))
    out = tmp_path / "s"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert "at most" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "cluster", "simulate"])
def test_node_count_above_limit_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"node_count": 10**30}))
    out = tmp_path / "o"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "node_count" in err
    assert not out.exists()


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"node_cuont": 5}))
    assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "g")) == 2
    assert "node_cuont" in capsys.readouterr().err


def test_non_finite_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tx_range": NaN}')
    assert run("cluster", "--config", str(cfg), "--out", str(tmp_path / "c")) == 2
    assert "tx_range" in capsys.readouterr().err


def test_non_finite_tables_are_input_errors(tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("node_id,x,y,energy\n0,inf,1,5\n1,2,2,5\n")
    assert run("cluster", "--nodes", str(nodes), "--out", str(tmp_path / "c")) == 3
    assert "row 1" in capsys.readouterr().err
    clusters = tmp_path / "clusters.csv"
    write_clusters(clusters, ["0,0,true,5,0,0\n", "1,1,true,5,nan,0\n"])
    assert run("validate", "--clusters", str(clusters)) == 3
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["1,2,2,-5", "-1,2,2,5"], ids=["energy", "node_id"])
def test_negative_node_cells_are_input_errors(tmp_path, capsys, line):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("node_id,x,y,energy\n0,1,1,5\n" + line + "\n")
    assert run("cluster", "--nodes", str(nodes), "--out", str(tmp_path / "c")) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "row 2" in err


def test_overflowing_distances_are_input_errors(tmp_path, capsys):
    # every coordinate is finite, but both the widest cluster and the
    # closest cross-cluster pair are further apart than the largest float
    clusters = tmp_path / "clusters.csv"
    write_clusters(
        clusters,
        [
            "0,0,true,5,1e308,1e308\n",
            "0,1,false,5,-1e308,-1e308\n",
            "1,2,true,5,0,0\n",
            "1,3,false,5,1,0\n",
        ],
    )
    assert run("validate", "--clusters", str(clusters)) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "overflow" in err


def test_negative_cluster_energy_is_input_error(tmp_path, capsys):
    clusters = tmp_path / "clusters.csv"
    write_clusters(clusters, ["0,0,true,-5,0,0\n", "0,1,false,4,1,1\n", "1,2,true,5,50,50\n"])
    assert run("validate", "--clusters", str(clusters)) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "row 1" in err


# --- cluster ----------------------------------------------------------------


def test_cluster_outputs(tmp_path):
    gen = tmp_path / "g"
    out = tmp_path / "c"
    run("generate", "--seed", "7", "--out", str(gen))
    assert run("cluster", "--nodes", str(gen / "nodes.csv"), "--out", str(out)) == 0

    lines = (out / "clusters.csv").read_text().splitlines()
    assert lines[0] == "cluster_id,node_id,is_head,energy,x,y,exempt"
    assert len(lines) == 26

    manifest = json.loads((out / "manifest.json").read_text())
    assert "input_nodes_sha256" in manifest

    dats = sorted(out.glob("cluster_*_energy.dat"))
    assert dats, "per-cluster energy data files expected"
    for dat in dats:
        rows = [line.split() for line in dat.read_text().splitlines()[1:]]
        head_rows = [r for r in rows if r[2] == "1"]
        assert len(head_rows) == 1
        energies = [float(r[1]) for r in rows]
        assert float(head_rows[0][1]) == max(energies)


def test_cluster_without_nodes_generates_from_config(tmp_path):
    out = tmp_path / "c"
    assert run("cluster", "--seed", "7", "--out", str(out)) == 0
    assert (out / "clusters.csv").exists()


def test_cluster_malformed_nodes_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("node_id,x\n0,1\n")
    assert run("cluster", "--nodes", str(bad), "--out", str(tmp_path / "c")) == 3
    assert "missing columns" in capsys.readouterr().err


# --- validate ---------------------------------------------------------------


def write_clusters(path, rows):
    header = "cluster_id,node_id,is_head,energy,x,y\n"
    path.write_text(header + "".join(rows))


def test_validate_prints_table_row(tmp_path, capsys):
    path = tmp_path / "clusters.csv"
    write_clusters(
        path,
        [
            "0,0,true,5,0,0\n",
            "0,1,false,5,10,0\n",
            "1,2,true,5,13,0\n",
            "1,3,false,5,20,0\n",
        ],
    )
    assert run("validate", "--clusters", str(path)) == 0
    out = capsys.readouterr().out.strip()
    assert out == "4, 0.3, 30%, 70%, Low"


def test_validate_footnotes_tiny_indices(tmp_path, capsys):
    path = tmp_path / "clusters.csv"
    write_clusters(
        path,
        [
            "0,0,true,5,0,0\n",
            "0,1,false,5,100,0\n",
            "1,2,true,5,105,0\n",
        ],
    )
    assert run("validate", "--clusters", str(path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "3, 0.05, 5%, 95%, VeryLow"
    assert lines[1].startswith("note: ")


def test_validate_undefined_index(tmp_path, capsys):
    path = tmp_path / "clusters.csv"
    write_clusters(path, ["0,0,true,5,0,0\n", "0,1,false,5,1,0\n"])
    assert run("validate", "--clusters", str(path)) == 0
    assert capsys.readouterr().out.strip() == "UNDEFINED_INDEX"
    assert run("validate", "--clusters", str(path), "--strict") == 4


@pytest.mark.parametrize("at_tick", [0, 2])
def test_address_capacity_error_exits_4_with_its_tick(tmp_path, monkeypatch, capsys, at_tick):
    # A cluster id must fit 16 bits. Reaching 2**16 clusters takes over
    # 65 536 nodes, so a partition renumbered at one tick stands in for them;
    # the addresses are built when the handshake runs, never at write time.
    def renumbered(clusters):
        last = clusters.clusters[-1]
        wide = Cluster(2**16, last.head, last.members, last.threshold_exempt)
        return ClusterSet(clusters.clusters[:-1] + (wide,), clusters.node_universe)

    if at_tick == 0:
        cluster = sim.expac_cluster
        monkeypatch.setattr(sim, "expac_cluster", lambda *args: renumbered(cluster(*args)))
    else:
        rotate = sim.rotate_heads

        def rotate_heads(*args, **kwargs):
            clusters, changes = rotate(*args, **kwargs)
            tick = inspect.signature(rotate).bind(*args, **kwargs).arguments.get("at_tick", 0)
            return (renumbered(clusters) if tick == at_tick else clusters), changes

        monkeypatch.setattr(sim, "rotate_heads", rotate_heads)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"execution_time": 3.0, "dunn_recluster_threshold": 100.0}))
    out = tmp_path / "out"
    assert run("simulate", "--config", str(config), "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error[CAPACITY]: tick {at_tick}: cluster id 65536 ")
    assert not out.exists()


def test_validate_without_out_writes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "clusters.csv"
    write_clusters(path, ["0,0,true,5,0,0\n", "0,1,false,5,10,0\n", "1,2,true,5,13,0\n"])
    monkeypatch.chdir(tmp_path)
    assert run("validate", "--clusters", str(path)) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["clusters.csv"]


def test_strict_is_a_validate_flag(tmp_path):
    assert run("simulate", "--strict", "--out", str(tmp_path / "s")) == 2
    assert not (tmp_path / "s").exists()


def test_validate_writes_report_when_asked(tmp_path):
    path = tmp_path / "clusters.csv"
    write_clusters(
        path,
        [
            "0,0,true,5,0,0\n",
            "0,1,false,5,10,0\n",
            "1,2,true,5,13,0\n",
            "1,3,false,5,20,0\n",
        ],
    )
    out = tmp_path / "v"
    assert run("validate", "--clusters", str(path), "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].startswith("at_tick,dunn_index,separation_pct,overlap_pct")
    assert "0,0.3,30,70,Low,CompactLessSeparated,true," in lines[1]


def assert_csv_matches_json(csv_path, json_path):
    """Same columns and rows; cells agree: None is an empty cell, bools are
    true/false, numbers compare by value."""
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns, csv_rows = reader.fieldnames, list(reader)
    json_rows = json.loads(json_path.read_text())
    assert json_rows and len(csv_rows) == len(json_rows)
    for text_row, row in zip(csv_rows, json_rows):
        assert list(row) == columns
        for column, value in row.items():
            text = text_row[column]
            if value is None:
                assert text == ""
            elif isinstance(value, bool):
                assert text == ("true" if value else "false")
            elif isinstance(value, (int, float)):
                assert float(text) == value
            else:
                assert text == value


def test_validate_report_csv_matches_json(tmp_path):
    path = tmp_path / "clusters.csv"
    write_clusters(
        path, ["0,0,true,5,0,0\n", "0,1,false,5,10,0\n", "1,2,true,5,13,0\n", "1,3,false,5,20,0\n"]
    )
    for fmt in ("csv", "json"):
        out = str(tmp_path / fmt)
        assert run("validate", "--clusters", str(path), "--out", out, "--format", fmt) == 0
    assert_csv_matches_json(tmp_path / "csv" / "report.csv", tmp_path / "json" / "report.json")


# --- simulate ---------------------------------------------------------------


def check_simulate_and_replay(tmp_path, flags):
    fmt = "json" if "json" in flags else "csv"
    a = check_replay(tmp_path, "simulate", ("--seed", "11", *flags))

    if fmt == "csv":
        timeline = (a / "timeline.csv").read_text().splitlines()
        assert timeline[0] == "tick,node_id,cluster_id,is_head,exempt,energy,address"
        assert len(timeline) == 1 + 6 * 25
    else:
        assert len(json.loads((a / "timeline.json").read_text())) == 6 * 25
    addresses = (a / f"addresses.{fmt}").read_text()
    assert ("2001:db8:1:" in addresses) == ("--prefix" in flags)
    assert ("fd00:" in addresses) != ("--prefix" in flags)

    for name in ("events", "validation", "addresses", "messages"):
        assert (a / f"{name}.{fmt}").exists()
    assert (a / "manifest.json").exists()

    # an identical rerun is byte-identical too
    c = tmp_path / "c"
    assert run("simulate", "--seed", "11", "--out", str(c), *flags) == 0
    assert read_bytes_map(a) == read_bytes_map(c)


def test_simulate_outputs_and_replay(tmp_path):
    check_simulate_and_replay(tmp_path, ())


@pytest.mark.parametrize(
    "flags",
    [
        ("--format", "json"),
        ("--prefix", "2001:db8:1::/48"),
        ("--format", "json", "--prefix", "2001:db8:1::"),
    ],
    ids=["json", "prefix", "json-prefix"],
)
def test_replay_keeps_the_manifest_format_and_prefix(tmp_path, flags):
    check_simulate_and_replay(tmp_path, flags)


def test_replay_flags_override_the_manifest(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    recorded = ("--format", "json", "--prefix", "2001:db8:1::/48")
    assert run("simulate", "--seed", "4", "--out", str(a), *recorded) == 0
    assert run("simulate", "--seed", "4", "--out", str(b)) == 0
    defaults = ("--format", "csv", "--prefix", "fd00::/48")
    assert run("simulate", "--config", str(a / "manifest.json"), "--out", str(c), *defaults) == 0
    assert read_bytes_map(b) == read_bytes_map(c)


@pytest.mark.parametrize("command", ["cluster", "simulate"])
def test_replay_with_the_node_table_is_byte_identical(tmp_path, command):
    # The manifest's config keeps seed 0, so a replay that placed a seeded
    # population instead of reading the seed-5 table would differ.
    gen = tmp_path / "g"
    assert run("generate", "--seed", "5", "--out", str(gen)) == 0
    flags = ("--format", "json", "--comparator", "at_or_above")
    check_replay(tmp_path, command, flags, ("--nodes", str(gen / "nodes.csv")))


@pytest.mark.parametrize("command", ["generate", "cluster", "validate"])
def test_generate_cluster_and_validate_replay_byte_for_byte(tmp_path, command):
    # simulate and sweep replays, and those of --nodes runs, are checked beside
    # their own outputs' tests.
    gen = tmp_path / "g"
    assert run("cluster", "--seed", "3", "--out", str(gen)) == 0
    tables = ("--clusters", str(gen / "clusters.csv")) if command == "validate" else ()
    flags = ("--seed", "8", "--format", "json", "--comparator", "at_or_above")
    check_replay(tmp_path, command, flags, tables)


def test_simulate_threads_do_not_change_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run("simulate", "--seed", "2", "--out", str(a))
    run("simulate", "--seed", "2", "--out", str(b), "--threads", "3")
    assert read_bytes_map(a) == read_bytes_map(b)


def test_simulate_json_format(tmp_path):
    out = tmp_path / "s"
    assert run("simulate", "--seed", "2", "--out", str(out), "--format", "json") == 0
    rows = json.loads((out / "timeline.json").read_text())
    assert len(rows) == 6 * 25


SIDE = 100.0 * math.sqrt(200 / 25)  # 200 nodes at 25 nodes/ha
RECLUSTERING = {"node_count": 200, "area": [SIDE, SIDE], "dunn_recluster_threshold": 2.0}


def test_simulate_csv_matches_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RECLUSTERING))
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert run("simulate", "--config", str(cfg), "--out", str(out), "--format", fmt) == 0
    kinds = {row["kind"] for row in json.loads((tmp_path / "json" / "events.json").read_text())}
    assert kinds == {"head_change", "recluster", "address"}
    for table in ("timeline", "events", "validation", "addresses", "messages"):
        csv_path, json_path = tmp_path / "csv" / f"{table}.csv", tmp_path / "json" / f"{table}.json"
        assert_csv_matches_json(csv_path, json_path)


def counted_writes(monkeypatch):
    """The (path, len(rows)) of every write_table call the CLI makes."""
    written = []

    def counting_write_table(path, table, rows, fmt="csv"):
        write_table(path, table, rows, fmt)
        written.append((path, len(rows)))

    monkeypatch.setattr(cli, "write_table", counting_write_table)
    return written


def assert_one_row_per_record(written, fmt):
    # perfbench's tables.rows_written adds up len(rows) over the write_table
    # calls, so every table's len must be the number of records in its file.
    for path, count in written:
        if fmt == "csv":
            with open(path, newline="") as fh:
                records = list(csv.reader(fh))[1:]
        else:
            records = json.loads(path.read_text())
        assert count == len(records) > 0, path.name


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_counts_one_row_per_record(tmp_path, monkeypatch, fmt):
    written = counted_writes(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**RECLUSTERING, "execution_time": 2.0}))
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path), "--format", fmt) == 0
    assert sorted(p.stem for p, _ in written) == [
        "addresses", "events", "messages", "timeline", "validation"
    ]
    assert_one_row_per_record(written, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command,args,stem",
    [
        ("generate", ["--seed", "3"], "nodes"),
        ("cluster", ["--seed", "3"], "clusters"),
        ("validate", ["--clusters", "{clusters}"], "report"),
        ("sweep", ["--sizes", "1,25", "--seeds", "2"], "sweep"),
    ],
)
def test_each_command_counts_one_row_per_record(tmp_path, monkeypatch, fmt, command, args, stem):
    assert run("cluster", "--seed", "3", "--out", str(tmp_path / "in")) == 0
    args = [a.format(clusters=tmp_path / "in" / "clusters.csv") for a in args]
    written = counted_writes(monkeypatch)
    assert run(command, *args, "--out", str(tmp_path / "out"), "--format", fmt) == 0
    assert [p.name for p, _ in written] == [f"{stem}.{fmt}"]
    assert_one_row_per_record(written, fmt)


# Each event type's kind and the columns it fills; every other cell is empty.
EVENT_KINDS = {
    "HeadChange": ("head_change", ("cluster_id", "old_head", "new_head")),
    "ReclusterEvent": ("recluster", ("trigger_index", "old_cluster_count", "new_cluster_count")),
    "AddressEvent": ("address", ("assigned", "messages")),
}


def test_simulate_events_fill_their_kind_columns(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RECLUSTERING))
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "s")) == 0
    with open(tmp_path / "s" / "events.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    events = [e for snap in run_simulation(config_from_dict(RECLUSTERING)) for e in snap.events]
    assert len(rows) == len(events)
    assert {type(e).__name__ for e in events} == set(EVENT_KINDS)
    for row, event in zip(rows, events):
        kind, used = EVENT_KINDS[type(event).__name__]
        assert (row["at_tick"], row["kind"]) == (str(event.at_tick), kind)
        for column in used:
            value = getattr(event, column)
            assert row[column] == str(len(value) if kind == "address" else value), (column, row)
        assert all(row[c] == "" for c in row if c not in ("at_tick", "kind", *used)), row


def test_simulate_comparator_flag_recorded(tmp_path):
    out = tmp_path / "s"
    assert run(
        "simulate", "--seed", "2", "--out", str(out), "--comparator", "at-or-above"
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["comparator"] == "at_or_above"
    assert manifest["config"]["comparator"] == "at_or_above"


# --- sweep ------------------------------------------------------------------


def test_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "sw"
    assert run(
        "sweep", "--sizes", "6,9", "--seeds", "2", "--seed", "0", "--out", str(out)
    ) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "node_count,seed,dunn_index"
    assert len(lines) == 5
    dat = (out / "median_index.dat").read_text().splitlines()
    assert dat[0] == "# node_count median_dunn_index"
    assert len(dat) == 3
    stdout = capsys.readouterr().out
    assert "node_count=6 median_index=" in stdout


def test_sweep_rejects_bad_sizes(tmp_path, capsys):
    assert run("sweep", "--sizes", "5,x", "--out", str(tmp_path / "sw")) == 2
    assert "--sizes" in capsys.readouterr().err


def test_sweep_rejects_sizes_above_limit(tmp_path, capsys):
    out = tmp_path / "sw"
    assert run("sweep", "--sizes", f"5,{10**30}", "--out", str(out)) == 2
    assert "--sizes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_replay_is_byte_identical(tmp_path, fmt):
    # Sizes and a seed count other than the defaults: a replay that fell back
    # to 25,50,300 and 20 seeds would write other tables.
    a = check_replay(tmp_path, "sweep", ("--sizes", "25,60", "--seeds", "3", "--format", fmt))
    manifest = json.loads((a / "manifest.json").read_text())
    assert (manifest["sizes"], manifest["seeds"]) == ([25, 60], 3)


def test_sweep_replay_flags_override_the_manifest(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run("sweep", "--sizes", "25,60", "--seeds", "3", "--out", str(a)) == 0
    assert run("sweep", "--sizes", "9", "--seeds", "2", "--out", str(b)) == 0
    replay = ("--config", str(a / "manifest.json"), "--out", str(c))
    assert run("sweep", *replay, "--sizes", "9", "--seeds", "2") == 0
    assert read_bytes_map(b) == read_bytes_map(c)


@pytest.mark.parametrize(
    "field, value",
    [("sizes", [25, 0]), ("sizes", "25"), ("sizes", [25.0]), ("sizes", []), ("seeds", 0),
     ("seeds", "3"), ("seeds", True)],
)
def test_sweep_replay_of_a_bad_recorded_value_exits_2(tmp_path, capsys, field, value):
    # A recorded value is checked as its flag's is, and only where it is used.
    a = tmp_path / "a"
    assert run("sweep", "--sizes", "6", "--seeds", "1", "--out", str(a)) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    manifest[field] = value
    (a / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "b"
    assert run("sweep", "--config", str(a / "manifest.json"), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"config error: --{field} ")
    assert not out.exists()
    assert run("generate", "--config", str(a / "manifest.json"), "--out", str(tmp_path / "g")) == 0


# --- misc -------------------------------------------------------------------

#: Flags whose value a manifest records inside its config, which a replay reads.
FOLDED_INTO_CONFIG = {"seed", "comparator"}
#: Flags a manifest does not record, each with the reason.
NOT_RECORDED = {
    "config": "it names the replayed file itself",
    "out": "it says where the outputs go, not what they hold",
    "threads": "it is accepted for compatibility and has no effect",
    "strict": "it changes only validate's exit code on an undefined index",
}


def test_every_flag_is_replayed_folded_or_named_unrecorded():
    # A flag outside these would be dropped by a replay, as --format, --nodes
    # and sweep's --sizes and --seeds once were. A replayed flag defaults to
    # None, so that a replay can tell that it was not given.
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    seen = set()
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            name = action.dest
            if name == "help":
                continue
            seen.add(name)
            replayed = name in RECORDED_FLAGS or name in HASHED_FLAGS
            assert replayed or name in FOLDED_INTO_CONFIG or name in NOT_RECORDED, (command, name)
            assert action.default is None or not replayed, (command, name)
    assert seen == {*RECORDED_FLAGS, *HASHED_FLAGS, *FOLDED_INTO_CONFIG, *NOT_RECORDED}
    assert FOLDED_INTO_CONFIG <= {field.name for field in dataclasses.fields(ScenarioConfig)}


def test_version_flag():
    assert run("--version") == 0


def test_missing_required_argument_is_usage_error():
    assert run("validate") == 2
