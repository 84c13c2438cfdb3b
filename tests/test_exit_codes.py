"""Exit-code properties: bad values sent through ``cli.main`` come back as the
README's exit codes (2 for a config error, 3 for an input-data error) and
never as an exception.

Every accepted config holds 12 nodes over at most 3 ticks. A value too large
to run cheaply appears only where the config rejects it before any work.
"""

import csv
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbench import cli, sim
from clusterbench.cli import MAX_SWEEP_SEEDS
from clusterbench.model import MAX_NODE_TICKS, MAX_NODES, MAX_TICKS

BASE = {"node_count": 12, "execution_time": 2.0}
FLOAT_MAX = 1.7976931348623157e308


@pytest.fixture(autouse=True, scope="module")
def _clean_env():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("CLUSTERBENCH_SEED", raising=False)
        mp.setenv("SOURCE_DATE_EPOCH", "1700000000")
        yield


def run_main(*argv):
    """main's exit code and stderr; an exception from main fails the test."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert type(code) is int
    return code, err.getvalue()


# --- config values -----------------------------------------------------------

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_NUMBER = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=3),
    st.just({}),
)
ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
# A JSON integer that no float can hold. The integer keys other than
# node_count accept it, so they never draw it; node_count rejects it with
# every other count above MAX_NODES.
OVERFLOWING = st.integers(2**1024, 2**1100)
BAD_FLOAT = NON_FINITE | NOT_A_NUMBER | OVERFLOWING
BAD_INT = NON_FINITE | NOT_A_NUMBER | ANY_FLOAT
NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False) | st.integers(max_value=-1)
NON_POSITIVE = NEGATIVE | st.sampled_from([0, 0.0, -0.0])
POSITIVE = st.floats(min_value=5e-324, max_value=FLOAT_MAX)


def bad_pair(bad_item, good_item):
    """Not a pair, a list of the wrong length, or a pair with one bad item."""
    return st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=4),
        POSITIVE,
        st.lists(good_item, max_size=3).filter(lambda v: len(v) != 2),
        st.tuples(bad_item, good_item).map(list),
        st.tuples(good_item, bad_item).map(list),
    )


# Values each numeric key must refuse, given BASE and the other defaults
# (tick 1.0, drain_member 10.0, drain_head 50.0).
REJECTED = {
    "node_count": BAD_INT | st.integers(max_value=0) | st.integers(min_value=MAX_NODES + 1),
    "area": bad_pair(BAD_FLOAT | NON_POSITIVE, st.floats(1.0, 100.0)),
    "tx_range": BAD_FLOAT | NON_POSITIVE,
    "energy_threshold": BAD_FLOAT | NEGATIVE,
    "execution_time": BAD_FLOAT
    | NEGATIVE
    | st.floats(min_value=MAX_TICKS + 1.0, allow_infinity=False),
    "tick": BAD_FLOAT | NON_POSITIVE | st.floats(min_value=5e-324, max_value=1e-5),
    "seed": BAD_INT | st.integers(max_value=-1) | st.integers(min_value=2**64),
    "initial_energy": bad_pair(BAD_FLOAT | NEGATIVE, st.floats(0.0, 1.0))
    | st.tuples(st.floats(2.0, FLOAT_MAX), st.floats(0.0, 1.0)).map(list),
    "drain_member": BAD_FLOAT | NEGATIVE | st.floats(min_value=50.001, max_value=FLOAT_MAX),
    "drain_head": BAD_FLOAT | st.floats(max_value=9.999, allow_infinity=False),
    "dunn_recluster_threshold": BAD_FLOAT | NEGATIVE,
    "validation_interval": BAD_INT | st.integers(max_value=0),
}

# Extreme values each numeric key must accept; every run stays small.
ACCEPTED = {
    "node_count": st.integers(1, 30),
    "area": st.lists(POSITIVE, min_size=2, max_size=2),
    "tx_range": POSITIVE,
    "energy_threshold": st.just(0) | POSITIVE,
    "execution_time": st.sampled_from([0, 0.0, 5e-324, 3.0]),
    "tick": st.floats(min_value=0.7, max_value=FLOAT_MAX),
    "seed": st.integers(0, 2**64 - 1),
    "initial_energy": st.lists(st.just(0) | POSITIVE, min_size=2, max_size=2).map(sorted),
    "drain_member": st.floats(0.0, 50.0),
    "drain_head": st.floats(min_value=10.0, max_value=FLOAT_MAX),
    "dunn_recluster_threshold": st.just(0) | POSITIVE,
    "validation_interval": st.integers(1, 2**200),
}


def simulate_with(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({**BASE, key: value}))
        out = Path(tmp) / "out"
        code, err = run_main("simulate", "--config", cfg, "--out", out)
        return code, err, out.exists()


@pytest.mark.parametrize("key", sorted(REJECTED))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bad_config_value_exits_2_before_any_work(key, data):
    value = data.draw(REJECTED[key], label=key)
    code, err, wrote = simulate_with(key, value)
    assert code == 2, err
    assert err.startswith("config error: ") and key in err
    assert not wrote


@pytest.mark.parametrize("key", sorted(ACCEPTED))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_extreme_config_value_runs(key, data):
    value = data.draw(ACCEPTED[key], label=key)
    code, err, wrote = simulate_with(key, value)
    assert code == 0, err
    assert wrote


# A simulation of more node-ticks than MAX_NODE_TICKS is refused before the
# run. Near MAX_TICKS that takes only 50 to 100 nodes, cheap to place.
@settings(max_examples=10, deadline=None)
@given(steps=st.integers(MAX_TICKS // 2, MAX_TICKS), extra=st.integers(1, 50))
def test_run_size_above_limit_exits_2_before_any_output(steps, extra):
    node_count = MAX_NODE_TICKS // (steps + 1) + extra
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"node_count": node_count, "execution_time": float(steps)}))
        out = Path(tmp) / "out"
        code, err = run_main("simulate", "--config", cfg, "--out", out)
        assert code == 2, err
        assert err.startswith("config error: ") and "node-ticks" in err
        assert not out.exists()


def test_run_size_is_checked_before_placement(tmp_path, monkeypatch):
    # 200 000 nodes take about 0.7 s and 87 MB to place; a run over the bound
    # must exit before placing any of them.
    def refuse(config):
        raise AssertionError("placed a population for a run over the bound")

    monkeypatch.setattr(cli, "generate_scenario", refuse)
    monkeypatch.setattr(sim, "generate_scenario", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"node_count": 200_000, "execution_time": 30.0}))
    out = tmp_path / "out"
    code, err = run_main("simulate", "--config", cfg, "--out", out)
    assert code == 2, err
    assert err.startswith("config error: ") and "node-ticks" in err
    assert not out.exists()


def test_bad_prefix_exits_3_before_placement(tmp_path, monkeypatch):
    def refuse(config):
        raise AssertionError("placed a population for a run with a bad prefix")

    monkeypatch.setattr(cli, "generate_scenario", refuse)
    monkeypatch.setattr(sim, "generate_scenario", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BASE))
    out = tmp_path / "out"
    code, err = run_main("simulate", "--config", cfg, "--out", out, "--prefix", "fd00::/64")
    assert code == 3, err
    assert err == "input error: prefix length must be 48, got /64\n"
    assert not out.exists()


@pytest.mark.parametrize("prefix", ["fd00::1/48", "fd00:0:0:1::/48", ""])
@pytest.mark.parametrize("replayed", [False, True], ids=["flag", "manifest"])
def test_host_bits_or_an_empty_prefix_exit_3_before_placement(
    tmp_path, monkeypatch, prefix, replayed
):
    # fd00::1/48 ran as fd00::/48, and an empty prefix as ::/48.
    def refuse(config):
        raise AssertionError("placed a population for a run with a bad prefix")

    monkeypatch.setattr(cli, "generate_scenario", refuse)
    monkeypatch.setattr(sim, "generate_scenario", refuse)
    cfg = tmp_path / "cfg.json"
    if replayed:
        cfg.write_text(json.dumps({"command": "simulate", "config": BASE, "prefix": prefix}))
        flags = ()
    else:
        cfg.write_text(json.dumps(BASE))
        flags = ("--prefix", prefix)
    out = tmp_path / "out"
    code, err = run_main("simulate", "--config", cfg, "--out", out, *flags)
    assert code == 3, err
    assert err.startswith(f"input error: bad prefix {prefix!r}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value,code",
    [
        ("format", "xml", 2),
        ("format", None, 2),
        ("format", ["csv"], 2),
        ("prefix", "fd00::/64", 3),
        ("prefix", True, 3),
        ("prefix", {}, 3),
        ("input_nodes_sha256", "ab" * 32, 2),
    ],
)
def test_bad_manifest_format_or_prefix_exits_as_its_flag_would(tmp_path, key, value, code):
    manifest = {"command": "simulate", "config": BASE, "format": "csv", key: value}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    got, err = run_main("simulate", "--config", path, "--out", out)
    assert got == code, err
    assert not out.exists()


def test_cluster_replay_of_a_node_table_run_needs_nodes(tmp_path):
    recorded = "ab" * 32
    manifest = {"command": "cluster", "config": BASE, "input_nodes_sha256": recorded}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code, err = run_main("cluster", "--config", path, "--out", out)
    assert code == 2, err
    assert err.startswith("config error: ") and "--nodes" in err and recorded in err
    assert not out.exists()


# --- sweep bounds -------------------------------------------------------------


@pytest.mark.parametrize(
    "seed,seeds",
    [(0, 0), (0, MAX_SWEEP_SEEDS + 1), (2**64 - 2, 3), (2**64 - 1, 2)],
    ids=["no-seeds", "too-many-seeds", "last-seed-overflows", "max-seed-plus-one"],
)
def test_sweep_seed_bounds_exit_2_before_any_clustering(tmp_path, monkeypatch, seed, seeds):
    calls = []
    monkeypatch.setattr(cli, "expac_cluster", lambda *args: calls.append(args))
    out = tmp_path / "out"
    code, err = run_main(
        "sweep", "--seed", seed, "--sizes", "5", "--seeds", seeds, "--out", out
    )
    assert code == 2, err
    assert err.startswith("config error: ") and "--seeds" in err
    assert calls == [] and not out.exists()


def test_sweep_runs_up_to_the_largest_seed(tmp_path):
    code, err = run_main(
        "sweep", "--seed", 2**64 - 2, "--sizes", "5", "--seeds", 2, "--out", tmp_path / "out"
    )
    assert code == 0, err


# --- table cells --------------------------------------------------------------

NON_FINITE_TEXT = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "-Infinity"])
# int() and float() read the last three (an underscore, an Arabic-Indic 5 and a
# fullwidth 1), so the readers refuse them before parsing.
NOT_NUMBER_TEXT = st.sampled_from(
    ["", "abc", "1,5", "0x10", "1 2", "true", "--1", "1e", "1_0", "\u0665", "\uff11"]
)
OVERFLOWING_TEXT = st.sampled_from(["1e400", "-1e400", "1e309"])
NEGATIVE_TEXT = NEGATIVE.map(repr)
NOT_INT_TEXT = st.sampled_from(["1.5", "1e3", "0.0"]) | NON_FINITE_TEXT | NOT_NUMBER_TEXT
BAD_COORDINATE = NON_FINITE_TEXT | NOT_NUMBER_TEXT | OVERFLOWING_TEXT
BAD_ENERGY = BAD_COORDINATE | NEGATIVE_TEXT
# An id that is not one of 0..N-1 breaks the dense range or the partition.
OUT_OF_RANGE_ID = st.integers(max_value=-1).map(str) | st.integers(min_value=4).map(str)
BAD_FLAG = st.sampled_from(["maybe", "2", "yes", "nan", "-1"])

NODE_ROWS = [
    ["0", "0", "0", "500"],
    ["1", "10", "0", "400"],
    ["2", "50", "50", "300"],
    ["3", "55", "50", "200"],
]
NODE_BAD = {
    "node_id": NOT_INT_TEXT | OUT_OF_RANGE_ID,
    "x": BAD_COORDINATE,
    "y": BAD_COORDINATE,
    "energy": BAD_ENERGY,
}
NODE_COLUMNS = list(NODE_BAD)

CLUSTER_ROWS = [
    ["0", "0", "true", "5", "0", "0", "false"],
    ["0", "1", "false", "5", "10", "0", "false"],
    ["1", "2", "true", "5", "50", "50", "false"],
    ["1", "3", "false", "5", "55", "50", "false"],
]
CLUSTER_BAD = {
    "cluster_id": NOT_INT_TEXT | st.integers(max_value=-1).map(str),
    "node_id": NOT_INT_TEXT | OUT_OF_RANGE_ID,
    "is_head": BAD_FLAG,
    "energy": BAD_ENERGY,
    "x": BAD_COORDINATE,
    "y": BAD_COORDINATE,
    "exempt": BAD_FLAG,
}
CLUSTER_COLUMNS = list(CLUSTER_BAD)


def with_cell(columns, rows, row, column, text):
    rows = [list(r) for r in rows]
    rows[row][columns.index(column)] = text
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def run_on_table(command, flag, table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(table)
        out = Path(tmp) / "out"
        return run_main(command, flag, path, "--out", out)


@pytest.mark.parametrize("command", ["cluster", "simulate"])
@pytest.mark.parametrize("column", NODE_COLUMNS)
@settings(max_examples=25, deadline=None)
@given(row=st.integers(0, len(NODE_ROWS) - 1), data=st.data())
def test_bad_node_cell_exits_3(command, column, row, data):
    text = data.draw(NODE_BAD[column], label=column)
    table = with_cell(NODE_COLUMNS, NODE_ROWS, row, column, text)
    code, err = run_on_table(command, "--nodes", table)
    assert code == 3, err
    assert err.startswith("input error: ")


@pytest.mark.parametrize("column", CLUSTER_COLUMNS)
@settings(max_examples=25, deadline=None)
@given(row=st.integers(0, len(CLUSTER_ROWS) - 1), data=st.data())
def test_bad_cluster_cell_exits_3(column, row, data):
    text = data.draw(CLUSTER_BAD[column], label=column)
    table = with_cell(CLUSTER_COLUMNS, CLUSTER_ROWS, row, column, text)
    code, err = run_on_table("validate", "--clusters", table)
    assert code == 3, err
    assert err.startswith("input error: ")


# --- unreadable files ---------------------------------------------------------

# Each table holds a cell over the csv module's 131 072-character field limit,
# a byte that is not UTF-8, a short row or a long row.
UNREADABLE = {
    "huge-cell": ("0,0,0,{}\n".format("5" * 131_073).encode(), "field larger than field limit"),
    "not-utf8": (b"0,0,0,5\xff\n", "can't decode byte 0xff"),
    "short-row": (b"0,0\n", "row 1: expected {} cells, got 2"),
    "long-row": (b"0,0,0,5,0,0,0,9\n", "row 1: expected {} cells, got 8"),
}
NODE_HEADER = ",".join(NODE_COLUMNS).encode() + b"\n"
CLUSTER_HEADER = ",".join(CLUSTER_COLUMNS).encode() + b"\n"


def run_on_bytes(command, flag, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(data)
        out = Path(tmp) / "out"
        code, err = run_main(command, flag, path, "--out", out)
        return code, err, out.exists()


@pytest.mark.parametrize("command", ["cluster", "simulate"])
@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_node_table_exits_3(command, case):
    body, message = UNREADABLE[case]
    code, err, wrote = run_on_bytes(command, "--nodes", NODE_HEADER + body)
    assert code == 3, err
    assert err.startswith("input error: ") and message.format(len(NODE_COLUMNS)) in err
    assert "Traceback" not in err and not wrote


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_cluster_table_exits_3(case):
    body, message = UNREADABLE[case]
    code, err, wrote = run_on_bytes("validate", "--clusters", CLUSTER_HEADER + body)
    assert code == 3, err
    assert err.startswith("input error: ") and message.format(len(CLUSTER_COLUMNS)) in err
    assert "Traceback" not in err and not wrote


# Each table names a column twice; read as it stood, the later column would
# win, and here each one makes a valid table of its own.
DOUBLED = {
    "x": b"node_id,x,y,energy,x\n0,0,0,500,1\n1,10,0,400,11\n",
    "is_head": b"cluster_id,node_id,is_head,energy,x,y,exempt,is_head\n"
    b"0,0,true,5,0,0,false,false\n0,1,false,5,10,0,false,true\n"
    b"1,2,true,5,50,50,false,true\n1,3,false,5,55,50,false,false\n",
}


@pytest.mark.parametrize(
    "command, flag, column", [("cluster", "--nodes", "x"), ("validate", "--clusters", "is_head")]
)
def test_a_column_named_twice_exits_3(command, flag, column):
    code, err, wrote = run_on_bytes(command, flag, DOUBLED[column])
    assert code == 3, err
    assert err.startswith("input error: ") and f"column {column} is named more than once" in err
    assert "Traceback" not in err and not wrote


@pytest.mark.parametrize(
    "data",
    [b'{"seed": "\xff"}', b"[" * 100_000, b'{"seed": ' + b"7" * 5_000 + b"}"],
    ids=["not-utf8", "nested-100000-deep", "int-of-5000-digits"],
)
def test_unreadable_config_exits_2(tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    out = tmp_path / "out"
    code, err = run_main("generate", "--config", cfg, "--out", out)
    assert code == 2, err
    assert err.startswith("config error: ") and "is not valid JSON" in err
    assert "Traceback" not in err and not out.exists()
