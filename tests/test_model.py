import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbench import (
    Cluster,
    ClusterSet,
    ConfigError,
    InvariantViolation,
    Node,
    Position,
    ScenarioConfig,
    config_from_dict,
    generate_scenario,
    load_config,
)
from clusterbench.model import MAX_NODES, MAX_TICKS


def test_defaults_match_benchmark():
    cfg = ScenarioConfig()
    assert cfg.node_count == 25
    assert cfg.area == (100.0, 100.0)
    assert cfg.tx_range == 20.0
    assert cfg.energy_threshold == 500.0
    assert cfg.execution_time == 5.0
    assert cfg.tick == 1.0
    assert cfg.seed == 0
    assert cfg.initial_energy == (400.0, 1000.0)
    assert cfg.drain_member == 10.0
    assert cfg.drain_head == 50.0
    assert cfg.dunn_recluster_threshold == 0.5
    assert cfg.validation_interval == 1
    assert cfg.comparator == "below"


def test_single_node_scenario():
    nodes = generate_scenario(ScenarioConfig(node_count=1, seed=42))
    assert len(nodes) == 1
    assert nodes[0].node_id == 0


def test_generation_is_deterministic():
    cfg = ScenarioConfig(seed=7)
    assert generate_scenario(cfg) == generate_scenario(cfg)


def test_different_seeds_differ():
    a = generate_scenario(ScenarioConfig(seed=0))
    b = generate_scenario(ScenarioConfig(seed=1))
    assert a != b


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
def test_generated_nodes_respect_bounds(seed, n):
    cfg = ScenarioConfig(node_count=n, seed=seed)
    nodes = generate_scenario(cfg)
    assert [node.node_id for node in nodes] == list(range(n))
    for node in nodes:
        assert 0.0 <= node.pos.x <= cfg.area[0]
        assert 0.0 <= node.pos.y <= cfg.area[1]
        assert cfg.initial_energy[0] <= node.energy <= cfg.initial_energy[1]


@pytest.mark.parametrize(
    "field,value",
    [
        ("node_count", 0),
        ("node_count", True),
        ("tx_range", 0),
        ("tx_range", -3),
        ("tick", 0),
        ("seed", -1),
        ("seed", 2**64),
        ("initial_energy", (900.0, 400.0)),
        ("drain_member", -1.0),
        ("drain_head", 5.0),  # below the default drain_member of 10
        ("dunn_recluster_threshold", -0.1),
        ("validation_interval", 0),
        ("comparator", "sideways"),
        ("execution_time", -1.0),
        ("energy_threshold", -2.0),
        ("area", (0.0, 100.0)),
        ("tx_range", float("nan")),
        ("tx_range", float("inf")),
        ("tx_range", 10**400),
        ("execution_time", float("inf")),
        ("drain_head", float("nan")),
        ("area", (float("inf"), 100.0)),
        ("initial_energy", (400.0, float("inf"))),
        ("node_count", MAX_NODES + 1),
        ("node_count", 10**30),
    ],
)
def test_config_rejects_bad_field(field, value):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**{field: value})
    assert field in str(err.value)


def test_config_rejects_tick_count_overflow():
    # each field is finite, but execution_time / tick overflows to inf
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(execution_time=1e308, tick=1e-300)
    assert "execution_time / tick" in str(err.value)


def test_config_limits_tick_count():
    # The bound applies to the tick count, which floors a fractional horizon
    # and absorbs float noise: these runs would have exactly MAX_TICKS ticks.
    for execution_time in (float(MAX_TICKS), MAX_TICKS + 0.5, MAX_TICKS + 1e-7):
        assert ScenarioConfig(execution_time=execution_time).steps == MAX_TICKS
    for execution_time in (MAX_TICKS + 1.0, 1e300):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(execution_time=execution_time)
        assert "execution_time / tick" in str(err.value)


def test_config_is_checked_by_replace():
    with pytest.raises(ConfigError) as err:
        replace(ScenarioConfig(), tick=0)
    assert "tick" in str(err.value)


def test_config_limits_node_count():
    # validates only: a run at the limit would place a million nodes
    assert ScenarioConfig(node_count=MAX_NODES)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"node_count": MAX_NODES + 1})
    assert f"1..{MAX_NODES}" in str(err.value)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"node_count": 5, "zeta": 1, "alpha": 2})
    # unknown keys are listed, sorted
    assert "alpha, zeta" in str(err.value)


def test_config_from_dict_normalizes_comparator():
    cfg = config_from_dict({"comparator": "at-or-above"})
    assert cfg.comparator == "at_or_above"


def test_config_from_dict_accepts_pairs_as_lists():
    cfg = config_from_dict({"area": [50, 60], "initial_energy": [100, 200]})
    assert cfg.area == (50, 60)
    assert cfg.initial_energy == (100, 200)


def test_config_from_dict_rejects_bad_pair():
    with pytest.raises(ConfigError):
        config_from_dict({"area": [50]})


def test_config_from_dict_rejects_json_non_finite():
    for text in ('{"tx_range": NaN}', '{"tick": Infinity}', '{"area": [-Infinity, 5]}'):
        with pytest.raises(ConfigError):
            config_from_dict(json.loads(text))


def test_config_roundtrip():
    cfg = ScenarioConfig(node_count=7, seed=3, comparator="at_or_above")
    assert config_from_dict(cfg.to_dict()) == cfg


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"node_count": 9, "seed": 5}))
    cfg = load_config(str(path))
    assert cfg.node_count == 9
    assert cfg.seed == 5


def test_load_config_accepts_manifest(tmp_path):
    cfg = ScenarioConfig(node_count=9, seed=5, comparator="at_or_above")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"command": "simulate", "seed": 5, "config": cfg.to_dict()}))
    assert load_config(str(path)) == cfg


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/cfg.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_node_invariants():
    with pytest.raises(InvariantViolation):
        Node(-1, Position(0, 0), 10.0)
    with pytest.raises(InvariantViolation):
        Node(0, Position(0, 0), -1.0)


def test_node_rejects_nan_energy():
    # nan < 0 is false, so a plain negativity test lets NaN through.
    with pytest.raises(InvariantViolation):
        Node(0, Position(0.0, 0.0), float("nan"))


@pytest.mark.parametrize("energy", [True, False])
def test_node_rejects_bool_energy(energy):
    # True >= 0 holds, but a table would then hold "true", which no reader
    # takes back as an energy. Ints are numbers and stay accepted.
    with pytest.raises(InvariantViolation, match="energy must be a number"):
        Node(0, Position(0.0, 0.0), energy)
    assert Node(0, Position(0.0, 0.0), 1).energy == 1


def test_config_dict_has_every_field():
    data = ScenarioConfig().to_dict()
    assert list(data) == [f.name for f in fields(ScenarioConfig)]
    assert data["area"] == [100.0, 100.0] and data["initial_energy"] == [400.0, 1000.0]


def test_cluster_sorts_members_and_checks_head():
    c = Cluster(0, 2, (3, 1, 2))
    assert c.members == (1, 2, 3)
    with pytest.raises(InvariantViolation):
        Cluster(0, 9, (1, 2))
    with pytest.raises(InvariantViolation):
        Cluster(0, 1, ())
    with pytest.raises(InvariantViolation):
        Cluster(0, 1, (1, 1, 2))
    with pytest.raises(InvariantViolation):
        Cluster(0, 1, (1, 2), threshold_exempt=frozenset({1}))  # head can't be exempt


def test_cluster_keeps_a_sorted_member_tuple_as_is():
    members = (1, 2, 3)
    assert Cluster(0, 2, members).members is members
    assert Cluster(0, 2, [1, 2, 3]).members == members
    assert Cluster(0, 2, (3, 1, 2)).members == members


def test_rotation_requires_each_predecessor_members_object():
    before = ClusterSet((Cluster(0, 0, (0, 1)), Cluster(1, 2, (2, 3))), 4)
    a, b = before.clusters
    moved = Cluster(0, 1, a.members)
    rotated = ClusterSet._rotation(before, [moved, b])
    assert rotated == ClusterSet((moved, b), 4)
    assert rotated.clusters == (moved, b) and rotated.node_universe == 4
    # Equal members in another tuple object, a dropped cluster and a moved
    # node are all refused.
    with pytest.raises(InvariantViolation):
        ClusterSet._rotation(before, [Cluster(0, 1, tuple(list(a.members))), b])
    with pytest.raises(InvariantViolation):
        ClusterSet._rotation(before, [moved])
    with pytest.raises(InvariantViolation):
        ClusterSet._rotation(before, [moved, Cluster(1, 2, (1, 2, 3))])


def test_cluster_set_must_partition():
    a = Cluster(0, 0, (0, 1))
    b = Cluster(1, 2, (2,))
    cs = ClusterSet((a, b), 3)
    assert cs.by_node()[1] is a
    overlap = Cluster(1, 1, (1, 2))
    with pytest.raises(InvariantViolation):
        ClusterSet((a, overlap), 3)
    with pytest.raises(InvariantViolation):
        ClusterSet((a,), 3)  # node 2 missing
    # Only a rotation skips the check: a hand-built set is checked in full,
    # even when two clusters share one members object.
    with pytest.raises(InvariantViolation, match="overlap"):
        ClusterSet((a, b, Cluster(2, 1, a.members)), 3)
    with pytest.raises(InvariantViolation, match="cover"):
        ClusterSet((a, b), 4)
