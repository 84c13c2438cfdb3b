import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbench import (
    InputError,
    Node,
    Position,
    ScenarioConfig,
    expac_cluster,
    generate_scenario,
    manhattan_distance,
    pac_candidates,
)
from reference import ref_expac_cluster, ref_pac_candidates
from strategies import dense_scene, edge_scenes, far_scenes


def make_nodes(points, energy=100.0):
    return [Node(i, Position(x, y), energy) for i, (x, y) in enumerate(points)]


# --- distance ---------------------------------------------------------------


def test_distance_examples():
    assert manhattan_distance(Position(0, 0), Position(0, 0)) == 0
    assert manhattan_distance(Position(1, 2), Position(4, 6)) == 7
    assert manhattan_distance(Position(10, 20), Position(5, 35)) == 20


@given(
    ax=st.integers(-100, 100),
    ay=st.integers(-100, 100),
    bx=st.integers(-100, 100),
    by=st.integers(-100, 100),
)
def test_distance_symmetric_and_definite(ax, ay, bx, by):
    a, b = Position(float(ax), float(ay)), Position(float(bx), float(by))
    assert manhattan_distance(a, b) == manhattan_distance(b, a)
    assert (manhattan_distance(a, b) == 0) == (a == b)


# --- candidate seeding ------------------------------------------------------


def test_candidates_three_nodes():
    nodes = make_nodes([(0, 0), (5, 0), (50, 50)])
    cands = pac_candidates(nodes, 20)
    assert [c.temp_head for c in cands] == [0, 1, 2]
    assert cands[0].covered == (0, 1)
    assert cands[1].covered == (1, 0)
    assert cands[2].covered == (2,)
    assert [c.count for c in cands] == [1, 1, 0]


def test_candidates_single_node():
    cands = pac_candidates(make_nodes([(3, 3)]), 20)
    assert len(cands) == 1
    assert cands[0].covered == (0,)
    assert cands[0].count == 0


def test_candidates_all_coincident():
    nodes = make_nodes([(5, 5)] * 4)
    for cand in pac_candidates(nodes, 1):
        assert set(cand.covered) == {0, 1, 2, 3}
        assert cand.count == 3


def test_candidates_strict_boundary():
    # distance exactly equal to the range is out of range
    nodes = make_nodes([(0, 0), (20, 0), (19, 0)])
    cands = pac_candidates(nodes, 20)
    assert cands[0].covered == (0, 2)


def test_candidates_reject_bad_input():
    with pytest.raises(InputError):
        pac_candidates([], 20)
    dupes = [Node(0, Position(0, 0), 1.0), Node(0, Position(1, 1), 1.0)]
    with pytest.raises(InputError):
        pac_candidates(dupes, 20)
    sparse = [Node(0, Position(0, 0), 1.0), Node(2, Position(1, 1), 1.0)]
    with pytest.raises(InputError):
        pac_candidates(sparse, 20)


# --- greedy partition -------------------------------------------------------


def test_expac_line_with_outlier():
    nodes = make_nodes([(0, 0), (1, 0), (2, 0), (50, 50)])
    cs = expac_cluster(nodes, 20)
    assert len(cs.clusters) == 2
    first, second = cs.clusters
    assert first.cluster_id == 0
    assert set(first.members) == {0, 1, 2}
    assert first.head == 0  # three-way count tie resolved to the lowest id
    assert second.cluster_id == 1
    assert second.members == (3,)
    assert second.head == 3


def test_expac_all_out_of_range():
    nodes = make_nodes([(0, 0), (50, 0), (0, 50), (50, 50)])
    cs = expac_cluster(nodes, 10)
    assert len(cs.clusters) == 4
    assert all(len(c.members) == 1 for c in cs.clusters)
    assert [c.head for c in cs.clusters] == [0, 1, 2, 3]


def test_expac_all_coincident():
    cs = expac_cluster(make_nodes([(1, 1)] * 5), 3)
    assert len(cs.clusters) == 1
    assert set(cs.clusters[0].members) == {0, 1, 2, 3, 4}


def test_expac_count_tie_takes_lower_head():
    # two symmetric pairs far apart; every candidate covers exactly one other
    nodes = make_nodes([(0, 0), (1, 0), (100, 0), (101, 0)])
    cs = expac_cluster(nodes, 5)
    assert [c.head for c in cs.clusters] == [0, 2]
    assert [set(c.members) for c in cs.clusters] == [{0, 1}, {2, 3}]


def test_expac_cluster_ids_follow_selection_order():
    # the densest neighborhood wins first regardless of node numbering
    nodes = make_nodes([(100, 100), (0, 0), (1, 0), (0, 1), (100, 101)])
    cs = expac_cluster(nodes, 5)
    assert cs.clusters[0].cluster_id == 0
    assert set(cs.clusters[0].members) == {1, 2, 3}
    assert cs.clusters[0].head == 1
    assert set(cs.clusters[1].members) == {0, 4}


# --- literal step-by-step oracle -------------------------------------------


def _oracle_partition(nodes, tx_range):
    """Independent greedy recomputation, re-deriving coverage from scratch
    each round instead of maintaining incremental state."""
    ids = sorted(n.node_id for n in nodes)
    pos = {n.node_id: n.pos for n in nodes}

    def md(a, b):
        return abs(pos[a].x - pos[b].x) + abs(pos[a].y - pos[b].y)

    covered = {
        i: {i} | {j for j in ids if j != i and md(i, j) < tx_range} for i in ids
    }
    result = []
    clustered: set[int] = set()
    while len(clustered) < len(ids):
        best, best_gain = None, 1
        for head in ids:
            if head in clustered:
                continue
            gain = len(covered[head] - clustered)
            if gain > best_gain:
                best, best_gain = head, gain
        if best is None:
            for leftover in ids:
                if leftover not in clustered:
                    result.append((leftover, frozenset({leftover})))
                    clustered.add(leftover)
            break
        members = covered[best] - clustered
        result.append((best, frozenset(members)))
        clustered |= members
    return result


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    tx=st.integers(1, 30),
)
def test_expac_matches_literal_oracle(n, seed, tx):
    rnd = random.Random(seed)
    nodes = [
        Node(i, Position(float(rnd.randint(0, 30)), float(rnd.randint(0, 30))), 1.0)
        for i in range(n)
    ]
    cs = expac_cluster(nodes, float(tx))
    got = [(c.head, frozenset(c.members)) for c in cs.clusters]
    assert got == _oracle_partition(nodes, float(tx))


# --- partition properties ---------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), tx=st.integers(2, 40))
def test_expac_partitions_and_respects_range(n, seed, tx):
    cfg = ScenarioConfig(node_count=n, seed=seed, tx_range=float(tx))
    nodes = generate_scenario(cfg)
    cs = expac_cluster(nodes, cfg.tx_range)
    seen: set[int] = set()
    pos = {node.node_id: node.pos for node in nodes}
    for cluster in cs.clusters:
        assert not (seen & set(cluster.members))
        seen.update(cluster.members)
        if len(cluster.members) > 1:
            for member in cluster.members:
                assert manhattan_distance(pos[member], pos[cluster.head]) < cfg.tx_range
    assert seen == set(range(n))


def test_expac_first_cluster_has_global_max_count():
    cfg = ScenarioConfig(node_count=40, seed=123)
    nodes = generate_scenario(cfg)
    cands = pac_candidates(nodes, cfg.tx_range)
    best = max(c.count for c in cands)
    cs = expac_cluster(nodes, cfg.tx_range)
    assert len(cs.clusters[0].members) == best + 1


# --- grid kernels against the brute-force references ------------------------


def _scene_nodes(positions):
    return [Node(i, p, 1.0) for i, p in positions.items()]


def _heads_and_covered(nodes, tx_range):
    return [(c.temp_head, c.covered) for c in pac_candidates(nodes, tx_range)]


@settings(max_examples=500, deadline=None)
@given(scene=edge_scenes())
def test_candidates_match_reference_at_cell_edges(scene):
    tx_range, positions = scene
    nodes = _scene_nodes(positions)
    assert _heads_and_covered(nodes, tx_range) == ref_pac_candidates(nodes, tx_range)


@settings(max_examples=500, deadline=None)
@given(scene=edge_scenes())
def test_expac_matches_reference_at_cell_edges(scene):
    tx_range, positions = scene
    nodes = _scene_nodes(positions)
    assert expac_cluster(nodes, tx_range) == ref_expac_cluster(nodes, tx_range)


def test_expac_matches_reference_on_generated_scenarios():
    for seed in range(5):
        cfg = ScenarioConfig(node_count=400, area=(400.0, 400.0), seed=seed)
        nodes = generate_scenario(cfg)
        assert expac_cluster(nodes, cfg.tx_range) == ref_expac_cluster(nodes, cfg.tx_range)


@pytest.mark.parametrize(
    "seed,duplicate_share,clump_share",
    [(0, 0.0, 0.0), (1, 0.3, 0.0), (2, 0.0, 0.5)],
    ids=["uniform", "duplicates", "clump"],
)
def test_candidates_match_reference_on_dense_cells(seed, duplicate_share, clump_share):
    positions = dense_scene(seed, duplicate_share, clump_share)
    cells = Counter((int(p.x // 20.0), int(p.y // 20.0)) for p in positions.values())
    # 30 nodes share a 20 m square, so some u- and v-windows hold dozens of nodes
    assert max(cells.values()) >= 30
    nodes = _scene_nodes(positions)
    assert _heads_and_covered(nodes, 20.0) == ref_pac_candidates(nodes, 20.0)
    assert expac_cluster(nodes, 20.0) == ref_expac_cluster(nodes, 20.0)


def test_candidates_far_from_origin_match_reference():
    # |x| / tx_range is far beyond the exact range of float //, so the cells widen.
    for x0, tx_range in ((1e300, 1e-10), (2.0**53, 1.0), (-3e16, 0.5)):
        nodes = _scene_nodes(
            {i: Position(x0 + i * tx_range, -x0 + (i % 3) * tx_range) for i in range(12)}
        )
        assert _heads_and_covered(nodes, tx_range) == ref_pac_candidates(nodes, tx_range)
        assert expac_cluster(nodes, tx_range) == ref_expac_cluster(nodes, tx_range)


@settings(max_examples=300, deadline=None)
@given(scene=far_scenes())
def test_candidates_match_reference_far_from_origin(scene):
    # The rounding margin exceeds the float spacing, so the exactly tested
    # band is wide, and for the smallest ranges the surely windows are empty.
    tx_range, positions = scene
    nodes = _scene_nodes(positions)
    assert _heads_and_covered(nodes, tx_range) == ref_pac_candidates(nodes, tx_range)
    assert expac_cluster(nodes, tx_range) == ref_expac_cluster(nodes, tx_range)


@pytest.mark.parametrize("tx_range", [1.25, 20.25])
def test_dense_cells_far_from_origin_match_reference(tx_range):
    # dense_scene's 300 nodes, 1e15 m out and shrunk to a few ranges across:
    # the windows are wide, so the surely masks and the band both run.
    scale = tx_range / 10.0
    positions = {
        i: Position(1e15 + p.x * scale, -1e15 + p.y * scale)
        for i, p in dense_scene(3, duplicate_share=0.1).items()
    }
    nodes = _scene_nodes(positions)
    assert _heads_and_covered(nodes, tx_range) == ref_pac_candidates(nodes, tx_range)
    assert expac_cluster(nodes, tx_range) == ref_expac_cluster(nodes, tx_range)


#: Coordinates whose sums and differences overflow, and the origin.
_HUGE = (sys.float_info.max, -sys.float_info.max, 1e308, -1e308, 5e307, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.sampled_from(_HUGE), st.sampled_from(_HUGE)), min_size=1, max_size=12
    )
)
def test_candidates_match_reference_when_the_margin_overflows(points):
    # 4(M + r) overflows, so the rounding margin is infinite: u, v and the
    # window bounds may be infinite or NaN, and every node is tested.
    nodes = make_nodes(points)
    for tx_range in (1e-10, 1.0, 1e307, 1e308, sys.float_info.max):
        assert _heads_and_covered(nodes, tx_range) == ref_pac_candidates(nodes, tx_range)
        assert expac_cluster(nodes, tx_range) == ref_expac_cluster(nodes, tx_range)


def test_candidates_reject_non_finite_position_and_range():
    for bad in (math.nan, math.inf, -math.inf):
        nodes = _scene_nodes({0: Position(0.0, 0.0), 1: Position(bad, 1.0)})
        with pytest.raises(InputError):
            pac_candidates(nodes, 20.0)
    nodes = _scene_nodes({0: Position(0.0, 0.0), 1: Position(1.0, 1.0)})
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(InputError):
            pac_candidates(nodes, bad)
