import math
import random
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbench import (
    Classification,
    Cluster,
    ClusterSet,
    Compactness,
    ConsistencyError,
    DegenerateGeometryError,
    InputError,
    InvariantViolation,
    Node,
    Position,
    UndefinedIndexError,
    classify,
    cluster_diameter,
    dunn_index,
    expac_cluster,
    validate_clusters,
)
from clusterbench.validation import _FEW
from reference import inter_cluster_distance, ref_cluster_diameter, ref_dunn_index
from strategies import (
    dense_scene,
    edge_partitions,
    edge_scenes,
    far_scenes,
    partitions,
    random_diagonal_scene,
    random_labels,
    random_partition,
    random_ulp_cluster,
)


def grid(points):
    return {i: Position(float(x), float(y)) for i, (x, y) in enumerate(points)}


def two_clusters(split, n):
    a = Cluster(0, min(split), tuple(sorted(split)))
    rest = sorted(set(range(n)) - set(split))
    b = Cluster(1, rest[0], tuple(rest))
    return ClusterSet((a, b), n)


# --- distances --------------------------------------------------------------


def test_inter_cluster_distance_examples():
    pos = grid([(0, 0), (3, 4)])
    cs = two_clusters([0], 2)
    assert inter_cluster_distance(cs.clusters[0], cs.clusters[1], pos) == 7

    pos = grid([(0, 0), (10, 0), (13, 0), (20, 0)])
    cs = two_clusters([0, 1], 4)
    a, b = cs.clusters
    assert inter_cluster_distance(a, b, pos) == 3
    assert inter_cluster_distance(b, a, pos) == 3  # symmetric


def test_inter_cluster_distance_rejects_overlap():
    pos = grid([(0, 0), (1, 1), (2, 2)])
    a = Cluster(0, 0, (0, 1))
    b = Cluster(1, 1, (1, 2))
    with pytest.raises(InvariantViolation):
        inter_cluster_distance(a, b, pos)


def test_cluster_diameter_examples():
    assert cluster_diameter(Cluster(0, 0, (0,)), grid([(9, 9)])) == 0
    pos = grid([(0, 0), (10, 0)])
    assert cluster_diameter(Cluster(0, 0, (0, 1)), pos) == 10
    pos = grid([(0, 0), (4, 0), (1, 1)])
    assert cluster_diameter(Cluster(0, 0, (0, 1, 2)), pos) == 4


@settings(max_examples=500, deadline=None)
@given(data=edge_partitions())
def test_cluster_diameter_matches_reference_at_cell_edges(data):
    clusters, pos = data
    for c in clusters.clusters:
        assert cluster_diameter(c, pos) == ref_cluster_diameter(c, pos)


def _whole_scene(positions):
    return Cluster(0, 0, tuple(positions))


@settings(max_examples=300, deadline=None)
@given(scene=edge_scenes())
def test_cluster_diameter_matches_reference_on_whole_edge_scenes(scene):
    # One cluster of up to 30 members, so the extreme-point filter runs.
    _tx_range, pos = scene
    c = _whole_scene(pos)
    assert cluster_diameter(c, pos) == ref_cluster_diameter(c, pos)


@settings(max_examples=300, deadline=None)
@given(scene=far_scenes())
def test_cluster_diameter_matches_reference_far_from_origin(scene):
    _tx_range, pos = scene
    clusters = random_labels(random.Random(len(pos)), len(pos), 3).clusters
    for c in (_whole_scene(pos), *clusters):
        assert cluster_diameter(c, pos) == ref_cluster_diameter(c, pos)


@pytest.mark.parametrize(
    "seed,duplicate_share,clump_share", [(0, 0.0, 0.0), (1, 0.3, 0.0), (2, 0.0, 0.5)]
)
def test_cluster_diameter_matches_reference_on_dense_scenes(seed, duplicate_share, clump_share):
    pos = dense_scene(seed, duplicate_share, clump_share)
    clusters = random_labels(random.Random(seed), len(pos), 4).clusters
    for c in (_whole_scene(pos), *clusters):
        assert cluster_diameter(c, pos) == ref_cluster_diameter(c, pos)


def test_cluster_diameter_matches_reference_when_rounding_moves_the_widest_pair():
    rnd = random.Random(5)
    for _ in range(3000):
        pos = random_ulp_cluster(rnd)
        c = _whole_scene(pos)
        assert cluster_diameter(c, pos) == ref_cluster_diameter(c, pos)


def test_cluster_diameter_matches_reference_along_the_diagonals():
    # Along one diagonal only the other axis can hold the widest pair, so the
    # filter keeps only that axis's extremes. On the cross the two spreads tie
    # up to rounding, and only the margins in the axis test keep the axis of
    # the float-widest pair.
    rnd = random.Random(7)
    sizes = set()
    for _ in range(3000):
        pos = random_diagonal_scene(rnd)
        sizes.add(len(pos) > _FEW)
        c = _whole_scene(pos)
        assert cluster_diameter(c, pos) == ref_cluster_diameter(c, pos)
        cs = random_labels(rnd, len(pos), 2)
        assert _outcome(dunn_index, cs, pos) == _outcome(ref_dunn_index, cs, pos)
    assert sizes == {False, True}  # both sides of the all-pairs cut-off


def test_line_diameters_time():
    # 3 000 nodes on x + y = 3000 in two clusters of alternating members:
    # every u is equal, so only the v extremes need testing.
    pos = {i: Position(float(i), 3000.0 - i) for i in range(3000)}
    a = Cluster(0, 0, tuple(range(0, 3000, 2)))
    b = Cluster(1, 1, tuple(range(1, 3000, 2)))

    def widths():
        return cluster_diameter(a, pos), cluster_diameter(b, pos)

    assert widths() == (5996.0, 5996.0)
    elapsed = min(timeit.repeat(widths, number=1, repeat=5))  # the least disturbed run
    assert elapsed < 0.05, f"{elapsed * 1000:.0f} ms"


# Far from the origin the float gaps are coarse; in the first, fourth and
# last cases some distances overflow to inf.
FAR_AND_OVERFLOWING = [
    {0: Position(-1e308, 0.0), 1: Position(-1e308, 1.0), 2: Position(1e308, 0.0)},
    {i: Position(1e300 + i * 1e285, 1e300) for i in range(4)},
    {i: Position(2.0**60 + i * 512, -(2.0**60)) for i in range(4)},
    {
        0: Position(1e308, 1e308),
        1: Position(-1e308, -1e308),
        2: Position(0.0, 0.0),
        3: Position(1.0, 0.0),
    },
    {0: Position(1e308, -1e308), 1: Position(-1e308, 1e308), 2: Position(0.0, 0.0)},
]


def test_cluster_diameter_far_from_origin_and_overflowing():
    for pos in FAR_AND_OVERFLOWING:
        for c in two_clusters([0, 1], len(pos)).clusters:
            assert cluster_diameter(c, pos) == ref_cluster_diameter(c, pos)
    assert cluster_diameter(Cluster(0, 0, (0, 1)), FAR_AND_OVERFLOWING[3]) == math.inf


# --- the index --------------------------------------------------------------


def test_index_known_values():
    pos = grid([(0, 0), (10, 0), (13, 0), (20, 0)])
    assert dunn_index(two_clusters([0, 1], 4), pos) == 0.3

    pos = grid([(0, 0), (4, 0), (10, 0), (14, 0)])
    assert dunn_index(two_clusters([0, 1], 4), pos) == 1.5


def test_index_all_singletons_is_infinite():
    pos = grid([(0, 0), (5, 0)])
    cs = two_clusters([0], 2)
    assert math.isinf(dunn_index(cs, pos))
    report = validate_clusters(cs, pos)
    assert report.classification is Classification.DEGENERATE
    assert report.recommend_recluster is False


def test_index_needs_two_clusters():
    pos = grid([(0, 0), (1, 0)])
    cs = ClusterSet((Cluster(0, 0, (0, 1)),), 2)
    with pytest.raises(UndefinedIndexError):
        dunn_index(cs, pos)


def test_index_coincident_singletons_error():
    pos = grid([(4, 4), (4, 4)])
    with pytest.raises(DegenerateGeometryError):
        dunn_index(two_clusters([0], 2), pos)


def _outcome(fn, clusters, positions):
    try:
        return repr(fn(clusters, positions))
    except Exception as err:  # the exception type is part of the contract
        return type(err)


@settings(max_examples=500, deadline=None)
@given(data=edge_partitions())
def test_index_matches_reference_at_cell_edges(data):
    clusters, pos = data
    assert _outcome(dunn_index, clusters, pos) == _outcome(ref_dunn_index, clusters, pos)


def test_index_matches_reference_on_random_partitions():
    rnd = random.Random(3)
    for _ in range(200):
        cs, pos = random_partition(rnd, min_nodes=2, max_nodes=80, max_clusters=40)
        assert _outcome(dunn_index, cs, pos) == _outcome(ref_dunn_index, cs, pos)


def test_index_matches_reference_when_rounding_hides_the_closest_pair():
    # Copies a few ulps apart land in different clusters, where rounding can
    # make the closest pair's computed u or v gap exceed half its float
    # distance; only the sweep's rounding margin keeps that pair in the window.
    rnd = random.Random(5)
    for _ in range(3000):
        pos = random_ulp_cluster(rnd)
        cs = random_labels(rnd, len(pos), 3)
        assert _outcome(dunn_index, cs, pos) == _outcome(ref_dunn_index, cs, pos)


def test_index_in_the_subnormal_range():
    # Halving rounds subnormals: (q, q) gets u = 0 and (3q, 3q) gets u = 4q,
    # so the computed u gap of the closest pair is its whole distance 4q.
    # The pair (-5q, 0)-(0, 0), found first, sets the window to half of 5q,
    # rounded to 2q, plus delta; with 2**-1074 = q in delta instead of 4q,
    # that window drops the closest pair.
    q = 5e-324
    pos = {0: Position(0.0, 0.0), 1: Position(q, q), 2: Position(-5 * q, 0.0), 3: Position(3 * q, 3 * q)}
    cs = ClusterSet((Cluster(0, 0, (0, 1)), Cluster(1, 2, (2, 3))), 4)
    assert dunn_index(cs, pos) == ref_dunn_index(cs, pos) == 4 / 11


def test_index_far_from_origin_and_overflowing():
    # Far from the origin the rounding margin spans many float gaps. In the
    # first case every cross-cluster distance overflows to inf, so the sweep
    # never has a finite bound; in the fourth the diameter overflows too, and
    # both reject the input. In the last x - y overflows, so the sweep's
    # frame must be built without it.
    for pos in FAR_AND_OVERFLOWING:
        cs = two_clusters([0, 1], len(pos))
        assert _outcome(dunn_index, cs, pos) == _outcome(ref_dunn_index, cs, pos)


def test_index_rejects_overflowing_distances():
    # the widest cluster and the closest cross-cluster pair both overflow
    pos = FAR_AND_OVERFLOWING[3]
    cs = two_clusters([0, 1], 4)
    with pytest.raises(InputError, match="overflow"):
        dunn_index(cs, pos)
    assert _outcome(ref_dunn_index, cs, pos) is InputError


def test_index_with_one_overflowing_side():
    # only the cross-cluster distance overflows: the index is inf / 1 = inf
    pos = FAR_AND_OVERFLOWING[0]
    assert dunn_index(two_clusters([0, 1], 3), pos) == math.inf
    # only the diameter overflows: the index is 1 / inf = 0
    pos = {0: Position(1e308, 0.0), 1: Position(-1e308, 0.0), 2: Position(1e308, 1.0)}
    assert dunn_index(two_clusters([0, 1], 3), pos) == 0.0
    assert ref_dunn_index(two_clusters([0, 1], 3), pos) == 0.0


@pytest.mark.parametrize(
    "seed,duplicate_share,clump_share",
    [(0, 0.0, 0.0), (1, 0.3, 0.0), (2, 0.0, 0.5)],
    ids=["uniform", "duplicates", "clump"],
)
def test_index_matches_reference_on_dense_cells(seed, duplicate_share, clump_share):
    pos = dense_scene(seed, duplicate_share, clump_share)
    nodes = [Node(i, p, 1.0) for i, p in pos.items()]
    rnd = random.Random(seed)
    n = len(pos)
    for cs in (expac_cluster(nodes, 20.0), random_labels(rnd, n, 5), random_labels(rnd, n, 60)):
        assert _outcome(dunn_index, cs, pos) == _outcome(ref_dunn_index, cs, pos)
        for c in cs.clusters:
            assert cluster_diameter(c, pos) == ref_cluster_diameter(c, pos)


def test_index_rejects_non_finite_position():
    for bad in (math.nan, math.inf):
        pos = {0: Position(0.0, 0.0), 1: Position(bad, 0.0), 2: Position(1.0, 0.0)}
        with pytest.raises(InputError):
            dunn_index(two_clusters([0, 1], 3), pos)


@pytest.mark.parametrize("size", [_FEW, _FEW + 1], ids=["few", "many"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_diameter_and_index_reject_non_finite_position(size, bad):
    pos = grid([(i, 0) for i in range(size + 1)])
    pos[1] = Position(0.0, bad)
    with pytest.raises(InputError, match="is not finite"):
        cluster_diameter(Cluster(0, 0, tuple(range(size))), pos)
    with pytest.raises(InputError, match="is not finite"):
        dunn_index(two_clusters(range(size), size + 1), pos)


@pytest.mark.parametrize("size", [_FEW, _FEW + 1], ids=["few", "many"])
def test_diameter_and_index_reject_missing_position(size):
    pos = grid([(i, 0) for i in range(size + 1)])
    del pos[1]
    with pytest.raises(ConsistencyError, match="no position for node 1"):
        cluster_diameter(Cluster(0, 0, tuple(range(size))), pos)
    with pytest.raises(ConsistencyError, match="no position for node 1"):
        dunn_index(two_clusters(range(size), size + 1), pos)


# --- classification ---------------------------------------------------------


def test_classify_known_bands():
    report = classify(0.52)
    assert (report.separation_pct, report.overlap_pct) == (52, 48)
    assert report.compactness is Compactness.HIGH
    assert report.classification is Classification.COMPACT_WELL_SEPARATED
    assert report.recommend_recluster is False
    assert report.footnote is None

    report = classify(0.48)
    assert (report.separation_pct, report.overlap_pct) == (48, 52)
    assert report.compactness is Compactness.LOW
    assert report.classification is Classification.COMPACT_LESS_SEPARATED
    assert report.recommend_recluster is True

    report = classify(0.01)
    assert (report.separation_pct, report.overlap_pct) == (1, 99)
    assert report.compactness is Compactness.VERY_LOW
    assert report.footnote is not None


def test_classify_edges():
    at_half = classify(0.5)
    assert at_half.compactness is Compactness.HIGH
    assert at_half.classification is Classification.COMPACT_LESS_SEPARATED
    assert at_half.recommend_recluster is False  # not strictly below threshold

    off_scale = classify(1.5)
    assert off_scale.classification is Classification.OFF_SCALE
    assert (off_scale.separation_pct, off_scale.overlap_pct) == (100, 0)

    degenerate = classify(math.inf)
    assert degenerate.classification is Classification.DEGENERATE

    with pytest.raises(InputError):
        classify(-0.1)
    with pytest.raises(InputError):
        classify(math.nan)


def test_classify_respects_configured_threshold():
    assert classify(0.5, recluster_threshold=0.6).recommend_recluster is True
    assert classify(0.7, recluster_threshold=0.6).recommend_recluster is False


def test_footnote_only_on_very_low():
    assert classify(0.09).footnote is not None
    assert classify(0.1).footnote is None
    assert classify(0.52).footnote is None


@given(a=st.floats(0, 3, allow_nan=False), b=st.floats(0, 3, allow_nan=False))
def test_classify_monotone_separation(a, b):
    lo, hi = sorted((a, b))
    assert classify(lo).separation_pct <= classify(hi).separation_pct


@given(x=st.floats(0, 5, allow_nan=False))
def test_percentages_sum_to_100(x):
    report = classify(x)
    assert report.separation_pct + report.overlap_pct == 100


# --- exact invariances ------------------------------------------------------


@settings(max_examples=80)
@given(data=partitions(), dx=st.integers(-100, 100), dy=st.integers(-100, 100))
def test_translation_invariance(data, dx, dy):
    clusters, pos = data
    moved = {i: Position(p.x + dx, p.y + dy) for i, p in pos.items()}
    assert _index_or_none(clusters, pos) == _index_or_none(clusters, moved)


@settings(max_examples=80)
@given(data=partitions(), k=st.sampled_from([0.5, 2.0, 4.0, 8.0]))
def test_scale_invariance(data, k):
    clusters, pos = data
    scaled = {i: Position(p.x * k, p.y * k) for i, p in pos.items()}
    assert _index_or_none(clusters, pos) == _index_or_none(clusters, scaled)


def _index_or_none(clusters, positions):
    try:
        return dunn_index(clusters, positions)
    except DegenerateGeometryError:
        return "degenerate"


# --- brute-force oracle -----------------------------------------------------


def oracle_index(clusters, positions):
    cs = clusters.clusters
    best_dist = None
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            for m in cs[i].members:
                for n in cs[j].members:
                    d = abs(positions[m].x - positions[n].x) + abs(
                        positions[m].y - positions[n].y
                    )
                    if best_dist is None or d < best_dist:
                        best_dist = d
    worst_dia = 0.0
    for c in cs:
        ms = c.members
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                d = abs(positions[ms[i]].x - positions[ms[j]].x) + abs(
                    positions[ms[i]].y - positions[ms[j]].y
                )
                if d > worst_dia:
                    worst_dia = d
    if worst_dia == 0.0:
        return math.inf if best_dist > 0 else "degenerate"
    return best_dist / worst_dia


@settings(max_examples=120, deadline=None)
@given(data=partitions(max_nodes=20))
def test_index_matches_bruteforce_oracle(data):
    clusters, pos = data
    assert _index_or_none(clusters, pos) == oracle_index(clusters, pos)
