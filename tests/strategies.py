"""Shared generators for the property tests.

Positions live on integer grids and energies are integers so that exact
(==) assertions about translation/scale invariance are legitimate — every
intermediate value stays exactly representable. The cell-edge, dense and
far scenes are the exception: they feed the comparisons against the
brute-force references in ``reference.py``, which must hold for any float
input.
"""

from __future__ import annotations

import math
import random

from hypothesis import strategies as st

from clusterbench import Cluster, ClusterSet, Position


@st.composite
def partitions(draw, min_nodes=2, max_nodes=24, max_clusters=6, grid=60):
    """A random valid partition plus integer-grid positions for every node."""
    n = draw(st.integers(min_nodes, max_nodes))
    k = draw(st.integers(min(2, n), min(max_clusters, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rnd = random.Random(seed)
    order = list(range(n))
    rnd.shuffle(order)
    cuts = sorted(rnd.sample(range(1, n), k - 1)) if k > 1 else []
    groups = []
    start = 0
    for cut in cuts + [n]:
        groups.append(order[start:cut])
        start = cut
    clusters = tuple(
        Cluster(cid, min(group), tuple(sorted(group)))
        for cid, group in enumerate(groups)
    )
    positions = {
        i: Position(float(rnd.randint(0, grid)), float(rnd.randint(0, grid)))
        for i in range(n)
    }
    return ClusterSet(clusters, n), positions


@st.composite
def head_rotations(draw, clusters):
    """The partition with each cluster's head drawn afresh from its members."""
    return ClusterSet(
        tuple(
            Cluster(c.cluster_id, draw(st.sampled_from(c.members)), c.members)
            for c in clusters.clusters
        ),
        clusters.node_universe,
    )


@st.composite
def member_moves(draw, clusters):
    """The partition with one non-head member moved to another cluster. The
    clusters between the two keep their heads and members but shift their
    message seqs."""
    movable = [(c, m) for c in clusters.clusters for m in c.members if m != c.head]
    if not movable or len(clusters.clusters) < 2:
        return clusters
    source, node = draw(st.sampled_from(movable))
    target = draw(st.sampled_from([c for c in clusters.clusters if c is not source]))
    moved = []
    for c in clusters.clusters:
        if c is source:
            c = Cluster(c.cluster_id, c.head, tuple(m for m in c.members if m != node))
        elif c is target:
            c = Cluster(c.cluster_id, c.head, c.members + (node,))
        moved.append(c)
    return ClusterSet(tuple(moved), clusters.node_universe)


@st.composite
def partitions_with_energies(draw, max_nodes=20, max_energy=1000):
    """A partition plus a list of one integer energy per node id (heads not
    yet elected)."""
    clusters, positions = draw(partitions(max_nodes=max_nodes))
    n = clusters.node_universe
    energies = [float(draw(st.integers(0, max_energy))) for _ in range(n)]
    return clusters, positions, energies


def random_partition(rnd: random.Random, min_nodes=1, max_nodes=60, max_clusters=8, min_clusters=1):
    """Plain-random partition builder for high-volume loops outside hypothesis."""
    n = rnd.randint(min_nodes, max_nodes)
    k = rnd.randint(min(min_clusters, n), min(max_clusters, n))
    order = list(range(n))
    rnd.shuffle(order)
    cuts = sorted(rnd.sample(range(1, n), k - 1)) if k > 1 else []
    groups = []
    start = 0
    for cut in cuts + [n]:
        groups.append(order[start:cut])
        start = cut
    clusters = tuple(
        Cluster(cid, min(group), tuple(sorted(group)))
        for cid, group in enumerate(groups)
    )
    positions = {
        i: Position(rnd.uniform(0.0, 100.0), rnd.uniform(0.0, 100.0)) for i in range(n)
    }
    return ClusterSet(clusters, n), positions


#: Ranges whose halves are not all exact in binary, so lattice points land on,
#: just inside and just outside cell edges after rounding.
EDGE_RANGES = (1e-3, 0.1, 0.3, 1.0, 7.0, 20.0, 1e3)


def _edge_coordinate(rnd: random.Random, tx_range: float) -> float:
    x = rnd.randint(-8, 8) * tx_range / 2
    nudge = rnd.choice(("none", "up", "down", "ulp-up", "ulp-down"))
    if nudge == "up":
        return x + 1e-12
    if nudge == "down":
        return x - 1e-12
    if nudge == "ulp-up":
        return math.nextafter(x, math.inf)
    if nudge == "ulp-down":
        return math.nextafter(x, -math.inf)
    return x


def random_edge_scene(rnd: random.Random, min_nodes=1, max_nodes=30):
    """A range plus positions for nodes 0..n-1 around the origin, snapped to
    multiples of half the range, some nudged by 1e-12 or one ulp across a
    cell edge, and some duplicating an earlier node."""
    tx_range = rnd.choice(EDGE_RANGES)
    positions: list[Position] = []
    for _ in range(rnd.randint(min_nodes, max_nodes)):
        if positions and rnd.random() < 0.2:
            positions.append(rnd.choice(positions))
        else:
            positions.append(
                Position(_edge_coordinate(rnd, tx_range), _edge_coordinate(rnd, tx_range))
            )
    return tx_range, dict(enumerate(positions))


@st.composite
def edge_scenes(draw, min_nodes=1, max_nodes=30):
    """``random_edge_scene`` driven by a drawn seed."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_edge_scene(rnd, min_nodes, max_nodes)


@st.composite
def edge_partitions(draw, max_nodes=30, max_clusters=6):
    """An edge scene split into up to ``max_clusters`` random clusters."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    _tx_range, positions = random_edge_scene(rnd, 2, max_nodes)
    return random_labels(rnd, len(positions), max_clusters), positions


def dense_scene(seed: int, duplicate_share: float = 0.0, clump_share: float = 0.0):
    """300 seeded positions in a 40 x 40 m square: tens of nodes share each
    grid cell at a 20 m range. ``duplicate_share`` of them repeat an earlier
    position; ``clump_share`` of them sit in a 1 m square at the centre, so a
    grid sized for the whole span holds them in a cell or four."""
    rnd = random.Random(seed)
    side = 40.0
    positions: list[Position] = []
    for _ in range(300):
        roll = rnd.random()
        if positions and roll < duplicate_share:
            positions.append(rnd.choice(positions))
        elif roll < duplicate_share + clump_share:
            positions.append(
                Position(side / 2 + rnd.random(), side / 2 + rnd.random())
            )
        else:
            positions.append(Position(rnd.uniform(0.0, side), rnd.uniform(0.0, side)))
    return dict(enumerate(positions))


#: Ranges that are odd multiples of 0.125 m or 0.25 m, a few float spacings
#: (0.125 m at 1e15 m) to many. The rounding margin of
#: ``clustering.pac_candidates`` there is about 0.9 m, so with the smaller
#: ranges its "surely in" windows are empty and every window is tested.
FAR_RANGES = (0.375, 0.75, 1.25, 20.25)


def random_far_scene(rnd: random.Random, min_nodes=2, max_nodes=60):
    """A range plus positions for nodes 0..n-1 on the 0.125 m float grid
    about 1e15 m from the origin, in a square a few ranges wide; some nodes
    repeat an earlier position.

    Every distance is then a multiple of 0.125 m, so many pairs sit exactly
    at the range or one grid step either side, while x + y or x - y lies
    near 2e15 m, where it rounds to a 0.25 m grid."""
    tx_range = rnd.choice(FAR_RANGES)
    x0 = rnd.choice((1e15, -1e15))
    y0 = rnd.choice((1e15, -1e15))
    steps = int(tx_range * rnd.choice((0.5, 2.0, 4.0)) / 0.125)
    positions: list[Position] = []
    for _ in range(rnd.randint(min_nodes, max_nodes)):
        if positions and rnd.random() < 0.1:
            positions.append(rnd.choice(positions))
        else:
            positions.append(
                Position(x0 + 0.125 * rnd.randint(0, steps), y0 + 0.125 * rnd.randint(0, steps))
            )
    return tx_range, dict(enumerate(positions))


@st.composite
def far_scenes(draw, min_nodes=2, max_nodes=60):
    """``random_far_scene`` driven by a drawn seed."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_far_scene(rnd, min_nodes, max_nodes)


def random_ulp_cluster(rnd: random.Random):
    """Positions 0..n-1 for one cluster of at least 11 members: two far
    ends, copies of them moved a few ulps on each axis, and points between.

    Rounding then often makes the float-widest pair one whose ends are not
    the computed extremes of x + y or x - y."""
    scale = 10.0 ** rnd.randint(-3, 6)
    ends = [(rnd.uniform(-scale, scale), rnd.uniform(-scale, scale)) for _ in range(2)]
    points = list(ends)
    for _ in range(rnd.randint(3, 6)):
        x, y = rnd.choice(ends)
        for _ in range(rnd.randint(1, 6)):
            x = math.nextafter(x, rnd.choice((math.inf, -math.inf)))
            y = math.nextafter(y, rnd.choice((math.inf, -math.inf)))
        points.append((x, y))
    (ax, ay), (bx, by) = ends
    while len(points) < 11:
        t = rnd.random()
        points.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return {i: Position(x, y) for i, (x, y) in enumerate(points)}


def _jitter(rnd: random.Random, value: float) -> float:
    for _ in range(rnd.randint(0, 4)):
        value = math.nextafter(value, rnd.choice((math.inf, -math.inf)))
    return value


def random_diagonal_scene(rnd: random.Random):
    """Positions 0..n-1, 2 <= n <= 32, a few ulps off the line x + y = c, the
    line x - y = c, or both lines crossing with the same extent on each.

    On one line the spread of x + y or of x - y is a few ulps; on the cross
    both spreads agree up to rounding, so their computed order need not be
    the order of the float distances of the two diagonals."""
    scale = 10.0 ** rnd.randint(-3, 6)
    cx, cy = rnd.uniform(-scale, scale), rnd.uniform(-scale, scale)
    t = scale * rnd.uniform(0.01, 1.0)
    directions = rnd.choice(([(1, -1)], [(1, 1)], [(1, -1), (1, 1)]))
    points = [(cx + s * t * dx, cy + s * t * dy) for dx, dy in directions for s in (-1, 1)]
    for _ in range(rnd.randint(0, 28)):
        dx, dy = rnd.choice(directions)
        s = rnd.choice((-1.0, 1.0, rnd.uniform(-1, 1)))
        points.append((cx + s * t * dx, cy + s * t * dy))
    return {i: Position(_jitter(rnd, x), _jitter(rnd, y)) for i, (x, y) in enumerate(points)}


def random_labels(rnd: random.Random, node_count: int, max_clusters: int) -> ClusterSet:
    """Node ids split into up to ``max_clusters`` clusters by a random label each."""
    groups: dict[int, list[int]] = {}
    for node_id in range(node_count):
        groups.setdefault(rnd.randrange(max_clusters), []).append(node_id)
    clusters = tuple(
        Cluster(cid, group[0], tuple(group)) for cid, group in enumerate(groups.values())
    )
    return ClusterSet(clusters, node_count)
