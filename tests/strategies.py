"""Shared generators for the property tests.

Positions live on integer grids and energies are integers so that exact
(==) assertions about translation/scale invariance are legitimate — every
intermediate value stays exactly representable. The cell-edge scenes are the
exception: they feed the comparisons against the brute-force references in
``reference.py``, which must hold for any float input.
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
def partitions_with_energies(draw, max_nodes=20, max_energy=1000):
    """A partition plus an integer energy per node (heads not yet elected)."""
    clusters, positions = draw(partitions(max_nodes=max_nodes))
    n = clusters.node_universe
    energies = {
        i: float(draw(st.integers(0, max_energy)))
        for i in range(n)
    }
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
    groups: dict[int, list[int]] = {}
    for node_id in positions:
        groups.setdefault(rnd.randrange(max_clusters), []).append(node_id)
    clusters = tuple(
        Cluster(cid, group[0], tuple(group)) for cid, group in enumerate(groups.values())
    )
    return ClusterSet(clusters, len(positions)), positions
