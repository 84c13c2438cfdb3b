"""Partition quality via Dunn's index.

index = (minimum pairwise inter-cluster distance) / (maximum cluster
diameter), both under the Manhattan metric. Higher is better: above 1.0 the
tightest pair of clusters is further apart than the widest cluster is wide.

The minimum inter-cluster distance is the closest pair of members that sit
in different clusters, found by a grid scan instead of a loop over all
cluster pairs. Every member goes into a square cell (``clustering.cell_of``)
and each pair of members in the same or neighbouring cells is tested once
(``clustering.cell_pairs``), with ``manhattan_distance``'s exact expression
written inline. The first side is span/sqrt(N), about one
member per cell. A cross-cluster pair whose float distance is below the
side lies in neighbouring cells, by the exact-floor argument in
``clustering``; so once the best pair found is shorter than the side, or
every occupied cell neighbours every other, the best pair is the exact
minimum. Otherwise the side doubles and the scan repeats. At fixed node
density one scan suffices and costs O(N). Diameters come from
``cluster_diameter``, one flat loop over each cluster's member pairs with
the same inline expression, O(sum of squared cluster sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .clustering import Cell, cell_of, cell_pairs, cell_side
from .errors import (
    DegenerateGeometryError,
    InputError,
    UndefinedIndexError,
)
from .model import Cluster, ClusterSet, NodeId, Position


class Compactness(str, Enum):
    HIGH = "High"
    LOW = "Low"
    VERY_LOW = "VeryLow"


class Classification(str, Enum):
    COMPACT_LESS_SEPARATED = "CompactLessSeparated"
    COMPACT_WELL_SEPARATED = "CompactWellSeparated"
    OFF_SCALE = "OffScale"
    DEGENERATE = "Degenerate"


#: Attached to reports whose index rounds to a very small percentage: the
#: separation/overlap split is the strict index*100 mapping, so an index of
#: 0.01 reads as 1% separation / 99% overlap.
STRICT_PCT_FOOTNOTE = (
    "percentages are the strict index*100 mapping; an index of 0.01 maps to "
    "1% separation / 99% overlap"
)


@dataclass(frozen=True)
class ValidationReport:
    dunn_index: float
    separation_pct: int
    overlap_pct: int
    compactness: Compactness
    classification: Classification
    recommend_recluster: bool
    footnote: str | None = None


def cluster_diameter(cluster: Cluster, positions: dict[NodeId, Position]) -> float:
    """Maximum Manhattan distance between two members; 0 for a singleton."""
    points = [(p.x, p.y) for p in map(positions.__getitem__, cluster.members)]
    widest = 0.0
    for i, (ax, ay) in enumerate(points):
        for bx, by in points[i + 1 :]:
            d = abs(ax - bx) + abs(ay - by)
            if d > widest:
                widest = d
    return widest


def _min_cross_distance(clusters: tuple[Cluster, ...], positions: dict[NodeId, Position]) -> float:
    """Smallest Manhattan distance between two members of different clusters."""
    members = [(positions[m], label) for label, c in enumerate(clusters) for m in c.members]
    xs = [p.x for p, _ in members]
    ys = [p.y for p, _ in members]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    # A zero side means every member sits at the origin: any side then works.
    side = cell_side((p for p, _ in members), span / math.sqrt(len(members))) or 1.0
    while True:
        cells: dict[Cell, list[tuple[float, float, int]]] = {}
        for p, label in members:
            cells.setdefault(cell_of(p, side), []).append((p.x, p.y, label))
        best = math.inf
        for here, there in cell_pairs(cells):
            for i, (ax, ay, a) in enumerate(here):
                for bx, by, b in here[i + 1 :] if there is here else there:
                    if a != b:
                        d = abs(ax - bx) + abs(ay - by)
                        if d < best:
                            best = d
        kxs = [cx for cx, _ in cells]
        kys = [cy for _, cy in cells]
        if best < side or (max(kxs) - min(kxs) <= 1 and max(kys) - min(kys) <= 1):
            return best
        side *= 2


def dunn_index(clusters: ClusterSet, positions: dict[NodeId, Position]) -> float:
    """min inter-cluster distance / max cluster diameter.

    Needs at least two clusters. All-singleton partitions have diameter 0,
    which yields +inf when the clusters are apart and is an error when two
    clusters touch (distance 0 too). When both distances overflow to +inf
    the index is inf / inf, and that is an ``InputError``. The minimum
    inter-cluster distance is the closest pair of members in different
    clusters, found by a grid scan that is near-linear at fixed node
    density; diameters are per cluster.
    """
    cs = clusters.clusters
    if len(cs) < 2:
        raise UndefinedIndexError(
            f"index needs at least two clusters, got {len(cs)}"
        )

    min_dist = _min_cross_distance(cs, positions)
    max_dia = max(cluster_diameter(c, positions) for c in cs)
    if min_dist == max_dia == math.inf:
        raise InputError(
            "Manhattan distances overflow: the closest cross-cluster pair and the "
            "widest cluster both exceed the largest float, so the index is inf / inf"
        )
    if max_dia == 0.0:
        if min_dist == 0.0:
            raise DegenerateGeometryError(
                "all clusters are single points and two of them coincide"
            )
        return math.inf
    return min_dist / max_dia


def classify(index: float, recluster_threshold: float = 0.5) -> ValidationReport:
    """Band an index value into a quality report.

    (0, 0.5] reads as compact but poorly separated, (0.5, 1.0] as compact and
    well separated, above 1.0 the percentage scale no longer applies, and an
    infinite index (all-singleton geometry) is degenerate.
    """
    if math.isnan(index) or index < 0:
        raise InputError(f"index must be >= 0, got {index!r}")
    if math.isinf(index):
        return ValidationReport(
            dunn_index=index,
            separation_pct=100,
            overlap_pct=0,
            compactness=Compactness.HIGH,
            classification=Classification.DEGENERATE,
            recommend_recluster=False,
        )
    pct = round(index * 100)
    separation = max(0, min(100, pct))
    overlap = 100 - separation
    if index >= 0.5:
        compactness = Compactness.HIGH
    elif index >= 0.1:
        compactness = Compactness.LOW
    else:
        compactness = Compactness.VERY_LOW
    if index > 1.0:
        classification = Classification.OFF_SCALE
    elif index > 0.5:
        classification = Classification.COMPACT_WELL_SEPARATED
    else:
        classification = Classification.COMPACT_LESS_SEPARATED
    footnote = STRICT_PCT_FOOTNOTE if compactness is Compactness.VERY_LOW else None
    return ValidationReport(
        dunn_index=index,
        separation_pct=separation,
        overlap_pct=overlap,
        compactness=compactness,
        classification=classification,
        recommend_recluster=index < recluster_threshold,
        footnote=footnote,
    )


def validate_clusters(
    clusters: ClusterSet,
    positions: dict[NodeId, Position],
    recluster_threshold: float = 0.5,
) -> ValidationReport:
    """Compute the index and classify it in one step."""
    return classify(dunn_index(clusters, positions), recluster_threshold)
