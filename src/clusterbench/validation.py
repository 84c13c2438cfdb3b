"""Partition quality via Dunn's index.

index = (minimum pairwise inter-cluster distance) / (maximum cluster
diameter), both under the Manhattan metric. Higher is better: above 1.0 the
tightest pair of clusters is further apart than the widest cluster is wide.

Both searches work in a rotated frame, where the real Manhattan distance D
of two members is the larger of their gaps along the two axes. Write M for
the largest |coordinate| of the members searched, eps = 2**-53 and
q = 2**-1074, the smallest subnormal. Each float subtraction or addition
is within a factor 1 +- eps of its real result, so the float distance d of
a pair is within a factor (1 +- eps)**2 of D. Both share the rounding margin
``_margin(M)``: delta = 2**-48 * M + 4q, which is at least 31eps*M + 3.4q
after rounding, or inf when 4M overflows.

``_min_cross_distance`` finds the closest pair of members in different
clusters by a plane sweep in u = x/2 + y/2, v = x/2 - y/2, where
D = 2 max(|dU|, |dV|) for the real gaps dU and dV; halving first keeps u and
v finite. Members are taken in u order. The active list holds, sorted by v,
the members behind the current one b that lie within w = best/2 + delta of
it in u, where best is the shortest cross-cluster distance so far. Those
within w of b in v are tested with ``manhattan_distance``'s expression
written inline; then b joins the list. While best is inf, so is w, and
every member behind b is tested. Otherwise let a come before b in u order
with d < best when b is reached; best <= 4M, the largest float distance.
Then D <= d(1 + 3eps), so |dU|, |dV| <= best/2 + 6eps*M. Halving rounds by
at most q/2 and only in the subnormal range, so each computed u or v is
within q + eps(M + q) of the real one, and the gaps of the computed
coordinates are at most best/2 + 8eps*M + 2q(1 + eps). The computed w is at
least (best/2 - q/2 + delta)(1 - eps) >= best/2 + 28eps*M + 2.8q, which is
more. So a's u is at least u_b - w, and a's v lies in [v_b - w, v_b + w].
The thresholds are floats rounded from those real bounds, and rounding is
monotone, so a is not dropped and lies in the window: the pair is tested. A
member dropped earlier was dropped against a u no larger than u_b and a
best no smaller, so the same holds. Every pair left untested has d >= best,
and the result is exactly the all-pairs minimum. When 4M overflows, delta
and w are inf, nothing is dropped and every pair is tested. The sweep
costs O(N log N) plus one step per pair in a window, which before the first
cross-cluster pair holds every member behind, and O(N**2) list moves at
worst, when many members share one u.

``cluster_diameter`` tests only the members that can end the widest pair.
Under u = x + y and v = x - y the real diameter D* is the larger of the u
and v spreads. The float distance d of a pair is within a factor
(1 +- eps)**2 of its real distance D, so the pair with the largest d has
D >= D*(1 - 4eps), and one axis, u say, has |du| >= D*(1 - 4eps) for it.
Both its ends then lie within 4eps*D* <= 16eps*M of the two real u
extremes, since |du| <= D* for every pair. Computed u and v are within
2eps*M of the real ones, and the float thresholds ``max(us) - delta`` and
``min(us) + delta`` round by at most eps*(2M + delta)(1 + eps), so
delta >= 31eps*M keeps both ends. When 4M overflows, every member is kept. The kept members
are tested all pairs with the inline expression, so the result is exactly
the all-pairs maximum. In practice a few members per cluster survive, and a
cluster of at most ``_FEW`` members is tested all pairs directly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from enum import Enum
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


#: Up to this many members, testing all pairs is cheaper than filtering first.
_FEW = 10


def _margin(reach: float) -> float:
    """The rounding margin of both searches over members with no |coordinate|
    above ``reach``; inf when ``4 * reach`` overflows (see the module
    docstring)."""
    return reach * 2.0**-48 + 2.0**-1072 if math.isfinite(4 * reach) else math.inf


def cluster_diameter(cluster: Cluster, positions: dict[NodeId, Position]) -> float:
    """Maximum Manhattan distance between two members; 0 for a singleton.

    Only members within ``delta`` of an extreme of u = x + y or of
    v = x - y can end the widest pair (see the module docstring); those are
    tested all-pairs with the inline expression.
    """
    points = [(p.x, p.y) for p in map(positions.__getitem__, cluster.members)]
    if len(points) > _FEW:
        delta = _margin(max(max(abs(x), abs(y)) for x, y in points))
        if delta < math.inf:
            us = [x + y for x, y in points]
            vs = [x - y for x, y in points]
            u_lo, u_hi = min(us) + delta, max(us) - delta
            v_lo, v_hi = min(vs) + delta, max(vs) - delta
            points = [
                p
                for p, u, v in zip(points, us, vs)
                if u <= u_lo or u >= u_hi or v <= v_lo or v >= v_hi
            ]
    widest = 0.0
    for i, (ax, ay) in enumerate(points):
        for bx, by in points[i + 1 :]:
            d = abs(ax - bx) + abs(ay - by)
            if d > widest:
                widest = d
    return widest


def _min_cross_distance(clusters: tuple[Cluster, ...], positions: dict[NodeId, Position]) -> float:
    """Smallest Manhattan distance between two members of different clusters.

    A plane sweep in the order of u = x/2 + y/2 whose active list, sorted by
    v = x/2 - y/2, holds the members within best/2 + delta behind in u; only
    those within the same bound in v are tested (see the module docstring).
    """
    points = [
        (p.x, p.y, label)
        for label, c in enumerate(clusters)
        for p in map(positions.__getitem__, c.members)
    ]
    for x, y, _ in points:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError(f"position ({x!r}, {y!r}) is not finite")
    delta = _margin(max(max(abs(x), abs(y)) for x, y, _ in points))
    members = sorted((x * 0.5 + y * 0.5, x * 0.5 - y * 0.5, x, y, a) for x, y, a in points)
    active: list[tuple[float, float, float, int]] = []
    best = math.inf
    left = 0
    for u, v, ax, ay, a in members:
        w = best * 0.5 + delta
        while members[left][0] < u - w:
            del active[bisect_left(active, members[left][1:])]
            left += 1
        lo = bisect_left(active, (v - w,))
        hi = bisect_right(active, (v + w, math.inf))
        for _, bx, by, b in active[lo:hi]:
            if a != b:
                d = abs(ax - bx) + abs(ay - by)
                if d < best:
                    best = d
        insort(active, (v, ax, ay, a))
    return best


def dunn_index(clusters: ClusterSet, positions: dict[NodeId, Position]) -> float:
    """min inter-cluster distance / max cluster diameter.

    Needs at least two clusters. All-singleton partitions have diameter 0,
    which yields +inf when the clusters are apart and is an error when two
    clusters touch (distance 0 too). When both distances overflow to +inf
    the index is inf / inf, and that is an ``InputError``. The minimum
    inter-cluster distance is the closest pair of members in different
    clusters, found by a plane sweep in the rotated frame that is
    near-linear at fixed node density; diameters are per cluster.
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
