"""Partition quality via Dunn's index.

index = (minimum pairwise inter-cluster distance) / (maximum cluster
diameter), both under the Manhattan metric. Higher is better: above 1.0 the
tightest pair of clusters is further apart than the widest cluster is wide.

Both searches work in one frame, u = x/2 + y/2 and v = x/2 - y/2, where the
real Manhattan distance D of two members is 2 max(|dU|, |dV|) for their real
gaps; halving first keeps u and v finite. Write M for the largest
|coordinate| of the members, eps = 2**-53 and q = 2**-1074, the smallest
subnormal. Each float addition or subtraction is within a factor 1 +- eps
of its real result, so the float distance d of a pair is within a factor
(1 +- eps)**2 of D. Halving rounds by at most q/2 and only in the subnormal
range, so each computed u or v is within e = q + eps(M + q) of the real one.
Both searches use the margin delta = ``clustering._margin(M)``, at least
31eps*M + 3.4q, or inf when 4M overflows, which makes every test below keep
every member. Every pair a search keeps is tested with
``manhattan_distance``'s expression written inline.

``_min_cross_distance`` is a plane sweep in u order. The active list holds,
sorted by v, the members behind the current one b that lie within
w = best/2 + delta of it in u, where best is the shortest cross-cluster
distance so far; those within w of b in v are tested, then b joins. Let a
come before b with d < best. If best is inf, so is w, and the pair is
tested. Else best <= 4M, the largest float distance, D <= d(1 + 3eps), so
|dU|, |dV| <= best/2 + 6eps*M, and the computed gaps are at most
best/2 + 8eps*M + 2q(1 + eps), less than the computed w, which is at least
(best/2 - q/2 + delta)(1 - eps) >= best/2 + 28eps*M + 2.8q. Rounding is
monotone, so a lies in b's window and was not dropped against b or any
earlier member, whose u is no larger and best no smaller: the result is
exactly the all-pairs minimum. The sweep costs O(N log N) plus one step per
pair in a window, and O(N**2) list moves at worst, when many share one u.

``_diameter`` tests all pairs of a cluster of at most ``_FEW`` members, else
only the members that can end the widest pair, in practice a few. A
cluster's real diameter is D* = 2 max(S_u, S_v) <= 4M for the real spreads
S of its u and v. The pair with the largest d has D >= D*(1 - 4eps), so on
one axis, u say, |dU| >= D*/2 - 2eps*D* >= S_u - 8eps*M for it.

- *Axis.* So S_u >= S_v(1 - 4eps) >= S_v - 8eps*M. Each computed spread
  s = fl(max - min) is within 2e + eps(2M + 2e) <= 4.01eps*M + 2.01q of the
  real one, so s_u >= s_v - 16.1eps*M - 4.1q. The float test
  ``s_u + delta < s_v - delta`` fails when s_v <= delta, and otherwise
  holds only if (s_u + delta)(1 - eps) < (s_v - delta)(1 + eps), that is if
  s_u < s_v - 2delta + 4.01eps*M + q <= s_v - 57eps*M - 5.8q. So the axis
  of the widest pair is not dropped.
- *Extremes.* On it the pair's ends lie within 8eps*M of the real extremes,
  and within 8eps*M + 2e of the computed ones, max(us) and min(us). The
  thresholds ``max(us) - delta`` and ``min(us) + delta`` round by at most
  eps(M + e + delta), so delta >= 11.1eps*M + 2.1q keeps both ends, and the
  result is exactly the all-pairs maximum.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from enum import Enum
from .clustering import _margin
from .errors import ConsistencyError, DegenerateGeometryError, InputError, UndefinedIndexError
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

Point = tuple[float, float, float, float]  # (u, v, x, y), as in the module docstring


def _frame(
    clusters: tuple[Cluster, ...], positions: dict[NodeId, Position]
) -> tuple[list[list[Point]], float]:
    """Each cluster's members as points, and the rounding margin of them all."""
    groups = []
    reach = 0.0
    for c in clusters:
        points = []
        for m in c.members:
            p = positions.get(m)
            if p is None:
                raise ConsistencyError(f"no position for node {m}")
            x, y = p.x, p.y
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputError(f"position ({x!r}, {y!r}) is not finite")
            points.append((x * 0.5 + y * 0.5, x * 0.5 - y * 0.5, x, y))
            reach = max(reach, abs(x), abs(y))
        groups.append(points)
    return groups, _margin(reach)


def _diameter(points: list[Point], delta: float) -> float:
    """The widest float distance between two points, 0 for one; above ``_FEW``
    points only those near an extreme of an axis that can hold it are tested."""
    if len(points) > _FEW:
        us, vs, _, _ = zip(*points)
        u_lo, u_hi, v_lo, v_hi = min(us), max(us), min(vs), max(vs)
        if u_hi - u_lo + delta < v_hi - v_lo - delta:
            u_lo, u_hi = -math.inf, math.inf  # u is too narrow to hold the widest pair
        elif v_hi - v_lo + delta < u_hi - u_lo - delta:
            v_lo, v_hi = -math.inf, math.inf
        u_lo, u_hi, v_lo, v_hi = u_lo + delta, u_hi - delta, v_lo + delta, v_hi - delta
        points = [p for p in points if p[0] <= u_lo or p[0] >= u_hi or p[1] <= v_lo or p[1] >= v_hi]
    widest = 0.0
    for i, (_, _, ax, ay) in enumerate(points):
        for _, _, bx, by in points[i + 1 :]:
            d = abs(ax - bx) + abs(ay - by)
            if d > widest:
                widest = d
    return widest


def cluster_diameter(cluster: Cluster, positions: dict[NodeId, Position]) -> float:
    """Maximum Manhattan distance between two members; 0 for a singleton."""
    (points,), delta = _frame((cluster,), positions)
    return _diameter(points, delta)


def _min_cross_distance(groups: list[list[Point]], delta: float) -> float:
    """Smallest Manhattan distance between points of different groups, by a
    plane sweep in u order over a v-sorted window (see the module docstring)."""
    members = sorted((u, v, x, y, a) for a, points in enumerate(groups) for u, v, x, y in points)
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
    the index is inf / inf, and that is an ``InputError``. Each member's
    position is read once: a missing one is a ``ConsistencyError`` and a
    non-finite one an ``InputError``.
    """
    cs = clusters.clusters
    if len(cs) < 2:
        raise UndefinedIndexError(
            f"index needs at least two clusters, got {len(cs)}"
        )

    groups, delta = _frame(cs, positions)
    min_dist = _min_cross_distance(groups, delta)
    max_dia = max(_diameter(points, delta) for points in groups)
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
