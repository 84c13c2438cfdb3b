"""Range-based clustering.

Every node first proposes a candidate cluster: itself as temporary head plus
every other node strictly within transmission range (Manhattan metric). The
partition is then built greedily — repeatedly commit the candidate that still
covers the most unclustered nodes (ties broken toward the lower head id),
remove its members from all remaining candidates, and drop candidates whose
head was just absorbed. Nodes left over become singletons.

Both stages are exact and near-linear at fixed node density.

Candidates use a uniform grid (a cell list). A node at (x, y) sits in cell
``(int(x // side), int(y // side))`` with ``side >= tx_range``, and only
pairs in the same or neighbouring cells are tested, each once, with the
unchanged strict ``manhattan_distance(...) < tx_range``. No in-range pair is
missed: a float sum of two non-negative terms is at least each term, and
rounding is monotone, so a float distance below ``tx_range`` means both
real coordinate gaps are below it; float ``//`` is the exact floor while the
quotient stays below 2**50 in magnitude (``cell_side`` widens the cells to
keep it there), so the two cell indices differ by at most one on each axis.
The cost is O(N + N * nodes per cell), which is O(N) at fixed density.

The greedy selection is lazy greedy set cover: a max-heap holds each head's
uncovered count, and a popped entry whose count has gone stale is pushed
back with its current count. Counts only fall, so the first fresh entry
popped is the true maximum, lowest head id on ties. Coverage is symmetric,
so a committed node's own candidate lists exactly the heads whose counts
drop; the whole loop costs O((N + in-range pairs) log N).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TypeVar

from .errors import InputError
from .model import Cluster, ClusterSet, Node, NodeId, Position

Cell = tuple[int, int]
T = TypeVar("T")

#: Largest |coordinate / cell side| for which float ``//`` is the exact floor.
_EXACT_QUOTIENT = 2.0**50


def manhattan_distance(a: Position, b: Position) -> float:
    return abs(a.x - b.x) + abs(a.y - b.y)


def cell_side(positions: Iterable[Position], side: float) -> float:
    """``side``, widened where needed so that every cell index of these
    positions stays within the exact range of float ``//``."""
    reach = max((max(abs(p.x), abs(p.y)) for p in positions), default=0.0)
    return max(side, reach / _EXACT_QUOTIENT)


def cell_of(pos: Position, side: float) -> Cell:
    """The grid cell holding ``pos``: the exact floor of each coordinate / side."""
    cx, cy = pos.x // side, pos.y // side
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise InputError(f"position ({pos.x!r}, {pos.y!r}) has no grid cell of side {side!r}")
    return int(cx), int(cy)


def near_pairs(cells: dict[Cell, list[T]]) -> Iterator[tuple[T, T]]:
    """Every unordered pair of items in the same or in neighbouring cells, once.

    Each cell is paired with itself and with its forward half-neighbourhood:
    the cells to the right (lower, level and upper) and the one above.
    """
    for (cx, cy), here in cells.items():
        for i, a in enumerate(here):
            for b in here[i + 1 :]:
                yield a, b
        for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
            for b in cells.get(key, ()):
                for a in here:
                    yield a, b


@dataclass(frozen=True)
class CandidateCluster:
    """A node's proposal: itself as temporary head plus everything in range.

    ``covered`` lists the head first, then the in-range nodes ascending;
    ``count`` is the number of nodes covered besides the head.
    """

    temp_head: NodeId
    covered: tuple[NodeId, ...]

    @property
    def count(self) -> int:
        return len(self.covered) - 1


def _check_nodes(nodes: list[Node]) -> None:
    if not nodes:
        raise InputError("node list is empty")
    ids = sorted(n.node_id for n in nodes)
    if ids != list(range(len(nodes))):
        raise InputError("node ids must be the dense range 0..N-1 with no duplicates")


def pac_candidates(nodes: list[Node], tx_range: float) -> list[CandidateCluster]:
    """One candidate per node: the node plus all others strictly within range."""
    _check_nodes(nodes)
    if not tx_range > 0:
        raise InputError(f"tx_range must be > 0, got {tx_range!r}")
    pos = [n.pos for n in sorted(nodes, key=lambda n: n.node_id)]
    side = cell_side(pos, tx_range)
    cells: dict[Cell, list[NodeId]] = {}
    for node_id, p in enumerate(pos):
        cells.setdefault(cell_of(p, side), []).append(node_id)

    near: list[list[NodeId]] = [[] for _ in pos]
    for a, b in near_pairs(cells):
        if manhattan_distance(pos[a], pos[b]) < tx_range:
            near[a].append(b)
            near[b].append(a)
    return [CandidateCluster(head, (head, *sorted(others))) for head, others in enumerate(near)]


def expac_cluster(nodes: list[Node], tx_range: float) -> ClusterSet:
    """Partition the nodes greedily by candidate coverage.

    Each round commits the candidate covering the most still-unclustered
    nodes (lowest head id on ties) as the next cluster; committed nodes are
    subtracted from every other candidate and candidates whose head got
    absorbed are discarded. Once no candidate covers anyone beyond its own
    head, whatever remains uncovered ends up in singleton clusters. Cluster
    ids follow selection order.
    """
    covered = [c.covered for c in pac_candidates(nodes, tx_range)]
    uncovered = [len(c) for c in covered]
    heap = [(-count, head) for head, count in enumerate(uncovered)]
    heapq.heapify(heap)
    clustered = [False] * len(covered)

    clusters: list[Cluster] = []
    while heap:
        neg_count, head = heapq.heappop(heap)
        if clustered[head]:
            continue
        if -neg_count != uncovered[head]:
            heapq.heappush(heap, (-uncovered[head], head))
            continue
        if uncovered[head] <= 1:
            break  # no candidate covers anyone beyond itself; the rest are singletons
        members = [m for m in covered[head] if not clustered[m]]
        for m in members:
            clustered[m] = True
            for coverer in covered[m]:
                uncovered[coverer] -= 1
        clusters.append(Cluster(len(clusters), head, tuple(sorted(members))))

    for node_id, done in enumerate(clustered):
        if not done:
            clusters.append(Cluster(len(clusters), node_id, (node_id,)))

    return ClusterSet(tuple(clusters), len(nodes))
