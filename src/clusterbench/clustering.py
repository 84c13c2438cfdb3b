"""Range-based clustering.

Every node first proposes a candidate cluster: itself as temporary head plus
every other node strictly within transmission range (Manhattan metric). The
partition is then built greedily — repeatedly commit the candidate that still
covers the most unclustered nodes (ties broken toward the lower head id),
remove its members from all remaining candidates, and drop candidates whose
head was just absorbed. Nodes left over become singletons.

Both stages are exact, and no Python-level work is done per in-range pair.
Node ``b`` is in range of ``a`` exactly when the float expression
``abs(ax - bx) + abs(ay - by) < tx_range`` holds: bit for bit
``manhattan_distance`` on the same pair, since ``abs(ax - bx) ==
abs(bx - ax)`` in IEEE arithmetic. Write r for ``tx_range``, M for the
largest |coordinate|, and eps = 2**-53 for the unit roundoff.

**Cells.** A node at (x, y) sits in cell ``(int(x // side), int(y // side))``
with ``side >= 4r``. Float ``//`` is the exact floor while the quotient stays
below 2**50 in magnitude (``cell_side`` widens the cells to keep it there).
A float distance below r means both real coordinate gaps are below r: a
float sum of two non-negative terms is at least each term, and rounding is
monotone. So a node's range reaches at most the 2 x 2 cells made of its own
cell and, on each axis, the neighbour on the side of the cell's nearer half:
the computed offset ``x / side - cx`` is within eps*|x / side| + 2eps <=
1/8 + 2eps of the real one, so a node whose computed offset is below 1/2
sits in the lower 5/8 of its cell, and everything within r <= side/4 of it
lies in its own cell or the lower neighbour (the upper case is the mirror
image). That neighbour is visited only when the computed offset from the
shared edge is below ``near`` = r / side + 2**-52 * (M / side + 4), which
exceeds the real offset r / side by more than those roundings and the
rounding of ``near`` itself. At most 2 x 2 cells are visited, and at fixed
density (1 + 2r / side)**2 = 2.25 on average.

**Coverage as bitsets.** Under u = x + y and v = x - y the real Manhattan
distance is max(|du|, |dv|), so the open ball of radius r is the open square
|du| < r, |dv| < r. Each cell numbers its nodes by ascending id (bit k is the
cell's k-th node) and keeps them sorted by u; the first time a window in it
is wide, it also sorts them by v and builds prefix masks over both orders.
A node's coverage in a cell is an int whose set bits are the nodes in range:

- a "surely in" mask, the AND of the u-window and v-window masks of
  half-width r - delta, found by bisection;
- plus every node of the "maybe in" windows (half-width r + delta) outside
  the surely windows, each tested with the inline expression.

When the maybe u-window holds at most ``_NARROW`` nodes, the surely masks
are not worth their cost and every node of the u-window is tested instead.
Either way the tested band decides membership, so coverage is exactly the
float predicate provided two facts hold.

**Why delta = 2**-50 * (M + r) is enough.** Float addition and subtraction
round by at most eps relative, at every magnitude. Each computed u or v is
within 2eps*M of the real x + y or x - y, since |x + y| <= 2M. Each float
window bound ``fl(u +- w)`` is within eps*(2M + r + delta)(1 + eps) of the
real one, and ``fl(r +- delta)`` within eps*(r + delta). The float distance
d is within a factor (1 +- eps)**2 of the real distance D.

- *Maybe in.* If d < r then D < r(1 + 2.0001eps), so the computed |du| is
  below r + 2.0001eps*r + 4eps*M. The window edge is at least
  r + delta - 2.0001eps*(M + r + delta) away, which is larger whenever
  delta(1 - 2.0001eps) >= eps*(6.0002M + 4.0002r).
- *Surely in.* A node inside the surely windows, bounds included, has a
  computed |du| and |dv| of at most r - delta + 2.0002eps*(M + r), so D is
  at most r - delta + eps*(6.0002M + 2.0002r); the same bound on delta
  puts that below r(1 - 2eps), and then d <= D(1 + eps)**2 < r.

Scaling by 2**-50 is exact unless the product is subnormal, where it is off
by at most 2**-1075; adding the smallest subnormal 2**-1074 covers that, so
the computed delta is at least 7.99eps*(M + r) at every magnitude. When
4(M + r) overflows, delta is infinite: the maybe windows then hold the whole
cell, the surely windows nothing, and every node of the cell is tested.

**Cost.** Sorting the cells is O(N log N); each node then does a constant
number of bisections, tests its band and, in a wide window, does a few
operations on masks of n / 64 words for cells of n nodes, built once per
cell in O(n**2 / 64). At fixed density a cell holds O(1) nodes and the band
O(1) nodes, so the stage is O(N log N); at fixed area it is O(N**2 / 64)
word operations, done in C, plus the bands.

The greedy selection is lazy greedy set cover (Minoux's accelerated
greedy): a max-heap holds each head's uncovered count, and a popped entry
is re-counted as the popcount of its masks ANDed with the cells' masks of
still-unclustered nodes. A stale count is pushed back; counts only fall, so
the first fresh entry popped is the true maximum, lowest head id on ties.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import Iterator, NamedTuple, TypeVar

from .errors import InputError
from .model import Cluster, ClusterSet, Node, NodeId, Position

Cell = tuple[int, int]
T = TypeVar("T")

#: Largest |coordinate / cell side| for which float ``//`` is the exact floor.
_EXACT_QUOTIENT = 2.0**50


def manhattan_distance(a: Position, b: Position) -> float:
    return abs(a.x - b.x) + abs(a.y - b.y)


def cell_side(reach: float, side: float) -> float:
    """``side``, widened where needed so that the cell index of every
    position with no |coordinate| above ``reach`` stays within the exact
    range of float ``//``."""
    return max(side, reach / _EXACT_QUOTIENT)


def cell_of(pos: Position, side: float) -> Cell:
    """The grid cell holding ``pos``: the exact floor of each coordinate / side."""
    try:
        return int(pos.x // side), int(pos.y // side)
    except (ValueError, OverflowError):  # int() of a NaN or infinite quotient
        raise InputError(
            f"position ({pos.x!r}, {pos.y!r}) has no grid cell of side {side!r}"
        ) from None


def cell_pairs(cells: dict[Cell, list[T]]) -> Iterator[tuple[list[T], list[T]]]:
    """Every occupied cell once with itself, then once with each occupied cell
    of its forward half-neighbourhood: the cells to the right (lower, level
    and upper) and the one above.

    Taking each item of a self pair against the items after it, and each item
    of a cross pair against every item of the other cell, visits every
    unordered pair of items in the same or in neighbouring cells exactly once.
    """
    for (cx, cy), here in cells.items():
        yield here, here
        for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
            there = cells.get(key)
            if there is not None:
                yield here, there


class CandidateCluster(NamedTuple):
    """A node's proposal: itself as temporary head plus everything in range.

    ``masks`` holds one ``(cell, mask)`` pair per grid cell in which the
    head covers someone: bit k of ``mask`` stands for ``cells[cell][k]``.
    ``cells``, the ids of every cell, is shared by all candidates of one
    call. ``covered`` lists the head first, then the in-range nodes
    ascending; ``count`` is the number of nodes covered besides the head.
    """

    temp_head: NodeId
    masks: list[tuple[int, int]]
    cells: list[list[NodeId]]

    @property
    def covered(self) -> tuple[NodeId, ...]:
        others: list[NodeId] = []
        for cell, mask in self.masks:
            others += _members(self.cells[cell], mask)
        others.remove(self.temp_head)
        others.sort()
        return (self.temp_head, *others)

    @property
    def count(self) -> int:
        return sum(mask.bit_count() for _cell, mask in self.masks) - 1


#: Maps the binary digits b"0" and b"1" to the bytes 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _members(ids: list[NodeId], mask: int) -> list[NodeId]:
    """The ids whose bits are set in ``mask``, in bit order."""
    digits = bin(mask)[:1:-1].encode()  # the binary digits, lowest first
    return list(compress(ids, digits.translate(_DIGIT_VALUES)))


def _check_nodes(nodes: list[Node]) -> None:
    if not nodes:
        raise InputError("node list is empty")
    ids = sorted(n.node_id for n in nodes)
    if ids != list(range(len(nodes))):
        raise InputError("node ids must be the dense range 0..N-1 with no duplicates")


#: A u-window holding at most this many nodes is tested node by node.
_NARROW = 16


def _by_key(keys: list[float], points: list[tuple[float, float, int]]):
    """``keys`` ascending, and the ``(x, y, bit)`` points in that order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [keys[k] for k in order], [points[k] for k in order]


def _prefix_masks(points: list[tuple[float, float, int]]) -> list[int]:
    """Entry j has the bits of the first j points set."""
    prefix = [0]
    acc = 0
    for _x, _y, bit in points:
        acc |= bit
        prefix.append(acc)
    return prefix


def pac_candidates(nodes: list[Node], tx_range: float) -> list[CandidateCluster]:
    """One candidate per node: the node plus all others strictly within range."""
    _check_nodes(nodes)
    if not tx_range > 0:
        raise InputError(f"tx_range must be > 0, got {tx_range!r}")
    pos = [n.pos for n in sorted(nodes, key=lambda n: n.node_id)]
    xs = [p.x for p in pos]
    ys = [p.y for p in pos]
    reach = max(max(map(abs, xs)), max(map(abs, ys)))
    side = cell_side(reach, 4 * tx_range)
    index: dict[Cell, int] = {}
    cells: list[list[NodeId]] = []
    for node_id, p in enumerate(pos):
        key = cell_of(p, side)
        cell = index.get(key)
        if cell is None:
            cell = index[key] = len(cells)
            cells.append([])
        cells[cell].append(node_id)

    # Per cell: its u keys ascending and its (x, y, bit) points in u order;
    # the prefix masks over that order, and the same for v, are built the
    # first time a window is wide.
    points_of = [[(xs[i], ys[i], 1 << k) for k, i in enumerate(ids)] for ids in cells]
    tables = [_by_key([x + y for x, y, _bit in points], points) for points in points_of]
    wide_tables: list[tuple | None] = [None] * len(cells)

    if math.isfinite(4 * (reach + tx_range)):
        delta = (reach + tx_range) * 2.0**-50 + 2.0**-1074
    else:
        delta = math.inf
    maybe_w, surely_w = tx_range + delta, tx_range - delta
    narrow = _NARROW if surely_w > 0 else len(pos)
    # A neighbour cell is visited only when the computed offset of the node
    # from the shared edge is below ``near`` (see the module docstring).
    near = tx_range / side + (reach / side + 4) * 2.0**-52
    far = 1 - near
    candidates: list[CandidateCluster] = [None] * len(pos)  # every slot is filled
    for (cx, cy), cell in index.items():
        # The cells around this one, at 3 * dx + dy + 4 for the offset
        # (dx, dy); then the occupied cells a node with that neighbour offset
        # visits, with their tables, built when first needed.
        around = [index.get((cx + dx, cy + dy)) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        plans: list[list | None] = [None] * 9
        for a, (ax, ay, _bit) in zip(cells[cell], points_of[cell]):
            ua = ax + ay
            lo, hi = ua - maybe_w, ua + maybe_w
            fx, fy = ax / side - cx, ay / side - cy
            dx = (-3 if fx < near else 0) if fx < 0.5 else (3 if fx > far else 0)
            dy = (-1 if fy < near else 0) if fy < 0.5 else (1 if fy > far else 0)
            plan = plans[dx + dy + 4]
            if plan is None:
                keys = (cell, around[dx + 4], around[dy + 4], around[dx + dy + 4])
                plan = plans[dx + dy + 4] = [
                    (c, *tables[c]) for c in dict.fromkeys(keys) if c is not None
                ]
            masks = []
            for other, us, upoints in plan:
                i0 = bisect_left(us, lo)
                i1 = bisect_right(us, hi)
                if i1 - i0 <= narrow:
                    band = upoints[i0:i1]
                    mask = 0
                else:
                    wide = wide_tables[other]
                    if wide is None:
                        vs, vpoints = _by_key([x - y for x, y, _bit in upoints], upoints)
                        wide = wide_tables[other] = (
                            _prefix_masks(upoints), vs, vpoints, _prefix_masks(vpoints)
                        )
                    upre, vs, vpoints, vpre = wide
                    va = ax - ay
                    j0 = bisect_left(vs, va - maybe_w)
                    j1 = bisect_right(vs, va + maybe_w)
                    s0 = bisect_left(us, ua - surely_w)
                    s1 = bisect_right(us, ua + surely_w)
                    t0 = bisect_left(vs, va - surely_w)
                    t1 = bisect_right(vs, va + surely_w)
                    mask = (upre[s1] ^ upre[s0]) & (vpre[t1] ^ vpre[t0])
                    band = upoints[i0:s0] + upoints[s1:i1] + vpoints[j0:t0] + vpoints[t1:j1]
                for bx, by, bit in band:
                    if abs(ax - bx) + abs(ay - by) < tx_range:
                        mask |= bit
                if mask:
                    masks.append((other, mask))
            candidates[a] = CandidateCluster(a, masks, cells)
    return candidates


def expac_cluster(nodes: list[Node], tx_range: float) -> ClusterSet:
    """Partition the nodes greedily by candidate coverage.

    Each round commits the candidate covering the most still-unclustered
    nodes (lowest head id on ties) as the next cluster; committed nodes are
    subtracted from every other candidate and candidates whose head got
    absorbed are discarded. Once no candidate covers anyone beyond its own
    head, whatever remains uncovered ends up in singleton clusters. Cluster
    ids follow selection order.
    """
    candidates = pac_candidates(nodes, tx_range)
    cells = candidates[0].cells
    unclustered = [(1 << len(ids)) - 1 for ids in cells]
    masks = [c.masks for c in candidates]
    heap = []
    for head, ms in enumerate(masks):
        count = 0
        for _cell, m in ms:
            count += m.bit_count()
        heap.append((-count, head))
    heapq.heapify(heap)
    clustered = [False] * len(candidates)

    clusters: list[Cluster] = []
    while heap:
        neg_count, head = heapq.heappop(heap)
        if clustered[head]:
            continue
        count = 0
        for cell, m in masks[head]:
            count += (m & unclustered[cell]).bit_count()
        if count != -neg_count:
            heapq.heappush(heap, (-count, head))
            continue
        if count <= 1:
            break  # no candidate covers anyone beyond itself; the rest are singletons
        members = []
        for cell, m in masks[head]:
            taken = m & unclustered[cell]
            unclustered[cell] ^= taken
            members += _members(cells[cell], taken)
        for m in members:
            clustered[m] = True
        clusters.append(Cluster(len(clusters), head, tuple(members)))  # Cluster sorts them

    for node_id, done in enumerate(clustered):
        if not done:
            clusters.append(Cluster(len(clusters), node_id, (node_id,)))

    return ClusterSet(tuple(clusters), len(nodes))
