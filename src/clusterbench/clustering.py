"""Range-based clustering.

Every node first proposes a candidate cluster: itself as temporary head plus
every other node strictly within transmission range (Manhattan metric). The
partition is then built greedily — repeatedly commit the candidate that still
covers the most unclustered nodes (ties toward the lower head id); each
candidate is re-counted against the unclustered nodes only when taken up,
and skipped then if its head was absorbed. Nodes left over are singletons.

Both stages are exact, and no Python-level work is done per in-range pair.
Node ``b`` is in range of ``a`` exactly when the float expression
``abs(ax - bx) + abs(ay - by) < tx_range`` holds: bit for bit
``manhattan_distance`` on the same pair, since ``abs(ax - bx) ==
abs(bx - ax)`` in IEEE arithmetic. Write r for ``tx_range``, M for the
largest |coordinate|, and eps = 2**-53 for the unit roundoff.

**Windows.** Under u = x + y and v = x - y the real Manhattan distance is
max(|du|, |dv|), so the open ball of radius r is the open square |du| < r,
|dv| < r. The nodes are sorted by u once, and bit k of every mask stands for
the k-th node of that order. A node's coverage is an int whose set bits are
the nodes in range:

- a "surely in" mask, the AND of the u-window and v-window of half-width
  r - delta, found by bisection;
- plus every node of the "maybe in" square (half-width r + delta) outside
  it, each tested with the inline expression.

The tested band decides membership, so coverage is exactly the float
predicate provided two facts hold.

**Strips.** The u order is cut into strips 2r wide in u. Each strip takes
the contiguous slice of the order that holds every node within r + delta in
u of one of its nodes, found by bisection from its first and last node.
Float subtraction and addition are monotone, so that slice holds every
window of the strip's nodes. The slice's nodes are sorted by v, with prefix
masks over that order, so a v-window mask is the XOR of two prefix masks.

**Why delta = ``_margin(M + r)`` is enough.** Float addition and subtraction
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

Both facts need delta only from below, and ``_margin``, the rounding margin
shared with Dunn's index, is at least 31eps*fl(M + r) >= 30.9eps*(M + r) at
every magnitude. When 4(M + r) overflows, delta is infinite: every window
bound is infinite or NaN, both of which bisect to the ends of the order, so
the maybe windows hold every node, the surely windows none, and every node
is tested.

**Cost.** Sorting is O(N log N). Each node then does eight bisections, a few
operations on masks as long as its slice, and tests its band, which holds
O(1) nodes unless the coordinates are far beyond the range. Each strip
builds its prefix masks in O(s**2 / 64) words for a slice of s nodes, and
keeps them only while its nodes are visited. At fixed area a slice holds
O(N) nodes and O(1) strips are cut, so time and memory are O(N**2 / 64)
words, done in C. At fixed density a strip crosses the whole square, so a
slice holds O(sqrt N) nodes and O(sqrt N) strips are cut: time is
O(N**1.5 / 64) words plus O(N log N), and memory is O(N**1.5 / 64) words
for the candidate masks, each as long as its node's u-window.

The greedy selection is lazy greedy set cover (Minoux's accelerated
greedy): a max-heap holds each head's uncovered count, and a popped entry
is re-counted as the popcount of its mask ANDed with the unclustered bits
from its offset on. A stale count is pushed back; counts only fall, so the
first fresh entry popped is the true maximum, lowest head id on ties. Each
re-count shifts an N-bit int, so the greedy is O(N**2 / 64) words.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import NamedTuple, Sequence, TypeVar

from .errors import InputError
from .model import Cluster, ClusterSet, Node, NodeId, Position

T = TypeVar("T")


def manhattan_distance(a: Position, b: Position) -> float:
    return abs(a.x - b.x) + abs(a.y - b.y)


def _margin(reach: float) -> float:
    """The rounding margin of the exact searches over coordinates and ranges up
    to ``reach``: ``reach * 2**-48 + 2**-1072``, at least 31eps*reach + 3.4q for
    eps = 2**-53 and q = 2**-1074, as only a subnormal product rounds, by at
    most q/2; inf when ``4 * reach`` overflows."""
    return reach * 2.0**-48 + 2.0**-1072 if math.isfinite(4 * reach) else math.inf


class CandidateCluster(NamedTuple):
    """A node's proposal: itself as temporary head plus everything in range.

    Bit k of ``mask`` stands for ``order[offset + k]``. ``order``, the node
    ids by ascending u = x + y, is shared by all candidates of one call.
    ``covered`` lists the head first, then the in-range nodes ascending;
    ``count`` is the number of nodes covered besides the head.
    """

    temp_head: NodeId
    offset: int
    mask: int
    order: list[NodeId]

    @property
    def covered(self) -> tuple[NodeId, ...]:
        others = _members(self.order, self.offset, self.mask)
        others.remove(self.temp_head)
        others.sort()
        return (self.temp_head, *others)

    @property
    def count(self) -> int:
        return self.mask.bit_count() - 1


#: Maps the binary digits b"0" and b"1" to the bytes 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _members(items: Sequence[T], offset: int, mask: int) -> list[T]:
    """The items whose bits are set in ``mask``, bit k standing for
    ``items[offset + k]``, in bit order."""
    digits = bin(mask)[:1:-1].encode()  # the binary digits, lowest first
    window = items[offset : offset + len(digits)]
    return list(compress(window, digits.translate(_DIGIT_VALUES)))


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
    for p in pos:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise InputError(f"position ({p.x!r}, {p.y!r}) is not finite")
    reach = max(max(abs(p.x), abs(p.y)) for p in pos)
    delta = _margin(reach + tx_range)
    maybe_w, surely_w = tx_range + delta, tx_range - delta

    order = sorted(range(len(pos)), key=lambda i: pos[i].x + pos[i].y)
    points = [(pos[i].x, pos[i].y) for i in order]
    us = [x + y for x, y in points]
    vs = [x - y for x, y in points]
    index = range(len(order))
    candidates: list[CandidateCluster] = [None] * len(order)  # every slot is filled
    end = 0
    while end < len(order):
        start = end
        end = bisect_right(us, us[start] + 2 * tx_range, start)
        lo = bisect_left(us, us[start] - maybe_w, 0, start)
        hi = bisect_right(us, us[end - 1] + maybe_w, end)
        # The slice's v keys ascending, and prefix masks over that order:
        # entry j has the bits of its first j nodes set, bit k - lo for node k.
        by_v = sorted(range(lo, hi), key=vs.__getitem__)
        vkeys = [vs[k] for k in by_v]
        vpre = [0]
        acc = 0
        for k in by_v:
            acc |= 1 << (k - lo)
            vpre.append(acc)
        for a in range(start, end):
            ax, ay = points[a]
            ua, va = us[a], vs[a]
            i0 = bisect_left(us, ua - maybe_w, lo, a)
            i1 = bisect_right(us, ua + maybe_w, a, hi)
            j0 = bisect_left(vkeys, va - maybe_w)
            j1 = bisect_right(vkeys, va + maybe_w, j0)
            maybe = (vpre[j1] ^ vpre[j0]) >> (i0 - lo) & ((1 << (i1 - i0)) - 1)
            mask = 0
            if surely_w > 0:  # else the surely bounds cross: no node is surely in
                s0 = bisect_left(us, ua - surely_w, i0, i1)
                s1 = bisect_right(us, ua + surely_w, i0, i1)
                t0 = bisect_left(vkeys, va - surely_w, j0, j1)
                t1 = bisect_right(vkeys, va + surely_w, j0, j1)
                window = (vpre[t1] ^ vpre[t0]) >> (s0 - lo) & ((1 << (s1 - s0)) - 1)
                mask = window << (s0 - i0)
            band = maybe ^ mask
            for b in _members(index, i0, band) if band else ():
                bx, by = points[b]
                if abs(ax - bx) + abs(ay - by) < tx_range:
                    mask |= 1 << (b - i0)
            candidates[order[a]] = CandidateCluster(order[a], i0, mask, order)
    return candidates


def expac_cluster(nodes: list[Node], tx_range: float) -> ClusterSet:
    """Partition the nodes greedily by candidate coverage.

    Each round commits the candidate covering the most still-unclustered
    nodes (lowest head id on ties) as the next cluster. A popped candidate
    is re-counted against the unclustered nodes and pushed back if its count
    fell; one whose head was absorbed is skipped. Once no candidate covers
    anyone beyond its own head, the rest become singleton clusters. Cluster
    ids follow selection order.
    """
    candidates = pac_candidates(nodes, tx_range)
    order = candidates[0].order
    unclustered = (1 << len(order)) - 1
    heap = [(-c.mask.bit_count(), c.temp_head) for c in candidates]
    heapq.heapify(heap)
    clustered = [False] * len(candidates)

    clusters: list[Cluster] = []
    while heap:
        neg_count, head = heapq.heappop(heap)
        if clustered[head]:
            continue
        _head, offset, mask, _order = candidates[head]
        taken = mask & (unclustered >> offset)
        count = taken.bit_count()
        if count != -neg_count:
            heapq.heappush(heap, (-count, head))
            continue
        if count <= 1:
            break  # no candidate covers anyone beyond itself; the rest are singletons
        unclustered ^= taken << offset
        members = _members(order, offset, taken)
        for m in members:
            clustered[m] = True
        clusters.append(Cluster(len(clusters), head, tuple(members)))  # Cluster sorts them

    for node_id, done in enumerate(clustered):
        if not done:
            clusters.append(Cluster(len(clusters), node_id, (node_id,)))

    return ClusterSet(tuple(clusters), len(nodes))
