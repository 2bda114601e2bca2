"""Exact max-flow and the bipartite MWIS / vertex-cover duality.

All capacities and weights are exact Python integers; nothing here ever
touches floating point.  The minimum-weight vertex cover of a weighted
bipartite graph is computed by a source/sink flow construction (Dinic)
whose minimum cut corresponds one-to-one with an integral cover, and the
maximum-weight independent set is its complement.  Dinic is the generic
solver (``max_weight_independent_set``) and the reference the others
are tested against.  Two special shapes skip the flow network:
unit-weight graphs given as bitset rows, one int per side-1 vertex (the
oracle's dense conflict graphs), are solved by a maximum matching,
seeded greedily from the far end of each row and completed by
breadth-first augmenting searches, and the König cover read off it,
and weighted graphs whose side-1 neighbourhoods are intervals of side 2
(the sweep's lemma1 orbit graphs) by an earliest-deadline greedy flow
and its residual cut.  Both give the same cover the flow would.
"""

from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from itertools import compress
from operator import gt, or_

from .errors import FlowCertificateError


@dataclass(frozen=True)
class FlowNetwork:
    """A directed network with exact integer capacities."""

    nodes: tuple
    arcs: tuple  # (u, v, capacity)
    source: object
    sink: object

    def __post_init__(self):
        known = set(self.nodes)
        if self.source not in known or self.sink not in known:
            raise ValueError("source and sink must be listed in nodes")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for u, v, c in self.arcs:
            if u not in known or v not in known:
                raise ValueError(f"arc ({u!r}, {v!r}) uses an unknown node")
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"capacity of ({u!r}, {v!r}) must be a "
                                 f"nonnegative integer, got {c!r}")


def _max_flow(num_nodes, arcs, src, dst):
    """Dinic max flow on nodes 0..num_nodes-1 and int arcs (u, v, cap).

    Arc e sits at slot 2e of the flat ``to``/``cap`` lists and its
    residual twin at 2e+1 (``e ^ 1``).  Returns the flow value and a
    per-node flag for reachability from src in the final residual
    network; that side of the cut is the same for every maximum flow, so
    it does not depend on augmentation order.  Raises
    FlowCertificateError unless 0 <= sent <= cap on every arc, flow is
    conserved at interior nodes and sink inflow = value = cut capacity.
    """
    out = [[] for _ in range(num_nodes)]
    to, cap = [], []
    for u, v, c in arcs:
        out[u].append(len(to))
        out[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, 0)
    value = 0
    while True:
        level = [-1] * num_nodes
        level[src] = 0
        queue = [src]
        for u in queue:  # the loop also visits nodes appended below
            for e in out[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[dst] < 0:
            break
        # Blocking flow without recursion: ``path`` is the stack of arcs
        # from src to u, and ``it`` each node's first arc not yet dead.
        it = [0] * num_nodes
        path, u = [], src
        while True:
            if u == dst:
                d = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= d
                    cap[e ^ 1] += d
                value += d
                path, u = [], src
            adj, i, nxt = out[u], it[u], level[u] + 1
            while i < len(adj) and not (cap[adj[i]] and level[to[adj[i]]] == nxt):
                i += 1
            it[u] = i
            if i < len(adj):
                path.append(adj[i])
                u = to[adj[i]]
            elif u == src:
                break
            else:
                u = to[path.pop() ^ 1]
                it[u] += 1

    reached = [lv >= 0 for lv in level]
    balance = [0] * num_nodes
    cut = 0
    for e, (u, v, c) in enumerate(arcs):
        sent = c - cap[2 * e]
        if not 0 <= sent <= c:
            raise FlowCertificateError(f"arc {e} carries {sent} of cap {c}")
        balance[u] -= sent
        balance[v] += sent
        if reached[u] and not reached[v]:
            cut += c
    if any(b for x, b in enumerate(balance) if x != src and x != dst):
        raise FlowCertificateError("flow not conserved at an interior node")
    if not balance[dst] == value == cut:
        raise FlowCertificateError(f"sink inflow {balance[dst]}, flow {value} "
                                   f"and cut capacity {cut} differ")
    return value, reached


def max_flow(net: FlowNetwork):
    """Maximum flow value and a minimum cut (as a set of original arcs).

    The cut consists of the arcs leaving the residual-reachable side of
    the source, so its capacity equals the flow value; both facts are
    checked, along with flow conservation at interior nodes.
    """
    index = {node: i for i, node in enumerate(net.nodes)}
    arcs = [(index[u], index[v], c) for u, v, c in net.arcs]
    value, reached = _max_flow(len(net.nodes), arcs, index[net.source],
                               index[net.sink])
    cut = [arc for arc, (u, v, _) in zip(net.arcs, arcs)
           if reached[u] and not reached[v]]
    return value, cut


@dataclass(frozen=True)
class WeightedBipartiteGraph:
    """Two vertex sides with positive integer weights and cross edges."""

    side1: tuple  # (label, weight)
    side2: tuple
    edges: tuple  # (label in side1, label in side2)

    def __post_init__(self):
        s1 = {v for v, _ in self.side1}
        s2 = {v for v, _ in self.side2}
        if len(s1) != len(self.side1) or len(s2) != len(self.side2):
            raise ValueError("duplicate vertex labels within a side")
        if s1 & s2:
            raise ValueError("vertex labels shared across sides")
        for v, w in self.side1 + self.side2:
            if not isinstance(w, int) or w <= 0:
                raise ValueError(f"weight of {v!r} must be a positive integer")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        for u, v in self.edges:
            if u not in s1 or v not in s2:
                raise ValueError(f"edge ({u!r}, {v!r}) does not go from "
                                 f"side1 to side2")

    def total_weight(self) -> int:
        return sum(w for _, w in self.side1) + sum(w for _, w in self.side2)


def min_weight_vertex_cover(g: WeightedBipartiteGraph):
    """A minimum-weight vertex cover and its exact weight.

    Flow runs from the source (node 0) through side 1, then side 2, to
    the sink (the last node).  The cover is the side-1 vertices not
    reachable in the final residual network plus the side-2 vertices
    that are: the minimum cut closest to the source, which is unique, so
    the result is deterministic.
    """
    sink = len(g.side1) + len(g.side2) + 1
    node = {v: 1 + j for j, (v, _) in enumerate(g.side1 + g.side2)}
    # Middle arcs get capacity total+1: finite, never in a minimum cut.
    big = g.total_weight() + 1
    arcs = [(0, node[v], w) for v, w in g.side1]
    arcs += [(node[v], sink, w) for v, w in g.side2]
    arcs += [(node[u], node[v], big) for u, v in g.edges]
    value, reached = _max_flow(sink + 1, arcs, 0, sink)
    cover = frozenset([v for v, _ in g.side1 if not reached[node[v]]]
                      + [v for v, _ in g.side2 if reached[node[v]]])
    for u, v in g.edges:
        if u not in cover and v not in cover:
            raise FlowCertificateError(f"edge ({u!r}, {v!r}) left uncovered")
    if sum(w for v, w in g.side1 + g.side2 if v in cover) != value:
        raise FlowCertificateError(f"cover weight differs from flow {value}")
    return cover, value


def max_weight_independent_set(g: WeightedBipartiteGraph):
    """A maximum-weight independent set (complement of a minimum cover)."""
    cover, cover_weight = min_weight_vertex_cover(g)
    chosen = frozenset(v for v, _ in g.side1 + g.side2 if v not in cover)
    for u, v in g.edges:
        if u in chosen and v in chosen:
            raise FlowCertificateError(f"edge ({u!r}, {v!r}) inside the "
                                       f"independent set")
    return chosen, g.total_weight() - cover_weight


def _max_matching(rows, num2):
    """Maximum matching of a bipartite graph; side-1 vertex a is adjacent
    to the side-2 indices b in 0..num2-1 whose bit is set in ``rows[a]``.

    A greedy seed matches each row in order to its highest free side-2
    bit.  The oracle lists both sides in lex order, up to a relabeling,
    and a set conflicts mostly with sets far from it in that order, so
    the highest bit pairs a row with the far end, close to the complement
    pairing; the lowest bit would send the early rows to the middle and
    block the later ones.  Then a breadth-first search runs from all free
    rows at once, takes each side-2 vertex out of ``unseen`` the first
    time a row meets it and queues its mate with that row as ``parent``.
    The first row to meet a free side-2 vertex ends the search; the path
    back from it is re-matched and the search starts again.  The first
    search that meets no free vertex runs to the end, so its reached rows
    and their union of bits are the König sets: the vertices alternating
    paths from the free rows reach under a maximum matching, the same for
    every maximum matching whatever the seed or bit order.  The seed
    leaves at most 7 rows to augment on the oracle's graphs (at most 4 on
    the set-audit benchmark's 2,845, 1,251 of which need none, and 1 on
    the (21, 7, 4) graphs of up to 14,750 rows); the worst case is one
    search per row the seed leaves free, plus the last.  Returns
    ``mate1``, ``mate2`` (-1 when free), the flags of the reached rows
    and the bitset of the reached side-2 vertices.
    """
    num1 = len(rows)
    mate1, mate2 = [-1] * num1, [-1] * num2
    full2 = free2 = (1 << num2) - 1
    for a, row in enumerate(rows):
        if nb := row & free2:
            b = nb.bit_length() - 1
            mate1[a], mate2[b] = b, a
            free2 ^= 1 << b
    while True:
        parent = [a if b < 0 else -1 for a, b in enumerate(mate1)]
        queue = [a for a, b in enumerate(mate1) if b < 0]
        unseen = full2
        for a in queue:  # the loop also visits rows appended below
            nb = rows[a] & unseen
            if nb & free2:
                break
            unseen ^= nb
            while nb:
                low = nb & -nb
                nb ^= low
                c = mate2[low.bit_length() - 1]
                parent[c] = a
                queue.append(c)
        else:
            return mate1, mate2, [p >= 0 for p in parent], full2 ^ unseen
        # each row on the path takes the next vertex and hands its old
        # mate to its parent, back to the free row the path started from
        b = (nb & free2).bit_length() - 1
        free2 ^= 1 << b
        while b >= 0:
            mate1[a], mate2[b], b = b, a, mate1[a]
            a = parent[a]


#: bytes.translate table from the digits of a binary numeral to the
#: flags of its unset bits.
_UNSET = bytes.maketrans(b"01", b"\1\0")


def unit_weight_independent_set(rows, num2):
    """A maximum independent set of a unit-weight bipartite graph given
    as one bitset row per side-1 vertex: bit b of ``rows[a]`` is set iff
    a is adjacent to side-2 vertex b in 0..num2-1.

    By König's theorem the cover (side-1 vertices not reached by
    alternating paths from the free side-1 vertices, plus side-2 vertices
    that are) has the size of a maximum matching.  Those reached vertices
    are the residual-reachable side of the unit-capacity flow, so the
    cover is the source-closest minimum cut that
    ``min_weight_vertex_cover`` returns.  Raises FlowCertificateError
    unless each matched pair is a row bit with agreeing mates, the cover
    covers every edge and |cover| = |matching|.  Returns (value, chosen
    side-1 indices, chosen side-2 indices), indices ascending.
    """
    mate1, mate2, reached1, reached2 = _max_matching(rows, num2)
    matched = 0
    for a, b in enumerate(mate1):
        if b >= 0:
            if not rows[a] >> b & 1:
                raise FlowCertificateError(f"side-1 vertex {a} has mate {b}, "
                                           f"not a bit of its row")
            if mate2[b] != a:
                raise FlowCertificateError(f"side-2 vertex {b} is not mated "
                                           f"back to side-1 vertex {a}")
            matched += 1
    if num2 - mate2.count(-1) != matched:
        raise FlowCertificateError("side-2 mates disagree with side 1")
    if reduce(or_, compress(rows, reached1), 0) & ~reached2:
        a = next(a for a, row in compress(enumerate(rows), reached1)
                 if row & ~reached2)
        raise FlowCertificateError(f"an edge at side-1 vertex {a} is "
                                   f"left uncovered")
    if reached1.count(False) + reached2.bit_count() != matched:
        raise FlowCertificateError(f"cover size differs from matching "
                                   f"size {matched}")
    chosen1 = list(compress(range(len(rows)), reached1))
    # the digits of reached2, lowest bit first, as 1 where the bit is unset
    unreached2 = f"{reached2:0{num2}b}"[::-1].encode().translate(_UNSET)
    chosen2 = list(compress(range(num2), unreached2))
    return len(rows) + num2 - matched, chosen1, chosen2


def _earliest_deadline_flow(weights1, weights2, intervals):
    """Maximum flow source -> side 1 -> side 2 -> sink with capacities
    ``weights1`` and ``weights2``, side-1 vertex a adjacent to the side-2
    indices lo..hi of ``intervals[a] = (lo, hi)``.

    Side-2 vertices are taken in ascending order, and each hands its
    capacity to the side-1 vertices it meets that still have supply,
    smallest right end first (Glover's greedy for convex bipartite
    graphs).  Returns the flow as (a, b, amount) triples and the flags of
    the side-1 and side-2 vertices reachable from the source in the final
    residual network.
    """
    supply = list(weights1)
    starts = sorted([(lo, hi, a) for a, (lo, hi) in enumerate(intervals)],
                    reverse=True)  # popped by ascending left end
    active, flow = [], []  # heap of (right end, a) with lo <= b
    for b, room in enumerate(weights2):
        while starts and starts[-1][0] <= b:
            _, hi, a = starts.pop()
            heappush(active, (hi, a))
        while room and active:
            hi, a = active[0]
            if hi < b:
                heappop(active)
                continue
            sent = min(room, supply[a])
            flow.append((a, b, sent))
            room -= sent
            supply[a] -= sent
            if not supply[a]:
                heappop(active)

    # Residual arcs: source -> a while a has supply left, a -> b on every
    # edge, and b -> a back along each arc that carries flow.
    reached1 = list(map(bool, supply))
    reached2 = [False] * len(weights2)
    queue = list(compress(range(len(supply)), reached1))
    if queue:
        senders = [[] for _ in weights2]
        for a, b, _ in flow:
            senders[b].append(a)
    for a in queue:  # the loop also visits vertices appended below
        lo, hi = intervals[a]
        for b in range(lo, hi + 1):
            if not reached2[b]:
                reached2[b] = True
                for c in senders[b]:
                    if not reached1[c]:
                        reached1[c] = True
                        queue.append(c)
    return flow, reached1, reached2


def interval_independent_set(weights1, weights2, intervals):
    """A maximum-weight independent set of a bipartite graph in which
    side-1 vertex a (weight ``weights1[a]``) is adjacent exactly to the
    side-2 indices lo..hi of ``intervals[a] = (lo, hi)``, an empty range
    when lo > hi.

    The flow comes from the earliest-deadline greedy, and the cover is
    read off its residual network: side-1 vertices not reachable from the
    source plus side-2 vertices that are.  The reachable side is the same
    for every maximum flow, so this is the source-closest minimum cut
    that ``min_weight_vertex_cover`` returns.  Raises
    FlowCertificateError unless the flow is feasible on graph edges only,
    the cover covers every edge and the cover weight equals the flow
    value.  Returns (value, chosen side-1 indices, chosen side-2
    indices), indices ascending.
    """
    num1, num2 = len(weights1), len(weights2)
    if len(intervals) != num1:
        raise ValueError("need one interval per side-1 vertex")
    if min(weights1, default=1) <= 0 or min(weights2, default=1) <= 0:
        raise ValueError("weights must be positive")
    for lo, hi in intervals:
        if lo <= hi and not 0 <= lo <= hi < num2:
            raise ValueError(f"an interval leaves the side-2 indices 0..{num2 - 1}")
    flow, reached1, reached2 = _earliest_deadline_flow(weights1, weights2,
                                                       intervals)
    out, into = [0] * num1, [0] * num2
    for a, b, sent in flow:
        lo, hi = intervals[a]
        if not (sent > 0 and lo <= b <= hi):
            raise FlowCertificateError(f"flow {sent} on ({a}, {b}), not a "
                                       f"graph edge with positive flow")
        out[a] += sent
        into[b] += sent
    if any(map(gt, out, weights1)) or any(map(gt, into, weights2)):
        raise FlowCertificateError("flow exceeds a vertex weight")
    for a, (lo, hi) in compress(enumerate(intervals), reached1):
        if lo <= hi and not all(reached2[lo:hi + 1]):
            raise FlowCertificateError(f"an edge at side-1 vertex {a} is "
                                       f"left uncovered")
    value = sum(out)
    cover = (sum(weights1) - sum(compress(weights1, reached1))
             + sum(compress(weights2, reached2)))
    if cover != value:
        raise FlowCertificateError(f"cover weight {cover} differs from "
                                   f"flow {value}")
    chosen1 = [a for a, r in enumerate(reached1) if r]
    chosen2 = [b for b, r in enumerate(reached2) if not r]
    return sum(weights1) + sum(weights2) - value, chosen1, chosen2

