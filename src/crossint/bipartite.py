"""The bipartite MWIS / vertex-cover duality, and Dinic's max flow.

All capacities and weights are exact Python integers; nothing here ever
touches floating point.  A minimum-weight vertex cover of a bipartite
graph is a minimum cut of its cover network (the source sends each
side-1 vertex its weight, each side-2 vertex sends the sink its weight,
edges carry any amount), and a maximum-weight independent set is the
cover's complement.  One breadth-first augmenting search on bitset rows
(``_cover_flow``, certified by ``_cover``) solves that network for the
weighted orbit graphs and for the oracle's unit-weight conflict graphs,
whose cover is König's.  Dinic's algorithm serves ``max_flow`` only.
"""

from dataclasses import dataclass
from itertools import compress
from operator import gt, not_

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
    """A minimum-weight vertex cover and its exact weight: the minimum
    cut closest to the source, which is unique, so it is deterministic."""
    index1 = {v: a for a, (v, _) in enumerate(g.side1)}
    index2 = {v: b for b, (v, _) in enumerate(g.side2)}
    rows = [0] * len(index1)
    for u, v in g.edges:
        rows[index1[u]] |= 1 << index2[v]
    value, reached1, reached2 = _cover(rows, [w for _, w in g.side1],
                                       [w for _, w in g.side2])
    cover = frozenset(compress(index1, map(not_, reached1)))
    return cover | frozenset(compress(index2, reached2)), value


def max_weight_independent_set(g: WeightedBipartiteGraph):
    """A maximum-weight independent set (complement of a minimum cover)."""
    cover, cover_weight = min_weight_vertex_cover(g)
    chosen = frozenset(v for v, _ in g.side1 + g.side2 if v not in cover)
    for u, v in g.edges:
        if u in chosen and v in chosen:
            raise FlowCertificateError(f"edge ({u!r}, {v!r}) inside the "
                                       f"independent set")
    return chosen, g.total_weight() - cover_weight


def _cover_flow(rows, w1, w2):
    """A maximum flow of the cover network, where side-1 vertex a sends
    at most ``w1[a]`` to the side-2 vertices b whose bit is set in
    ``rows[a]``, each taking at most ``w2[b]``.

    A greedy seed has each row push into its highest open bits: the
    oracle lists both sides in lex order, up to a relabeling, and a set
    conflicts mostly with sets far from it in that order.  Each
    breadth-first search then steps from the rows with supply left to
    their bits not yet seen, and from a side-2 vertex back to the rows
    sending to it, until a side-2 vertex with demand left ends a
    shortest augmenting path (as in Edmonds-Karp) that takes the
    bottleneck.  The search that meets none reaches the source side of
    the final residual network, the same for every maximum flow.  The
    seed leaves at most 7 paths on the oracle's graphs.  Returns each
    side-2 vertex's senders and their amounts, the flags of the reached
    rows and the bitset of the reached side-2 vertices.
    """
    left2, roots = list(w2), {}  # demand left; rows with supply left
    into = [{} for _ in left2]
    full2 = open2 = (1 << len(left2)) - 1
    for a, row in enumerate(rows):
        supply = w1[a]
        while supply and (nb := row & open2):
            b = nb.bit_length() - 1
            into[b][a] = d = left2[b] if left2[b] < supply else supply
            supply -= d
            left2[b] -= d
            if not left2[b]:
                open2 ^= 1 << b
        if supply:
            roots[a] = supply
    via = [-1] * len(rows)
    while True:
        parent = [-1] * len(rows)
        for a in roots:
            parent[a] = a
        queue, unseen = list(roots), full2
        for a in queue:  # the loop also visits rows appended below
            nb = rows[a] & unseen
            if nb & open2:
                break
            unseen ^= nb
            while nb:
                low = nb & -nb
                nb ^= low
                b = low.bit_length() - 1
                for c in into[b]:
                    if parent[c] < 0:
                        parent[c], via[c] = a, b
                        queue.append(c)
        else:
            return into, [p >= 0 for p in parent], full2 ^ unseen
        b = (nb & open2).bit_length() - 1
        d, c = left2[b], a
        while parent[c] != c:
            d = min(d, into[via[c]][c])
            c = parent[c]
        d = min(d, roots[c])
        roots[c] -= d
        if not roots[c]:
            del roots[c]
        left2[b] -= d
        if not left2[b]:
            open2 ^= 1 << b
        # each row on the path sends d more to the next side-2 vertex and
        # d less to the one it was reached by
        while True:
            into[b][a] = into[b].get(a, 0) + d
            if parent[a] == a:
                break
            b = via[a]
            if x := into[b].pop(a) - d:
                into[b][a] = x
            a = parent[a]


def _cover(rows, w1, w2):
    """``_cover_flow``'s value and the flags of its reached rows and
    side-2 vertices (the latter may run one past them).  Raises
    FlowCertificateError unless every amount is positive and on a row
    bit, no vertex sends or takes more than its weight, the unreached
    rows and the reached side-2 vertices cover every edge, and that
    cover weighs the value: the flow is then maximum, the cover minimum.
    """
    into, reached1, reached2 = _cover_flow(rows, w1, w2)
    sent, value = [0] * len(rows), 0
    for b, senders in enumerate(into):
        taken = 0
        for a, x in senders.items():
            if x <= 0:
                raise FlowCertificateError(f"row {a} sends {x} to {b}")
            if not rows[a] & 1 << b:
                raise FlowCertificateError(f"row {a} sends to non-bit {b}")
            sent[a] += x
            taken += x
        if taken > w2[b]:
            raise FlowCertificateError(f"column {b} takes {taken} > {w2[b]}")
        value += taken
    for a in compress(range(len(rows)), map(gt, sent, w1)):
        raise FlowCertificateError(f"row {a} sends {sent[a]} > weight {w1[a]}")
    uncovered = ~reached2
    for a, row in compress(enumerate(rows), reached1):
        if row & uncovered:
            raise FlowCertificateError(f"an edge at row {a} is left uncovered")
    flags2 = list(map("1".__eq__, reversed(f"{reached2:0{len(w2)}b}")))
    cover = sum(compress(w1, map(not_, reached1))) + sum(compress(w2, flags2))
    if cover != value:
        raise FlowCertificateError(f"cover weight {cover} != flow {value}")
    return value, reached1, flags2


def unit_weight_independent_set(rows, num2):
    """A maximum independent set of a unit-weight bipartite graph given
    as one bitset row per side-1 vertex: bit b of ``rows[a]`` is set iff
    a is adjacent to side-2 vertex b in 0..num2-1.  The flow is then a
    maximum matching, and its cut König's cover: the rows alternating
    paths from the unmatched rows do not reach, plus the side-2 vertices
    they do.  Returns (value, chosen side-1 indices, chosen side-2
    indices), indices ascending."""
    value, reached1, reached2 = _cover(rows, [1] * len(rows), [1] * num2)
    chosen1 = list(compress(range(len(rows)), reached1))
    chosen2 = list(compress(range(num2), map(not_, reached2)))
    return len(rows) + num2 - value, chosen1, chosen2
