"""The weighted two-sided orbit graph, its typed edges, and chain paths.

Vertices are orbit profiles i in {s..k-1}, one copy per side, weighted
by the orbit size.  Two profiles conflict (carry an edge) exactly when
some pair of sets with those profiles intersects in fewer than s
elements, which happens iff k-l <= i+t <= k+s-1.  So the side-2
neighbours of profile i form the interval
[max(s, k-l-i), min(k-1, k+s-1-i)].  The graph stores these intervals
in offsets i - s, one tuple per class (below) shared by all its graphs,
beside its slice w(s..k-1) of the (n, k) weight row; the edge set and
the intervals in profiles are derived when read, and ``side1``/``side2``
are slices of OrbitVertex rows built once per (n, k).  Both ends are
non-increasing in i, so the graph is a bipartite permutation graph.

Three families of edges are singled out: profile-mirroring edges
(i, k+s-1-i) of type 1, equal-profile edges (i, i) of type 2 inside the
band ceil((k-l)/2) <= i < (k+s-1)/2, and offset edges of type 3,
taken in both orientations while both profiles stay in {s..k-1}:
(floor((k-l)/2)-d, floor((k+s-1)/2)+d) for d >= 1 when k-l is even, and
(a-d, ceil((k+s-1)/2)+d) for d >= 0 when k-l is odd, where profile
a = floor((k-l)/2) has no equal-profile edge (2a < k-l) and would
otherwise keep only its mirror edge.  Each vertex then has one mirror
edge and at most one other typed edge, so the typed subgraph is a union
of even paths that alternate the two kinds, walked from their side-1
ends; whether every path carries an equal-weight middle edge is exactly
what validate_decomposition checks.

In offsets j = i-s, with m = k-s and d = k-2s-l, all of this depends on
(m, max(0, d)) alone, the class of the triple.  Profiles are 0..m-1;
the interval of j is [max(0, d-j), m-1-j]; mirror pairs are j+u = m-1;
the band is [max(0, ceil(d/2)), floor(m/2)); the offset anchors are
floor(d/2) and ceil((m-1)/2) for odd d, and d/2-1 and floor((m-1)/2)+1
for even d.  When d <= 0 every interval starts at 0, the band at 0 and
the low anchor below 0, so no offset edge exists: everything collapses
to d = 0.  So the typed edges, the paths and every structural check of
validate_decomposition are the same, in offsets, across a class, and
only the weights w(s+j) differ from triple to triple.  The offset
intervals name the class: m is their count and max(0, d) the lower
end of the first.  _class_intervals builds them once per class, so
each cache keyed by them meets one tuple per class.  _class_chains
builds each class's paths once, as positions in side1 + side2;
classify_edges and build_chain_decomposition put a triple's own
vertices on them, and _class_flow_paths checks their fit to lemma 1's
path flow once: a triple then costs its weights (_flow_amounts_hold,
_verdict_by_offsets).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, repeat
from operator import attrgetter
from typing import NamedTuple

from .bipartite import WeightedBipartiteGraph
from .errors import (DecompositionViolation, EnumerationTooLarge,
                     IndexNotMeaningful, ParamsOutOfRange, TypedEdgeNotInW)
from .extremal import _weight_row, min_pair_intersection, orbit_weight
from .oracle import _conflict_rows
from .report import Verdict
from .sets import Params


class OrbitVertex(NamedTuple):
    side: int  # 1 or 2
    i: int     # intersection profile, s <= i <= k-1
    weight: int

    def name(self) -> str:
        return f"C_{self.i}^{self.side}"


@dataclass(frozen=True)
class OrbitGraph:
    """A triple's own weights on the offset intervals of its class."""

    params: Params
    weights: tuple  # w(i) for profiles i = s..k-1, the same on both sides
    offset_intervals: tuple  # side-2 neighbours of each j = i - s, less s

    # OrbitVertex per profile, ascending: sliced from the (n, k) rows
    side1 = property(lambda self: _vertex_rows(
        self.params.n, self.params.k)[0][self.params.s:])
    side2 = property(lambda self: _vertex_rows(
        self.params.n, self.params.k)[1][self.params.s:])

    def profiles(self):
        return tuple(range(self.params.s, self.params.s + len(self.weights)))

    @property
    def intervals(self) -> tuple:
        """The offset intervals in profiles, derived on each access."""
        s = self.params.s
        return tuple([(lo + s, hi + s) for lo, hi in self.offset_intervals])

    def has_edge(self, i: int, t: int) -> bool:
        s = self.params.s
        if not 0 <= i - s < len(self.offset_intervals):
            return False
        lo, hi = self.offset_intervals[i - s]
        return lo <= t - s <= hi

    def _edge_list(self):
        """Edges (i on side 1, t on side 2), ascending."""
        return [(i, t) for i, (lo, hi) in enumerate(self.intervals, self.params.s)
                for t in range(lo, hi + 1)]

    @property
    def edges(self) -> frozenset:
        """The edge set, derived from the intervals on each access."""
        return frozenset(self._edge_list())

    def as_bipartite(self) -> WeightedBipartiteGraph:
        """The same graph with vertices labelled (side, profile)."""
        s = self.params.s
        return WeightedBipartiteGraph(
            tuple(((1, i), w) for i, w in enumerate(self.weights, s)),
            tuple(((2, i), w) for i, w in enumerate(self.weights, s)),
            tuple(((1, i), (2, t)) for i, t in self._edge_list()))


@lru_cache(maxsize=64)  # sized as extremal._weight_row, for the same loops
def _vertex_rows(n: int, k: int) -> tuple:
    """OrbitVertex records of profiles 0..k-1, one row per side."""
    return tuple(tuple(map(OrbitVertex, repeat(side), range(k),
                           _weight_row(n, k))) for side in (1, 2))


def _require_graph_params(params: Params):
    if params.s < 2:
        raise ParamsOutOfRange(
            f"orbit graph needs s >= 2, got s={params.s} (the s=1 case is "
            f"covered by the enumeration oracle)")
    if params.l < 0:
        raise ParamsOutOfRange(f"orbit graph needs slack l >= 0, got {params.l}")


def build_orbit_graph(params: Params) -> OrbitGraph:
    """The weighted conflict graph between orbit profiles of both sides:
    the triple's weights on its class's ``_class_intervals``."""
    _require_graph_params(params)
    k, s = params.k, params.s
    d = k - 2 * s - params.l
    return OrbitGraph(params, _weight_row(params.n, k)[s:k],
                      _class_intervals(k - s, d if d > 0 else 0))


# one entry per class, sized as _class_chains: 379 classes on the
# orbit-sweep workload's grid, 704 on criterion 5's range
@lru_cache(maxsize=1024)
def _class_intervals(m: int, d: int) -> tuple:
    """The offset intervals [max(0, d-j), m-1-j] of offsets j = 0..m-1."""
    intervals = tuple([(d - j if d > j else 0, m - 1 - j) for j in range(m)])
    for j, (lo, hi) in enumerate(intervals):
        if lo > hi:
            raise TypedEdgeNotInW(f"offset {j} is isolated in class (m, d) = "
                                  f"({m}, {d}): no mirror edge")
    return intervals


class TypedEdge(NamedTuple):
    left: OrbitVertex   # side 1
    right: OrbitVertex  # side 2
    edge_type: int      # 1, 2, or 3


def _typed_offsets(intervals: tuple) -> list:
    """The three edge families of the class with these offset intervals,
    as ascending (a, b, type): side-1 offset a, side-2 offset b.

    Raises TypedEdgeNotInW if a typed edge is not a graph edge, and
    DecompositionViolation if two families share an edge; either would
    contradict the construction and is treated as a finding.
    """
    m, d = len(intervals), intervals[0][0]  # d = max(0, k-2s-l)
    band = range(-(-d // 2), m // 2)  # ceil(d/2) <= j and 2j < m-1
    if d % 2:
        # offset floor(d/2) has no equal-profile edge; anchor there
        low, high = d // 2, m // 2
    else:
        low, high = d // 2 - 1, (m + 1) // 2
    # x = 0..reach keep low-x and high+x in {0..m-1}; each pair is typed
    # in both orientations, so the low and high ends mirror each other
    reach = min(low, m - 1 - high)
    lows, highs = range(low - reach, low + 1), range(high, high + reach + 1)
    lefts = [*range(m), *band, *lows, *highs]
    rights = [*range(m - 1, -1, -1), *band, *highs[::-1], *lows[::-1]]
    if len(set(zip(lefts, rights))) != len(lefts):
        raise DecompositionViolation(f"typed edge families overlap in class "
                                     f"(m, d) = ({m}, {d})")
    types = [1] * m + [2] * len(band) + [3] * (2 * len(lows))
    typed = sorted(zip(lefts, rights, types))
    for a, b, ty in typed:
        if not intervals[a][0] <= b <= intervals[a][1]:
            raise TypedEdgeNotInW(f"typed edge (s+{a}, s+{b}) of type {ty} is "
                                  f"not a graph edge in class (m, d) = "
                                  f"({m}, {d})")
    return typed


def classify_edges(graph: OrbitGraph):
    """The three edge families, as TypedEdges in ascending order of
    their (side-1 profile, side-2 profile) pairs: the ``_typed_offsets``
    of the graph's class on its vertices, raising as that does."""
    side1, side2 = graph.side1, graph.side2
    return [TypedEdge(side1[a], side2[b], ty)
            for a, b, ty in _typed_offsets(graph.offset_intervals)]


def _walk_chains(m: int, typed) -> tuple:
    """(paths, edge types) of the typed edges (a, b, type), m vertices a
    side, each vertex as its position in ``side1 + side2``.

    A vertex has one mirror edge (type 1) and at most one type-2/3 edge,
    so each path starts at a side-1 vertex with no type-2/3 edge and
    alternates the two kinds until a vertex has none.  Paths are ordered
    by their least position.  Raises DecompositionViolation, with the
    positions as ``offending``, if a vertex has two typed edges of one
    kind or no mirror edge, or lies on no path (the typed edges close a
    cycle); none has been observed.
    """
    name = lambda x: f"C_{{s+{x % m}}}^{x // m + 1}"
    mirror, other = [None] * (2 * m), [None] * (2 * m)  # (partner, type)
    for a, b, ty in typed:
        at = mirror if ty == 1 else other
        for x, y in ((a, m + b), (m + b, a)):
            if at[x] is not None:
                raise DecompositionViolation(f"vertex {name(x)} has two typed "
                                             f"edges of one kind", offending=x)
            at[x] = y, ty
    if None in mirror:
        x = mirror.index(None)
        raise DecompositionViolation(f"vertex {name(x)} has no mirror edge",
                                     offending=x)

    chains = []
    for start in range(m):
        if other[start] is not None:
            continue
        path, types, step = [start], [], mirror[start]
        while step is not None:
            x, ty = step
            path.append(x)
            types.append(ty)
            step = (other if ty == 1 else mirror)[x]
        chains.append((min(path[0::2]), tuple(path), tuple(types)))
    chains.sort()
    left_out = sorted(set(range(2 * m)).difference(*(p for _, p, _ in chains)))
    if left_out:
        raise DecompositionViolation(f"vertices {list(map(name, left_out))} "
                                     f"lie on no path", offending=left_out)
    _, paths, edge_types = zip(*chains)
    return paths, edge_types


# sized from the class counts: 379 on the orbit-sweep workload's grid,
# 704 on criterion 5's range (k 3:40, s 2:39, l 0:40)
@lru_cache(maxsize=1024)
def _class_chains(intervals: tuple) -> tuple:
    """``_walk_chains`` of the class with these ``offset_intervals``."""
    return _walk_chains(len(intervals), _typed_offsets(intervals))


@dataclass(frozen=True)
class ChainDecomposition:
    """The typed subgraph split into vertex-disjoint paths.

    ``paths`` holds vertex sequences; ``edge_types`` the aligned type of
    each consecutive pair; ``middles`` the positional middle edge of each
    path as (left vertex, right vertex, type).
    """

    params: Params
    paths: tuple
    edge_types: tuple
    middles: tuple
    graph: OrbitGraph  # the graph the paths were taken from
    typed: tuple       # classify_edges(graph)

    def offset_paths(self) -> tuple:
        """The paths with every vertex as its position in ``side1 +
        side2``, (side - 1) * (k - s) + i - s: the same for all triples
        of one class (see the module docstring)."""
        s, m = self.params.s, len(self.graph.weights)
        return tuple(tuple((v.side - 1) * m + v.i - s for v in path)
                     for path in self.paths)


def build_chain_decomposition(params: Params) -> ChainDecomposition:
    """The typed subgraph as paths: its class's ``_class_chains`` on the
    triple's vertices, raising as that does."""
    return _decompose(build_orbit_graph(params))


def _decompose(graph: OrbitGraph) -> ChainDecomposition:
    """build_chain_decomposition on an orbit graph already built."""
    offset_paths, edge_types = _class_chains(graph.offset_intervals)
    own = graph.side1 + graph.side2
    paths = tuple(tuple(map(own.__getitem__, path)) for path in offset_paths)
    middles = tuple((p[len(p) // 2 - 1], p[len(p) // 2], t[len(p) // 2 - 1])
                    for p, t in zip(paths, edge_types))
    return ChainDecomposition(graph.params, paths, edge_types, middles, graph,
                              tuple(classify_edges(graph)))


def path_mwis(weights) -> int:
    """Maximum-weight independent set of a path, by take/skip recurrence."""
    weights = list(weights)
    if not weights:
        raise ValueError("empty weight sequence")
    take, skip = 0, 0
    for w in weights:
        take, skip = skip + w, take if take > skip else skip
    return max(take, skip)


def _path_failures(path, weights, edge_types, middle, best):
    """The checks of one path with vertex weights ``weights`` and MWIS
    ``best``: its shape around the stored middle edge, then its
    ``_weight_failures``, then where its mirror edges sit.  Returns
    failure strings."""
    if len(path) % 2 != 0:
        return [f"odd vertex count {len(path)}"]
    failures = []
    half = len(path) // 2

    left, right, mid_type = middle
    if middle != (path[half - 1], path[half], edge_types[half - 1]):
        failures.append("stored middle edge does not sit at the path midpoint")
    fixed_point = mid_type == 1 and left.i == right.i
    if mid_type != 2 and not fixed_point:
        failures.append(
            f"middle edge {left.name()}--{right.name()} has type {mid_type} "
            f"and is not a fixed-point mirror edge")
    failures += _weight_failures(weights, best, left, right)

    mirrors = edge_types[0::2]
    if mirrors.count(1) != len(mirrors):
        failures.append("mirror edges not in alternating position")
    if 1 in edge_types[1::2]:
        failures.append("interleaved edge has type 1")
    return failures


def _weight_failures(weights, best, left, right):
    """The weight checks of one path, whose vertex weights in path order
    are ``weights`` with path MWIS ``best`` and whose middle edge joins
    ``left`` and ``right``: the middle's ends weigh the same, weights
    rise to the middle and fall after it, and the MWIS is half the
    path's weight.  Returns failure strings."""
    failures = []
    if left.weight != right.weight:
        failures.append(
            f"middle weights differ: {left.name()}={left.weight}, "
            f"{right.name()}={right.weight}")
    half = len(weights) // 2
    rising, falling = weights[:half], weights[half:]
    if rising != sorted(rising) or falling != sorted(falling, reverse=True):
        failures.append(f"weights not monotone toward the middle: {weights}")

    total = sum(weights)
    if 2 * best != total:
        failures.append(f"path MWIS {best} != half of total {total}")
    return failures


def _typed_edge_failures(typed, graph: OrbitGraph):
    """Typed edges that are not edges between the graph's own vertices,
    or whose type does not match their form: type 1 exactly on mirror
    pairs i+t = k+s-1, type 2 on the other equal-profile pairs and
    type 3 on the rest; and each carried type by (profile, profile)."""
    s, mirror = graph.params.s, graph.params.k + graph.params.s - 1
    failures, types, intervals = [], {}, graph.intervals
    side1, side2 = graph.side1, graph.side2
    for left, right, ty in typed:
        i, t = left.i, right.i
        types[i, t] = ty
        lo, hi = intervals[i - s] if 0 <= i - s < len(intervals) else (1, 0)
        if not (lo <= t <= hi and left == side1[i - s]
                and right == side2[t - s]):
            failures.append(f"typed edge {left.name()}--{right.name()} "
                            f"is not an edge of the graph")
        elif ty != (1 if i + t == mirror else 2 if i == t else 3):
            failures.append(f"typed edge {left.name()}--{right.name()} "
                            f"does not have the form of type {ty}")
    return failures, types


def validate_decomposition(dec: ChainDecomposition, graph: OrbitGraph) -> Verdict:
    """Check every structural and weight invariant of a decomposition
    against ``graph``, with the typed edges the decomposition carries.

    The structural checks read only profile offsets i - s: the paths
    partition the vertices, each typed edge is a graph edge of the form
    of its type, consecutive path vertices are joined by a typed edge of
    the stated type, mirror edges alternate, and each middle sits at its
    path's midpoint with type 2 or as a fixed-point mirror edge.  So they
    give one answer across a class (see the module docstring).  The
    weight checks read ``graph.weights``: each vertex carries its
    profile's weight, the ``_weight_failures`` of each path, and the
    path MWIS values summing to one side's weight.

    Failures are reported in the Verdict, never raised: a failing path
    is a finding about the construction for those parameters (the
    flow-based bound in the optimizer module is unaffected by it).
    """
    params = dec.params
    failures = []

    own = graph.side1 + graph.side2
    claimed, where = list(chain.from_iterable(dec.paths)), attrgetter("side", "i")
    vertices = set(own)  # a path of these passes the vertex checks
    if len(claimed) != len(own) or set(claimed) != vertices and \
            set(map(where, claimed)) != set(map(where, own)):
        failures.append("paths do not partition the vertex set")

    if dec.graph is not graph and dec.graph != graph:
        failures.append("decomposition was built for another graph")
    typed_failures, typed_lookup = _typed_edge_failures(dec.typed, graph)
    failures += typed_failures

    aligned = len(dec.paths) == len(dec.edge_types) == len(dec.middles)
    if not aligned:
        failures.append(f"{len(dec.paths)} paths, {len(dec.edge_types)} edge "
                        f"type rows and {len(dec.middles)} middles do not "
                        f"line up")
    mwis_total = 0
    for p, path in enumerate(dec.paths):
        weights = [v.weight for v in path]
        best = path_mwis(weights) if path else 0
        mwis_total += best
        if not aligned:
            continue
        edge_types = dec.edge_types[p]
        if len(edge_types) != len(path) - 1:
            failures.append(f"path {p} has {len(path)} vertices and "
                            f"{len(edge_types)} edge types")
            continue
        if not vertices.issuperset(path):
            for v in path:
                j = v.i - graph.params.s
                if v.side not in (1, 2) or not 0 <= j < len(graph.weights):
                    failures.append(f"{v.name()} is not a vertex of the graph")
                elif v.weight != graph.weights[j]:
                    failures.append(f"{v.name()} carries weight {v.weight}, "
                                    f"expected {graph.weights[j]}")
        for a, b, ty in zip(path, path[1:], edge_types):
            key = (a.i, b.i) if a.side == 1 else (b.i, a.i)
            if a.side == b.side or typed_lookup.get(key) != ty:
                failures.append(f"{a.name()}--{b.name()} is not a typed edge "
                                f"of type {ty}")
        failures.extend(_path_failures(path, weights, edge_types,
                                       dec.middles[p], best))

    return _chains_verdict(params, len(dec.paths), mwis_total,
                           sum(graph.weights), failures)


def _chains_verdict(params: Params, path_count: int, mwis_total: int,
                    side_weight: int, failures: list) -> Verdict:
    """The chains verdict after its last check, that the path MWIS
    values sum to one side's weight; ``failures`` are the earlier ones."""
    if mwis_total != side_weight:
        failures.append(f"sum of path MWIS values {mwis_total} != one side's "
                        f"weight {side_weight}")
    return Verdict(
        claim="chains.valid",
        params=params,
        formula_value=side_weight,
        oracle_value=mwis_total,
        passed=not failures,
        witness=failures or None,
        detail="; ".join(failures[:4]) if failures else
               f"{path_count} paths, all balanced",
    )


def _verdict_by_offsets(graph: OrbitGraph, paths) -> Verdict:
    """The chains verdict of ``graph`` from its weight checks alone.

    ``paths`` are the ``offset_paths`` of a decomposition that passed
    validate_decomposition on a graph of the same class, so every
    structural check holds here too (each middle edge, for one, sits at
    its path's midpoint), and the validator's failures would be exactly
    each path's ``_weight_failures`` and then the sum check.  One pass
    over a path, by position, finds its weight, MWIS (as ``path_mwis``)
    and shape; only a failing path goes to ``_weight_failures``.
    """
    params, weights = graph.params, graph.weights
    both = weights + weights
    failures, mwis_total = [], 0
    for path in paths:
        half, monotone = len(path) // 2, True
        take = skip = total = top = 0
        for t, x in enumerate(path):
            w = both[x]
            if w < top if t < half else w > top:
                monotone = False
            total += w
            take, skip, top = skip + w, take if take > skip else skip, w
        best = take if take > skip else skip
        mwis_total += best
        left, right = path[half - 1], path[half]
        if not monotone or both[left] != both[right] or 2 * best != total:
            own = graph.side1 + graph.side2
            failures += _weight_failures([both[x] for x in path], best,
                                         own[left], own[right])
    return _chains_verdict(params, len(paths), mwis_total, sum(weights),
                           failures)


def _flow_paths_fit(intervals: tuple, paths) -> bool:
    """The class part of ``_saturating_path_flow``: whether ``paths``
    cover the 2m positions of the class with these ``offset_intervals``
    once each and step between the sides along its edges."""
    m, covered = len(intervals), sorted(chain.from_iterable(paths))
    if not all(paths) or covered != list(range(2 * m)):
        return False
    for path in paths:
        for a, b in zip(path, path[1:]):
            a, b = (a, b) if a < b else (b, a)  # side-1, side-2 position
            lo, hi = intervals[a] if a < m <= b else (1, 0)
            if not lo <= b - m <= hi:
                return False
    return True


def _flow_amounts_hold(graph: OrbitGraph, paths) -> bool:
    """The triple part of ``_saturating_path_flow``: whether, with the
    graph's weights, the amounts f(e0) = w(v0) and f(et) = w(vt) -
    f(e(t-1)) along each path v0 ... vL stay >= 0 and end at w(vL)."""
    both = graph.weights * 2
    for path in paths:
        amount = 0  # the flow on the edge into the next vertex
        for x in path:
            amount = both[x] - amount
            if amount < 0:
                return False
        if amount:
            return False
    return True


def _saturating_path_flow(graph: OrbitGraph, paths) -> bool:
    """Whether ``paths``, in the positions of ``offset_paths``, carry a
    flow along graph edges that saturates every vertex of both sides, so
    that a minimum vertex cover weighs one side and the MWIS is
    ``sum(graph.weights)``.  Returns False, without raising, if not."""
    return (_flow_paths_fit(graph.offset_intervals, paths)
            and _flow_amounts_hold(graph, paths))


@lru_cache(maxsize=1024)  # the classes of _class_chains
def _class_flow_paths(intervals: tuple):
    """The class's ``_class_chains`` paths if they pass
    ``_flow_paths_fit``, else None, also when building them raises:
    lemma 1 reads a certificate off the chains, not rests on them."""
    try:
        paths = _class_chains(intervals)[0]
    except (TypedEdgeNotInW, DecompositionViolation):
        return None
    return paths if _flow_paths_fit(intervals, paths) else None


def _orbit_masks(params: Params, profile: int):
    n, k = params.n, params.k
    inside = [sum(1 << e for e in combo)
              for combo in combinations(range(1, k + 1), profile)]
    outside = [sum(1 << e for e in combo)
               for combo in combinations(range(k + 1, n + 1), k - profile)]
    return [lo | hi for lo in inside for hi in outside]


def check_biregularity(params: Params, i: int, t: int,
                       cap: int = 200_000) -> Verdict:
    """Check that two conflicting orbits induce a biregular bipartite
    graph with nonzero degrees (constant degree on each side).

    The orbits are enumerated explicitly and each degree is the popcount
    of a ``_conflict_rows`` bitset row, one row per set of either orbit
    against the other, so no symmetry argument is used.  Both tables
    are built, so the verdict for (t, i) is ``_transposed`` of this one;
    when i == t the two tables coincide and one is built.
    """
    k, s = params.k, params.s
    for x in (i, t):
        if not s <= x <= k - 1:
            raise IndexNotMeaningful(f"profile {x} outside {{{s},...,{k - 1}}}")
    if min_pair_intersection(i, t, params) >= s:
        raise ValueError(f"profiles ({i}, {t}) never conflict for {params}; "
                         f"biregularity does not apply")
    size_i, size_t = orbit_weight(i, params), orbit_weight(t, params)
    if size_i * size_t > cap:
        raise EnumerationTooLarge(
            f"{size_i} x {size_t} pairwise checks exceed cap {cap}")

    orbit_i = _orbit_masks(params, i)
    orbit_t = orbit_i if i == t else _orbit_masks(params, t)
    deg_i = {row.bit_count() for row in _conflict_rows(orbit_i, orbit_t, s)}
    deg_t = deg_i if i == t else {
        row.bit_count() for row in _conflict_rows(orbit_t, orbit_i, s)}
    return _biregular_verdict(params, (i, t), (size_i, size_t),
                              (sorted(deg_i), sorted(deg_t)))


def _biregular_verdict(params: Params, pair, sizes, degrees) -> Verdict:
    """The biregularity verdict of the profile pair from its orbit sizes
    and the sorted degree lists of its two sides."""
    (size_i, size_t), (deg_i, deg_t) = sizes, degrees
    passed = (len(deg_i) == 1 and len(deg_t) == 1
              and 0 not in deg_i and 0 not in deg_t)
    return Verdict(
        claim="orbit-pair.biregular",
        params=params,
        passed=passed,
        witness={"profile_pair": pair, "sizes": sizes, "degrees": degrees},
        detail=(f"degrees {deg_i[0]} x {deg_t[0]} on orbit sizes {size_i} x "
                f"{size_t}" if passed else f"degree sets {deg_i} / {deg_t}"),
    )


def _transposed(verdict: Verdict) -> Verdict:
    """The ``check_biregularity`` verdict of the profile pair (t, i),
    from the verdict of (i, t): the same graph with its sides swapped."""
    witness = verdict.witness
    return _biregular_verdict(verdict.params, witness["profile_pair"][::-1],
                              witness["sizes"][::-1], witness["degrees"][::-1])


def graph_to_dot(graph: OrbitGraph) -> str:
    """Plain DOT rendering of the orbit graph (all edges, no styling)."""
    p = graph.params
    lines = [f"graph orbit_graph_n{p.n}_k{p.k}_s{p.s} {{", "  rankdir=LR;"]
    for v in graph.side1 + graph.side2:
        lines.append(f'  "{v.name()}" [label="{v.name()} (w={v.weight})"];')
    for i, t in graph._edge_list():
        lines.append(f'  "C_{i}^1" -- "C_{t}^2";')
    lines.append("}")
    return "\n".join(lines) + "\n"


_EDGE_STYLE = {
    1: "[style=solid]",
    2: "[style=bold, dir=both]",
    3: "[style=dashed]",
}


def decomposition_to_dot(dec: ChainDecomposition) -> str:
    """DOT rendering of the chain paths, edges styled by type."""
    p = dec.params
    lines = [f"graph chains_n{p.n}_k{p.k}_s{p.s} {{", "  rankdir=LR;"]
    for v in sorted(chain.from_iterable(dec.paths)):
        lines.append(f'  "{v.name()}" [label="{v.name()} (w={v.weight})"];')
    for path, edge_types in zip(dec.paths, dec.edge_types):
        for (a, b), ty in zip(zip(path, path[1:]), edge_types):
            lines.append(f'  "{a.name()}" -- "{b.name()}" {_EDGE_STYLE[ty]};')
    lines.append("}")
    return "\n".join(lines) + "\n"
