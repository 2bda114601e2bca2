from dataclasses import replace
from itertools import chain
from operator import attrgetter, itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import crossint.orbitgraph as orbitgraph
from crossint import (CrossIntError, DecompositionViolation,
                      EnumerationTooLarge, IndexNotMeaningful, OrbitVertex,
                      Params, ParamsOutOfRange, TypedEdge, TypedEdgeNotInW,
                      build_chain_decomposition,
                      build_orbit_graph, check_biregularity, classify_edges,
                      decomposition_to_dot, graph_to_dot,
                      min_pair_intersection, orbit_weight, path_mwis,
                      max_weight_independent_set, size_extremal_family,
                      validate_decomposition)
from crossint.orbitgraph import (_flow_amounts_hold, _flow_paths_fit,
                                 _path_failures, _saturating_path_flow,
                                 _typed_offsets, _walk_chains)
from crossint.report import Verdict

from conftest import pinned_grid, small_graph_params


def typed_pairs(graph, edge_type):
    typed = classify_edges(graph)
    return sorted((e.left.i, e.right.i) for e in typed
                  if e.edge_type == edge_type)


class TestBuildOrbitGraph:
    def test_7_3_2(self):
        g = build_orbit_graph(Params(7, 3, 2))
        assert g.profiles() == (2,)
        assert sorted(g.edges) == [(2, 2)]
        assert [v.weight for v in g.side1] == [12]
        assert [v.weight for v in g.side2] == [12]

    def test_9_4_2(self):
        g = build_orbit_graph(Params(9, 4, 2))
        assert g.profiles() == (2, 3)
        assert sorted(g.edges) == [(2, 2), (2, 3), (3, 2)]
        assert [v.weight for v in g.side1] == [60, 20]

    def test_7_4_2_zero_slack(self):
        g = build_orbit_graph(Params(7, 4, 2))
        assert sorted(g.edges) == [(2, 2), (2, 3), (3, 2)]
        assert [v.weight for v in g.side1] == [18, 12]

    def test_rejects_s1_and_negative_slack(self):
        with pytest.raises(ParamsOutOfRange):
            build_orbit_graph(Params(8, 3, 1))
        with pytest.raises(ParamsOutOfRange):
            build_orbit_graph(Params(6, 4, 2))

    def test_edge_rule_equals_min_intersection_rule(self):
        for params in small_graph_params():
            g = build_orbit_graph(params)
            for i in range(params.s, params.k):
                for t in range(params.s, params.k):
                    conflict = min_pair_intersection(i, t, params) < params.s
                    assert g.has_edge(i, t) == conflict

    def test_no_isolated_vertices(self):
        for params in small_graph_params():
            g = build_orbit_graph(params)
            for i in g.profiles():
                assert any(g.has_edge(i, t) for t in g.profiles())
                assert any(g.has_edge(t, i) for t in g.profiles())


def band_scan(params):
    """The edge set by the k x k scan of the rule k-l <= i+t <= k+s-1."""
    k, s, l = params.k, params.s, params.l
    return {(i, t) for i in range(s, k) for t in range(s, k)
            if k - l <= i + t <= k + s - 1}


class TestIntervalRepresentation:
    def test_edges_equal_band_scan(self):
        for params in small_graph_params():
            assert build_orbit_graph(params).edges == band_scan(params), params

    def test_has_edge_agrees_with_scan(self):
        # profiles just outside {s..k-1} on either side are never adjacent
        for params in small_graph_params():
            g = build_orbit_graph(params)
            edges = band_scan(params)
            around = range(params.s - 2, params.k + 2)
            for i in around:
                for t in around:
                    assert g.has_edge(i, t) == ((i, t) in edges), (params, i, t)

    def test_interval_ends_non_increasing(self):
        for params in small_graph_params():
            los, his = zip(*build_orbit_graph(params).intervals)
            assert list(los) == sorted(los, reverse=True), params
            assert list(his) == sorted(his, reverse=True), params

    def test_offset_intervals_depend_on_the_class_alone(self):
        # [max(0, d - j), m - 1 - j] with m = k - s and d = k - 2s - l
        for params in small_graph_params():
            k, s, l = params.k, params.s, params.l
            m, d = k - s, max(0, k - 2 * s - l)
            assert build_orbit_graph(params).offset_intervals == tuple(
                (max(0, d - j), m - 1 - j) for j in range(m)), params

    def test_offset_paths_index_both_sides(self):
        for params in small_graph_params():
            dec = build_chain_decomposition(params)
            own = dec.graph.side1 + dec.graph.side2
            assert [[own[x] for x in path] for path in dec.offset_paths()] \
                == [list(path) for path in dec.paths], params


def triple(k, s, l):
    return Params(2 * k - s + 1 + l, k, s)


class TestClassIntervals:
    """build_orbit_graph takes its offset intervals from its class
    (m, max(0, d)), m = k - s and d = k - 2s - l: one tuple per class."""

    def test_one_tuple_per_class(self):
        # (k, s, l) = (6, 2, 2), (6, 2, 5) and (8, 4, 0) are the class
        # (4, 0); (7, 3, 0) is the class (4, 1)
        same = [build_orbit_graph(triple(*t)).offset_intervals
                for t in ((6, 2, 2), (6, 2, 5), (8, 4, 0))]
        assert same[0] is same[1] is same[2]
        other = build_orbit_graph(triple(7, 3, 0)).offset_intervals
        assert other is not same[0] and other != same[0]

    def test_intervals_are_the_conflict_rule(self):
        # the orbit-sweep workload's grid (s 2:29, l 0:30) cut at k <= 15
        for k in range(3, 16):
            for s in range(2, k):
                for l in range(31):
                    params = triple(k, s, l)
                    intervals = build_orbit_graph(params).intervals
                    assert intervals == tuple(
                        (max(s, k - l - i), k + s - 1 - i)
                        for i in range(s, k)), params
                    for i, (lo, hi) in enumerate(intervals, s):
                        for t in range(s, k):
                            conflict = min_pair_intersection(i, t, params) < s
                            assert conflict == (lo <= t <= hi), (params, i, t)

    def test_has_edge_is_false_outside_the_profiles(self):
        for params in small_graph_params():
            g, s, k = build_orbit_graph(params), params.s, params.k
            outside = (s - 2, s - 1, k, k + 1)
            for x in outside:
                for y in range(s - 2, k + 2):
                    assert not g.has_edge(x, y), (params, x, y)
                    assert not g.has_edge(y, x), (params, y, x)

    def test_isolated_offset_raises(self):
        # d > m - 1 means s + l < 1, which no valid Params has (s >= 2
        # and l >= 0 are checked first), so the class builder is called
        # directly: offset 0 would have no mirror edge
        with pytest.raises(TypedEdgeNotInW,
                           match=r"offset 0 .* class \(m, d\) = \(3, 3\)"):
            orbitgraph._class_intervals(3, 3)


class TestClassifyEdges:
    def test_9_4_2(self):
        g = build_orbit_graph(Params(9, 4, 2))
        assert typed_pairs(g, 1) == [(2, 3), (3, 2)]
        assert typed_pairs(g, 2) == [(2, 2)]
        assert typed_pairs(g, 3) == []
        assert g.edges == {(e.left.i, e.right.i) for e in classify_edges(g)}

    def test_7_3_2_fixed_point_mirror(self):
        g = build_orbit_graph(Params(7, 3, 2))
        assert typed_pairs(g, 1) == [(2, 2)]
        assert typed_pairs(g, 2) == []
        assert typed_pairs(g, 3) == []

    def test_11_6_2_offset_edges(self):
        g = build_orbit_graph(Params(11, 6, 2))
        assert (2, 4) in typed_pairs(g, 3)
        assert (4, 2) in typed_pairs(g, 3)

    def test_9_5_2_odd_slack_offset_edges(self):
        # k-l = 5 is odd: the offsets pair floor(5/2) = 2 with ceil(6/2) = 3
        g = build_orbit_graph(Params(9, 5, 2))
        assert typed_pairs(g, 3) == [(2, 3), (3, 2)]

    def test_odd_slack_anchor_has_typed_degree_two(self):
        checked = 0
        for params in small_graph_params():
            k, s, l = params.k, params.s, params.l
            a = (k - l) // 2
            if (k - l) % 2 == 0 or a < s:
                continue
            typed = classify_edges(build_orbit_graph(params))
            for side in (1, 2):
                degree = sum((e.left.side, e.left.i) == (side, a)
                             or (e.right.side, e.right.i) == (side, a)
                             for e in typed)
                assert degree == 2, (params, side)
            checked += 1
        assert checked > 0

    def test_mirror_edges_form_perfect_matching(self):
        for params in small_graph_params():
            g = build_orbit_graph(params)
            pairs = typed_pairs(g, 1)
            assert sorted(i for i, _ in pairs) == list(g.profiles())
            assert sorted(t for _, t in pairs) == list(g.profiles())

    def test_typed_degree_at_most_two(self):
        # one mirror edge each, plus at most one equal-profile or offset edge
        for params in small_graph_params():
            g = build_orbit_graph(params)
            typed = classify_edges(g)
            degree = {}
            by_type = {}
            for e in typed:
                for v in (e.left, e.right):
                    degree[v] = degree.get(v, 0) + 1
                    by_type.setdefault(v, []).append(e.edge_type)
            for v, types in by_type.items():
                assert degree[v] <= 2
                assert types.count(1) == 1
                assert types.count(2) + types.count(3) <= 1


def reference_decomposition(params):
    """(paths, edge_types, middles, typed) by the dict walk the chain
    construction used before its per-profile index arrays: the typed
    edges from a dict of (profile, profile) pairs, each vertex's typed
    edges in dicts keyed by profile.  Vertices carry orbit_weight."""
    k, s, l = params.k, params.s, params.l
    profiles = range(s, k)
    side1 = {i: OrbitVertex(1, i, orbit_weight(i, params)) for i in profiles}
    side2 = {i: OrbitVertex(2, i, orbit_weight(i, params)) for i in profiles}

    band_lo = -(-(k - l) // 2)
    pairs = [((i, k + s - 1 - i), 1) for i in profiles]
    pairs += [((i, i), 2) for i in profiles
              if band_lo <= i and 2 * i < k + s - 1]
    if (k - l) % 2:
        lo, hi = (k - l) // 2, -(-(k + s - 1) // 2)
    else:
        lo, hi = (k - l) // 2 - 1, (k + s - 1) // 2 + 1
    while lo in profiles and hi in profiles:
        pairs += [((lo, hi), 3), ((hi, lo), 3)]
        lo, hi = lo - 1, hi + 1
    typed_pairs = dict(pairs)
    assert len(typed_pairs) == len(pairs)
    assert set(typed_pairs) <= band_scan(params)
    typed = tuple(TypedEdge(side1[i], side2[t], ty)
                  for (i, t), ty in sorted(typed_pairs.items()))

    mirror1, mirror2, other1, other2 = {}, {}, {}, {}
    for e in typed:
        at_left, at_right = ((mirror1, mirror2) if e.edge_type == 1
                             else (other1, other2))
        for ends, v, w in ((at_left, e.left, e.right),
                           (at_right, e.right, e.left)):
            assert v.i not in ends
            ends[v.i] = (w, e.edge_type)
    chains = []
    for v in side1.values():
        if v.i in other1:
            continue
        path, types = [v], []
        while True:
            w, _ = mirror1[v.i]
            path.append(w)
            types.append(1)
            if w.i not in other2:
                break
            v, ty = other2[w.i]
            path.append(v)
            types.append(ty)
        half = len(path) // 2
        middle = (path[half - 1], path[half], types[half - 1])
        chains.append((min(u.i for u in path[0::2]), tuple(path),
                       tuple(types), middle))
    assert sum(len(chain[1]) for chain in chains) == 2 * len(side1)
    chains.sort(key=lambda chain: chain[0])
    _, paths, edge_types, middles = zip(*chains)
    return paths, edge_types, middles, typed


def reference_graph(params):
    """The orbit graph's fields as built before the (n, k) rows: weights
    and vertices from orbit_weight, intervals profile by profile, and the
    same parameter checks."""
    k, s, l = params.k, params.s, params.l
    if s < 2 or l < 0:
        raise ParamsOutOfRange("orbit graph needs s >= 2 and l >= 0")
    profiles = range(s, k)
    weights = tuple(orbit_weight(i, params) for i in profiles)
    return SimpleNamespace(
        params=params, weights=weights,
        intervals=tuple((max(s, k - l - i), k + s - 1 - i) for i in profiles),
        side1=tuple(OrbitVertex(1, i, w) for i, w in zip(profiles, weights)),
        side2=tuple(OrbitVertex(2, i, w) for i, w in zip(profiles, weights)))


def reference_classify_edges(graph):
    """classify_edges as written before its families became aligned
    index ranges: a dict of (profile, profile) pairs, sorted."""
    params = graph.params
    k, s, l = params.k, params.s, params.l
    profiles = range(s, k)

    band_lo = -(-(k - l) // 2)  # ceil((k-l)/2)
    pairs = [((i, k + s - 1 - i), 1) for i in profiles]
    pairs += [((i, i), 2) for i in profiles
              if band_lo <= i and 2 * i < k + s - 1]
    if (k - l) % 2:
        # profile floor((k-l)/2) has no equal-profile edge; anchor there
        lo, hi = (k - l) // 2, -(-(k + s - 1) // 2)
    else:
        lo, hi = (k - l) // 2 - 1, (k + s - 1) // 2 + 1
    while lo in profiles and hi in profiles:
        pairs += [((lo, hi), 3), ((hi, lo), 3)]
        lo, hi = lo - 1, hi + 1
    typed = dict(pairs)
    if len(typed) != len(pairs):
        raise DecompositionViolation(
            f"typed edge families overlap for params {params}")

    side1, side2 = graph.side1, graph.side2
    out = []
    for (i, t), ty in sorted(typed.items()):
        lo, hi = graph.intervals[i - s]
        if not lo <= t <= hi:
            raise TypedEdgeNotInW(
                f"typed edge ({i}, {t}) of type {ty} is not a graph edge "
                f"for params {params}")
        out.append(TypedEdge(side1[i - s], side2[t - s], ty))
    return out


def reference_chains(params):
    """(paths, edge_types, middles, typed) by the chain walk as written
    before it read per-profile index arrays, on reference_graph."""
    graph = reference_graph(params)
    typed = tuple(reference_classify_edges(graph))
    s, side1, side2, m = params.s, graph.side1, graph.side2, len(graph.weights)

    # each vertex's mirror and type-2/3 edge, by side and profile - s
    mirror1, mirror2, other1, other2 = ([None] * m for _ in range(4))
    for e in typed:
        a, b = e.left.i - s, e.right.i - s
        at1, at2 = (mirror1, mirror2) if e.edge_type == 1 else (other1, other2)
        if at1[a] is not None or at2[b] is not None:
            v = e.left if at1[a] is not None else e.right
            raise DecompositionViolation(
                f"vertex {v.name()} has two typed edges of one kind",
                offending=v)
        at1[a] = at2[b] = e
    for side, at in ((side1, mirror1), (side2, mirror2)):
        if None in at:
            v = side[at.index(None)]
            raise DecompositionViolation(
                f"vertex {v.name()} has no mirror edge", offending=v)

    chains = []
    for v, e in zip(side1, other1):
        if e is not None:
            continue
        path, types = [v], []
        while True:
            w = mirror1[v.i - s].right
            path.append(w)
            types.append(1)
            e = other2[w.i - s]
            if e is None:
                break
            v = e.left
            path.append(v)
            types.append(e.edge_type)
        half = len(path) // 2
        middle = (path[half - 1], path[half], types[half - 1])
        chains.append((min(u.i for u in path[0::2]), tuple(path),
                       tuple(types), middle))
    if sum(len(c[1]) for c in chains) != 2 * m:
        on_path = {u for _, path, _, _ in chains for u in path}
        left_out = [u for u in side1 + side2 if u not in on_path]
        raise DecompositionViolation(
            f"vertices {[u.name() for u in left_out]} lie on no path",
            offending=left_out)

    chains.sort(key=itemgetter(0))
    _, paths, edge_types, middles = zip(*chains)
    return paths, edge_types, middles, typed


def reference_typed_edge_failures(typed, graph):
    """_typed_edge_failures as written before the rewrite."""
    s, mirror = graph.params.s, graph.params.k + graph.params.s - 1
    failures, types, intervals = [], {}, graph.intervals
    for left, right, ty in typed:
        i, t = left.i, right.i
        types[i, t] = ty
        lo, hi = intervals[i - s] if 0 <= i - s < len(intervals) else (1, 0)
        if not (lo <= t <= hi and left == graph.side1[i - s]
                and right == graph.side2[t - s]):
            failures.append(f"typed edge {left.name()}--{right.name()} "
                            f"is not an edge of the graph")
        elif ty != (1 if i + t == mirror else 2 if i == t else 3):
            failures.append(f"typed edge {left.name()}--{right.name()} "
                            f"does not have the form of type {ty}")
    return failures, types


def reference_validate(dec, graph):
    """validate_decomposition as written before the rewrite."""
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
    typed_failures, typed_lookup = reference_typed_edge_failures(dec.typed, graph)
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

    side_weight = sum(graph.weights)
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
               f"{len(dec.paths)} paths, all balanced",
    )


class TestPinnedToPreviousConstruction:
    """The index-array orbit layer against the code it replaced, on
    every triple of pinned_grid."""

    def test_graph_fields(self):
        for params in pinned_grid():
            g, ref = build_orbit_graph(params), reference_graph(params)
            assert (g.weights, g.intervals, g.side1, g.side2) == \
                (ref.weights, ref.intervals, ref.side1, ref.side2), params

    def test_typed_edges_and_paths(self):
        for params in pinned_grid():
            dec = build_chain_decomposition(params)
            assert classify_edges(dec.graph) == \
                reference_classify_edges(dec.graph), params
            assert (dec.paths, dec.edge_types, dec.middles, dec.typed) == \
                reference_chains(params), params

    def test_verdicts_on_valid_and_tampered_decompositions(self):
        for params in pinned_grid():
            dec = build_chain_decomposition(params)
            g, path = dec.graph, dec.paths[0]
            variants = [
                dec,
                replace(dec, paths=(path[::-1],) + dec.paths[1:]),
                replace(dec, typed=tuple(e._replace(edge_type=3)
                                         for e in dec.typed)),
                replace(dec, middles=dec.middles[::-1], edge_types=()),
                replace(dec, paths=((path[0]._replace(weight=1),)
                                    + path[1:],) + dec.paths[1:])]
            for tampered in variants:
                for graph in (g, build_orbit_graph(replace(params,
                                                           n=params.n + 1))):
                    got = validate_decomposition(tampered, graph)
                    want = reference_validate(tampered, graph)
                    assert (got.passed, got.detail, got.witness,
                            got.formula_value, got.oracle_value) == \
                        (want.passed, want.detail, want.witness,
                         want.formula_value, want.oracle_value), params

    def test_rejected_triples_raise_as_before(self):
        for params in pinned_grid(s_min=1, l_min=-1):
            raised = []
            for build in (build_chain_decomposition, reference_chains):
                try:
                    build(params)
                    raised.append(None)
                except CrossIntError as exc:
                    raised.append(type(exc))
            assert raised[0] == raised[1], params
            assert (raised[0] is None) == (params.s >= 2 and params.l >= 0)


class TestChainDecomposition:
    def test_9_4_2_single_balanced_path(self):
        dec = build_chain_decomposition(Params(9, 4, 2))
        assert len(dec.paths) == 1
        (path,) = dec.paths
        names = [v.name() for v in path]
        expected = ["C_3^2", "C_2^1", "C_2^2", "C_3^1"]
        assert names == expected or names == expected[::-1]
        assert [v.weight for v in path] == [20, 60, 60, 20]
        left, right, edge_type = dec.middles[0]
        assert edge_type == 2
        assert left.weight == right.weight == 60

    def test_7_3_2_two_vertex_path(self):
        dec = build_chain_decomposition(Params(7, 3, 2))
        (path,) = dec.paths
        assert [v.name() for v in path] == ["C_2^1", "C_2^2"]
        left, right, edge_type = dec.middles[0]
        assert edge_type == 1 and left.i == right.i  # fixed-point mirror edge

    def test_9_5_2_single_balanced_path(self):
        dec = build_chain_decomposition(Params(9, 5, 2))
        assert len(dec.paths) == 1
        (path,) = dec.paths
        assert [v.weight for v in path] == [20, 40, 60, 60, 40, 20]
        left, right, edge_type = dec.middles[0]
        assert edge_type == 1 and left.i == right.i == 3

    def test_paths_always_even_and_alternating(self):
        for params in small_graph_params():
            dec = build_chain_decomposition(params)
            for path, types in zip(dec.paths, dec.edge_types):
                assert len(path) % 2 == 0
                assert all(ty == 1 for ty in types[0::2])
                assert all(ty in (2, 3) for ty in types[1::2])
                sides = [v.side for v in path]
                assert all(a != b for a, b in zip(sides, sides[1:]))

    def test_paths_are_typed_components(self):
        # each path is a connected component of the typed edges, listed
        # from its side-1 end; paths ordered by least (side, profile)
        for params in small_graph_params():
            dec = build_chain_decomposition(params)
            adj = {}
            for e in dec.typed:
                adj.setdefault(e.left, []).append(e.right)
                adj.setdefault(e.right, []).append(e.left)
            components, seen = [], set()
            for v in sorted(adj, key=lambda u: (u.side, u.i)):
                if v in seen:
                    continue
                component, frontier = {v}, [v]
                while frontier:
                    for w in adj[frontier.pop()]:
                        if w not in component:
                            component.add(w)
                            frontier.append(w)
                seen |= component
                (end,) = [u for u in component
                          if u.side == 1 and len(adj[u]) == 1]
                walk = [end]
                while len(walk) < len(component):
                    walk.append(next(w for w in adj[walk[-1]]
                                     if w not in walk))
                components.append(tuple(walk))
            assert dec.paths == tuple(components), params

    def test_equals_reference_dict_walk(self):
        # every triple of the benchmark's orbit-sweep grid with k <= 20
        checked = 0
        for k in range(3, 21):
            for s in range(2, k):
                for l in range(0, 31):
                    params = Params(2 * k - s + 1 + l, k, s)
                    dec = build_chain_decomposition(params)
                    got = (dec.paths, dec.edge_types, dec.middles, dec.typed)
                    assert got == reference_decomposition(params), params
                    checked += 1
        assert checked == 5301

    def test_every_class_to_m_60_equals_reference_walk(self):
        # class (m, d) on its canonical triple s = 2, k = m + 2,
        # l = m - 2 - d; m = 1 has the one class d = 0, at l = 0
        checked = 0
        for m in range(1, 61):
            for d in range(max(1, m - 1)):
                l = max(0, m - 2 - d)
                params = Params(2 * m + 3 + l, m + 2, 2)
                dec = build_chain_decomposition(params)
                intervals = dec.graph.offset_intervals
                assert (len(intervals), intervals[0][0]) == (m, d)
                got = (dec.paths, dec.edge_types, dec.middles, dec.typed)
                assert got == reference_chains(params), (m, d)
                checked += 1
        assert checked == 1771

    # the raise tests feed the class walk its typed offset edges, with
    # one edge injected or left out
    def test_second_offset_edge_raises(self):
        # C_2^1 of (11, 6, 2) already has the offset edge C_2^1--C_4^2
        intervals = build_orbit_graph(Params(11, 6, 2)).offset_intervals
        typed = _typed_offsets(intervals) + [(0, 1, 3)]
        with pytest.raises(DecompositionViolation,
                           match="two typed edges") as err:
            _walk_chains(len(intervals), typed)
        assert err.value.offending == 0

    def test_typed_cycle_raises(self):
        # C_3^1--C_3^2 closes the (9, 4, 2) path into a four-cycle
        intervals = build_orbit_graph(Params(9, 4, 2)).offset_intervals
        typed = _typed_offsets(intervals) + [(1, 1, 3)]
        with pytest.raises(DecompositionViolation, match="on no path") as err:
            _walk_chains(len(intervals), typed)
        assert len(err.value.offending) == 4

    def test_missing_mirror_edge_raises(self):
        # C_2^1 of (9, 4, 2) is offset 0 on side 1
        intervals = build_orbit_graph(Params(9, 4, 2)).offset_intervals
        typed = [e for e in _typed_offsets(intervals) if e[::2] != (0, 1)]
        with pytest.raises(DecompositionViolation,
                           match=r"C_\{s\+0\}\^1 has no mirror edge") as err:
            _walk_chains(len(intervals), typed)
        assert err.value.offending == 0

    def test_validation_characterization(self):
        # the typed-edge construction balances every path, including the
        # triples with k-l odd and floor((k-l)/2) a meaningful profile,
        # where the offset edges anchor at that profile
        odd_anchor = 0
        for params in small_graph_params():
            g = build_orbit_graph(params)
            verdict = validate_decomposition(build_chain_decomposition(params), g)
            assert verdict.passed, (params, verdict.detail)
            k, s, l = params.k, params.s, params.l
            odd_anchor += (k - l) % 2 == 1 and (k - l) // 2 >= s
        assert odd_anchor > 0

    def test_validated_decompositions_sum_to_one_side(self):
        for params in small_graph_params(k_max=9):
            g = build_orbit_graph(params)
            dec = build_chain_decomposition(params)
            verdict = validate_decomposition(dec, g)
            if verdict.passed:
                assert verdict.oracle_value == \
                    size_extremal_family(params) - 1


class TestPathValidation:
    def test_reversed_weights_fail_monotonicity(self):
        path = (OrbitVertex(1, 3, 60), OrbitVertex(2, 2, 20),
                OrbitVertex(1, 2, 20), OrbitVertex(2, 3, 60))
        weights = [v.weight for v in path]
        failures = _path_failures(path, weights, (1, 2, 1),
                                  (path[1], path[2], 2), path_mwis(weights))
        assert any("monotone" in f for f in failures)
        assert any("MWIS" in f for f in failures)

    def test_tampered_decomposition_fails(self):
        params = Params(9, 4, 2)
        g = build_orbit_graph(params)
        dec = build_chain_decomposition(params)
        (path,) = dec.paths
        swapped = (path[1], path[0], path[3], path[2])
        tampered = replace(dec, paths=(swapped,))
        verdict = validate_decomposition(tampered, g)
        assert not verdict.passed
        assert verdict.witness == [
            "C_3^1--C_3^2 is not a typed edge of type 2",
            "stored middle edge does not sit at the path midpoint",
            "weights not monotone toward the middle: [60, 20, 20, 60]",
            "path MWIS 120 != half of total 160",
            "sum of path MWIS values 120 != one side's weight 80"]

    def test_carried_typed_edges_are_checked(self):
        # validation reads the typed edges the decomposition carries, so
        # relabelling them must fail the paths that use them
        params = Params(9, 4, 2)
        dec = build_chain_decomposition(params)
        relabelled = tuple(e._replace(edge_type=3) for e in dec.typed)
        tampered = replace(dec, typed=relabelled)
        assert validate_decomposition(dec, build_orbit_graph(params)).passed
        verdict = validate_decomposition(tampered, tampered.graph)
        assert not verdict.passed
        assert verdict.witness == [
            "typed edge C_2^1--C_2^2 does not have the form of type 3",
            "typed edge C_2^1--C_3^2 does not have the form of type 3",
            "typed edge C_3^1--C_2^2 does not have the form of type 3",
            "C_3^1--C_2^2 is not a typed edge of type 1",
            "C_2^2--C_2^1 is not a typed edge of type 2",
            "C_2^1--C_3^2 is not a typed edge of type 1"]

    def test_carried_non_edge_fails(self):
        # (3, 3) is not an edge of (9, 4, 2); carry it as the type-2 edge
        # and route the path through it
        params = Params(9, 4, 2)
        dec = build_chain_decomposition(params)
        g = dec.graph
        v2, v3 = g.side1
        w2, w3 = g.side2
        typed = tuple(e._replace(left=v3, right=w3) if e.edge_type == 2 else e
                      for e in dec.typed)
        tampered = replace(dec, paths=((v2, w3, v3, w2),), typed=typed,
                           middles=((w3, v3, 2),))
        verdict = validate_decomposition(tampered, g)
        assert not verdict.passed
        assert "typed edge C_3^1--C_3^2 is not an edge of the graph" in \
            verdict.witness
        assert verdict.witness == [
            "typed edge C_3^1--C_3^2 is not an edge of the graph",
            "weights not monotone toward the middle: [60, 20, 20, 60]",
            "path MWIS 120 != half of total 160",
            "sum of path MWIS values 120 != one side's weight 80"]

    def test_carried_type_must_match_its_form(self):
        # swap the labels of the equal-profile and offset edges of
        # (11, 6, 2) consistently in the typed edges and the path
        params = Params(11, 6, 2)
        dec = build_chain_decomposition(params)
        swap = {1: 1, 2: 3, 3: 2}
        tampered = replace(
            dec,
            typed=tuple(e._replace(edge_type=swap[e.edge_type])
                        for e in dec.typed),
            edge_types=tuple(tuple(swap[ty] for ty in types)
                             for types in dec.edge_types),
            middles=tuple((a, b, swap[ty]) for a, b, ty in dec.middles))
        assert validate_decomposition(dec, dec.graph).passed
        verdict = validate_decomposition(tampered, tampered.graph)
        assert not verdict.passed
        assert "typed edge C_3^1--C_3^2 does not have the form of type 3" \
            in verdict.witness
        assert verdict.witness == [
            "typed edge C_2^1--C_4^2 does not have the form of type 2",
            "typed edge C_3^1--C_3^2 does not have the form of type 3",
            "typed edge C_4^1--C_2^2 does not have the form of type 2",
            "middle edge C_3^2--C_3^1 has type 3 and is not a fixed-point "
            "mirror edge"]

    def test_another_graph_fails(self):
        # (10, 4, 2) has the profiles and edges of (9, 4, 2), not its weights
        dec = build_chain_decomposition(Params(9, 4, 2))
        verdict = validate_decomposition(dec, build_orbit_graph(Params(10, 4, 2)))
        assert not verdict.passed
        assert "decomposition was built for another graph" in verdict.witness
        assert verdict.witness == [
            "decomposition was built for another graph",
            "typed edge C_2^1--C_2^2 is not an edge of the graph",
            "typed edge C_2^1--C_3^2 is not an edge of the graph",
            "typed edge C_3^1--C_2^2 is not an edge of the graph",
            "C_3^1 carries weight 20, expected 24",
            "C_2^2 carries weight 60, expected 90",
            "C_2^1 carries weight 60, expected 90",
            "C_3^2 carries weight 20, expected 24",
            "sum of path MWIS values 80 != one side's weight 114"]

    def test_vertex_outside_the_profiles_fails(self):
        # profile 7 is outside {2, 3}: a failing verdict, not a raise
        params = Params(9, 4, 2)
        dec = build_chain_decomposition(params)
        (path,) = dec.paths
        tampered = replace(dec, paths=((OrbitVertex(1, 7, 20),) + path[1:],))
        verdict = validate_decomposition(tampered, dec.graph)
        assert not verdict.passed
        assert "C_7^1 is not a vertex of the graph" in verdict.witness
        assert verdict.witness == [
            "paths do not partition the vertex set",
            "C_7^1 is not a vertex of the graph",
            "C_7^1--C_2^2 is not a typed edge of type 1"]

    def test_vertex_weight_off_by_one_fails(self):
        params = Params(9, 4, 2)
        dec = build_chain_decomposition(params)
        (path,) = dec.paths
        heavier = path[1]._replace(weight=path[1].weight + 1)
        tampered = replace(dec, paths=(path[:1] + (heavier,) + path[2:],))
        verdict = validate_decomposition(tampered, dec.graph)
        assert not verdict.passed
        assert (f"{heavier.name()} carries weight {heavier.weight}, "
                f"expected {path[1].weight}") in verdict.witness
        assert verdict.witness == [
            "C_2^2 carries weight 61, expected 60",
            "stored middle edge does not sit at the path midpoint",
            "path MWIS 81 != half of total 161",
            "sum of path MWIS values 81 != one side's weight 80"]

    def test_missing_edge_types_fail(self):
        params = Params(9, 4, 2)
        dec = build_chain_decomposition(params)
        verdict = validate_decomposition(replace(dec, edge_types=()), dec.graph)
        assert not verdict.passed
        assert verdict.witness == [
            "1 paths, 0 edge type rows and 1 middles do not line up"]

    def test_missing_middles_with_reordered_path_fail(self):
        # C_3^1, C_2^1, C_2^2, C_3^2 puts two side-1 vertices in a row
        params = Params(9, 4, 2)
        dec = build_chain_decomposition(params)
        v2, v3 = dec.graph.side1
        w2, w3 = dec.graph.side2
        tampered = replace(dec, paths=((v3, v2, w2, w3),), middles=())
        verdict = validate_decomposition(tampered, dec.graph)
        assert not verdict.passed
        assert verdict.witness == [
            "1 paths, 1 edge type rows and 0 middles do not line up"]

    def test_same_side_step_fails(self):
        params = Params(9, 4, 2)
        dec = build_chain_decomposition(params)
        v2, v3 = dec.graph.side1
        w2, w3 = dec.graph.side2
        tampered = replace(dec, paths=((v3, v2, w2, w3),))
        verdict = validate_decomposition(tampered, dec.graph)
        assert not verdict.passed
        assert verdict.witness == [
            "C_3^1--C_2^1 is not a typed edge of type 1",
            "C_2^2--C_3^2 is not a typed edge of type 1",
            "stored middle edge does not sit at the path midpoint"]

    def test_extra_empty_path_fails(self):
        params = Params(9, 4, 2)
        dec = build_chain_decomposition(params)
        alone = replace(dec, paths=dec.paths + ((),))
        verdict = validate_decomposition(alone, dec.graph)
        assert not verdict.passed
        assert verdict.witness == [
            "2 paths, 1 edge type rows and 1 middles do not line up"]
        lined_up = replace(dec, paths=dec.paths + ((),),
                           edge_types=dec.edge_types + ((),),
                           middles=dec.middles + (dec.middles[0],))
        verdict = validate_decomposition(lined_up, dec.graph)
        assert not verdict.passed
        assert verdict.witness == ["path 1 has 0 vertices and 0 edge types"]

    def test_valid_decomposition_passes(self):
        params = Params(7, 3, 2)
        g = build_orbit_graph(params)
        verdict = validate_decomposition(build_chain_decomposition(params), g)
        assert verdict.passed
        assert verdict.oracle_value == 12  # single edge, equal weights


class TestPathMwis:
    def test_examples(self):
        assert path_mwis([20, 60, 60, 20]) == 80
        assert path_mwis([7]) == 7
        assert path_mwis([3, 11]) == 11

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            path_mwis([])

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=14))
    def test_matches_exhaustive(self, weights):
        best = max(
            sum(w for i, w in enumerate(weights) if picks >> i & 1)
            for picks in range(1 << len(weights))
            if not any(picks >> i & 3 == 3 for i in range(len(weights) - 1)))
        assert path_mwis(weights) == best


class TestSaturatingPathFlow:
    """lemma1's certificate: offset paths that carry a flow along graph
    edges saturating both sides, so the MWIS is one side's weight."""

    def test_chain_paths_certify_the_mwis(self):
        for params in small_graph_params():
            dec = build_chain_decomposition(params)
            graph = dec.graph
            assert _saturating_path_flow(graph, dec.offset_paths()), params
            assert sum(graph.weights) == max_weight_independent_set(
                graph.as_bipartite())[1], params

    #: (9, 4, 2): weights (60, 20), side 1 at positions 0 and 1, side 2
    #: at 2 and 3, edges 0-2, 0-3 and 1-2; its one chain path is PATH,
    #: with amounts 20, 40, 20 and then 20 at its last vertex.
    GRAPH = build_orbit_graph(Params(9, 4, 2))
    PATH = (1, 2, 0, 3)

    def test_holds_both_ways_along_the_path(self):
        for path in (self.PATH, self.PATH[::-1]):
            assert _saturating_path_flow(self.GRAPH, (path,))
            assert _flow_paths_fit(self.GRAPH.offset_intervals, (path,))
            assert _flow_amounts_hold(self.GRAPH, (path,))

    # each input fails exactly one condition: a class input the class
    # check alone, with amounts that hold along its paths, and a triple
    # input the amount check alone, on paths that fit the class
    @pytest.mark.parametrize("weights,paths,part", [
        pytest.param((60, 20), (PATH, ()), "class", id="extra empty path"),
        pytest.param((60, 20), (PATH, PATH), "class", id="repeated vertex"),
        pytest.param((60, 20), ((0, 2),), "class", id="vertices left out"),
        pytest.param((60, 20), ((1, 0, 2, 3),), "class",
                     id="same-side step on side 1"),
        pytest.param((20, 20), ((1, 2, 3, 0),), "class",
                     id="same-side step on side 2"),
        pytest.param((60, 20), ((1, 3, 0, 2),), "class",
                     id="step off the graph"),
        pytest.param((20, 60), ((3, 0, 2, 1),), "triple",
                     id="negative amount"),
        pytest.param((60, 20), ((1, 2, 0), (3,)), "triple",
                     id="last amount differs"),
    ])
    def test_fails_without_raising(self, weights, paths, part):
        graph = replace(self.GRAPH, weights=weights)
        fits = _flow_paths_fit(graph.offset_intervals, paths)
        holds = _flow_amounts_hold(graph, paths)
        assert (fits, holds) == ((False, True) if part == "class"
                                 else (True, False))
        assert _saturating_path_flow(graph, paths) is False


class TestBiregularity:
    def test_7_3_2_inner_pair(self):
        verdict = check_biregularity(Params(7, 3, 2), 2, 2)
        assert verdict.passed
        assert verdict.witness["degrees"] == ([6], [6])

    def test_9_4_2_cross_pair(self):
        verdict = check_biregularity(Params(9, 4, 2), 2, 3)
        assert verdict.passed
        assert verdict.witness["degrees"] == ([6], [18])
        # edge-count consistency between the two regular degrees
        sizes = verdict.witness["sizes"]
        assert sizes[0] * 6 == sizes[1] * 18

    def test_non_conflicting_pair_rejected(self):
        with pytest.raises(ValueError):
            check_biregularity(Params(9, 4, 2), 3, 3)

    def test_profile_range_enforced(self):
        with pytest.raises(IndexNotMeaningful):
            check_biregularity(Params(9, 4, 2), 2, 4)

    def test_cap_guard(self):
        with pytest.raises(EnumerationTooLarge):
            check_biregularity(Params(41, 20, 2), 10, 11, cap=10_000)

    def test_degrees_match_pair_scan(self):
        # every conflicting profile pair with n <= 11, against the degree
        # sets of a direct scan over all pairs of the two orbits
        pairs = 0
        for params in small_graph_params():
            if params.n > 11:
                continue
            s = params.s
            for i, t in sorted(build_orbit_graph(params).edges):
                orbit_i = orbitgraph._orbit_masks(params, i)
                orbit_t = orbitgraph._orbit_masks(params, t)
                deg_i = {sum((a & b).bit_count() < s for b in orbit_t)
                         for a in orbit_i}
                deg_t = {sum((a & b).bit_count() < s for a in orbit_i)
                         for b in orbit_t}
                verdict = check_biregularity(params, i, t)
                assert verdict.witness["degrees"] == (sorted(deg_i),
                                                      sorted(deg_t))
                assert verdict.passed
                pairs += 1
        assert pairs == 115

    def test_transposed_is_the_swapped_call(self):
        pairs = 0
        for params in small_graph_params():
            if params.n > 11:
                continue
            for i, t in build_orbit_graph(params).edges:
                assert orbitgraph._transposed(check_biregularity(
                    params, i, t)) == check_biregularity(params, t, i)
                pairs += 1
        assert pairs == 115

    @pytest.mark.parametrize("pair,tables", [((2, 2), 1), ((2, 3), 2)])
    def test_one_table_when_profiles_coincide(self, monkeypatch, pair, tables):
        rows, calls = orbitgraph._conflict_rows, []

        def counted(masks1, masks2, s):
            calls.append(len(masks1))
            return rows(masks1, masks2, s)

        monkeypatch.setattr(orbitgraph, "_conflict_rows", counted)
        assert check_biregularity(Params(9, 4, 2), *pair).passed
        assert len(calls) == tables


class TestDotOutput:
    def test_chains_9_4_2_styling(self):
        text = decomposition_to_dot(build_chain_decomposition(Params(9, 4, 2)))
        assert text.startswith("graph chains_n9_k4_s2 {")
        node_lines = [ln for ln in text.splitlines() if "label=" in ln]
        edge_lines = [ln for ln in text.splitlines() if " -- " in ln]
        assert len(node_lines) == 4
        assert len(edge_lines) == 3
        assert sum("style=bold" in ln for ln in edge_lines) == 1
        assert all("style=" in ln for ln in edge_lines)

    def test_graph_7_3_2_counts(self):
        text = graph_to_dot(build_orbit_graph(Params(7, 3, 2)))
        assert len([ln for ln in text.splitlines() if "label=" in ln]) == 2
        assert len([ln for ln in text.splitlines() if " -- " in ln]) == 1

    def test_byte_identical_across_calls(self):
        params = Params(11, 6, 2)
        assert graph_to_dot(build_orbit_graph(params)) == \
            graph_to_dot(build_orbit_graph(params))
        assert decomposition_to_dot(build_chain_decomposition(params)) == \
            decomposition_to_dot(build_chain_decomposition(params))

    def test_offset_edges_dashed(self):
        text = decomposition_to_dot(build_chain_decomposition(Params(11, 6, 2)))
        assert "style=dashed" in text
