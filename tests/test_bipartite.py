import os
import random
import subprocess
import sys
from heapq import heappop, heappush
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crossint import (FlowCertificateError, FlowNetwork, Params,
                      WeightedBipartiteGraph, bipartite, max_flow,
                      max_sum_nonempty_unreduced, max_weight_independent_set,
                      min_weight_vertex_cover, verify_theorem)
from crossint.bipartite import (interval_independent_set,
                                unit_weight_independent_set)
from crossint.orbitgraph import build_orbit_graph

from conftest import (exhaustive_mwis, pinned_grid, random_bipartite,
                      small_graph_params)


def graph_3_2_4():
    # side1 = {a(3), b(2)}, side2 = {c(4)}, single edge a-c
    return WeightedBipartiteGraph((("a", 3), ("b", 2)), (("c", 4),),
                                  (("a", "c"),))


class TestMaxFlow:
    def test_series_bottleneck(self):
        net = FlowNetwork(("s", "a", "t"), (("s", "a", 3), ("a", "t", 2)),
                          "s", "t")
        value, cut = max_flow(net)
        assert value == 2
        assert cut == [("a", "t", 2)]

    def test_two_disjoint_unit_paths(self):
        net = FlowNetwork(
            ("s", "a", "b", "t"),
            (("s", "a", 1), ("s", "b", 1), ("a", "t", 1), ("b", "t", 1)),
            "s", "t")
        value, cut = max_flow(net)
        assert value == 2
        assert sum(c for _, _, c in cut) == 2

    def test_cover_network_9_4_2(self):
        # the flow value behind the (9,4,2) vertex-cover computation
        _, weight = min_weight_vertex_cover(
            build_orbit_graph(Params(9, 4, 2)).as_bipartite())
        assert weight == 80

    def test_long_path_does_not_recurse(self):
        # 1,500 nodes in series: deeper than Python's default recursion limit
        nodes = tuple(range(1500))
        arcs = tuple((v, v + 1, 1) for v in nodes[:-1])
        value, cut = max_flow(FlowNetwork(nodes, arcs, 0, 1499))
        assert value == 1 and cut == [(0, 1, 1)]

    def test_rejects_bad_networks(self):
        with pytest.raises(ValueError):
            FlowNetwork(("s",), (), "s", "t")
        with pytest.raises(ValueError):
            FlowNetwork(("s", "t"), (), "s", "s")
        with pytest.raises(ValueError):
            FlowNetwork(("s", "t"), (("s", "x", 1),), "s", "t")
        with pytest.raises(ValueError):
            FlowNetwork(("s", "t"), (("s", "t", -1),), "s", "t")
        with pytest.raises(ValueError):
            FlowNetwork(("s", "t"), (("s", "t", 1.5),), "s", "t")


class TestVertexCover:
    def test_small_example_vs_exhaustive(self):
        g = graph_3_2_4()
        cover, weight = min_weight_vertex_cover(g)
        assert cover == frozenset({"a"}) and weight == 3
        # exhaustive audit over all 8 vertex subsets
        weights = {"a": 3, "b": 2, "c": 4}
        best = min(
            sum(weights[v] for v in subset)
            for subset in ({"a"}, {"c"}, {"a", "b"}, {"a", "c"}, {"b", "c"},
                           {"a", "b", "c"})
            if all(u in subset or v in subset for u, v in g.edges))
        assert weight == best

    def test_edgeless(self):
        g = WeightedBipartiteGraph((("a", 3),), (("b", 2),), ())
        assert min_weight_vertex_cover(g) == (frozenset(), 0)

    def test_orbit_graph_9_4_2_vs_exhaustive(self):
        g = build_orbit_graph(Params(9, 4, 2)).as_bipartite()
        cover, weight = min_weight_vertex_cover(g)
        assert weight == 80
        labels = [v for v, _ in g.side1 + g.side2]
        weights = dict(g.side1) | dict(g.side2)
        best = min(
            sum(weights[v] for b, v in enumerate(labels) if picks >> b & 1)
            for picks in range(1 << len(labels))
            if all(any(picks >> labels.index(u) & 1 for u in edge)
                   for edge in g.edges))
        assert weight == best

    def test_bad_cut_raises_certificate_error(self, monkeypatch):
        # a cover whose weight disagrees with the flow value must be
        # caught by a raised check, not an assert that python -O strips
        monkeypatch.setattr(bipartite, "_max_flow",
                            lambda num_nodes, arcs, src, dst:
                            (0, [True] * num_nodes))
        with pytest.raises(FlowCertificateError):
            min_weight_vertex_cover(graph_3_2_4())

    def test_deterministic(self):
        g = build_orbit_graph(Params(11, 5, 2)).as_bipartite()
        assert min_weight_vertex_cover(g) == min_weight_vertex_cover(g)


class TestIndependentSet:
    def test_small_example(self):
        chosen, weight = max_weight_independent_set(graph_3_2_4())
        assert chosen == frozenset({"b", "c"}) and weight == 6

    def test_orbit_graph_7_3_2(self):
        _, weight = max_weight_independent_set(
            build_orbit_graph(Params(7, 3, 2)).as_bipartite())
        assert weight == 12

    def test_orbit_graph_9_4_2(self):
        # MWIS and the minimum cover tie at 80 on the balanced graph
        g = build_orbit_graph(Params(9, 4, 2)).as_bipartite()
        _, weight = max_weight_independent_set(g)
        assert weight == 80
        cover, cover_weight = min_weight_vertex_cover(g)
        assert cover_weight == 80
        assert all(u in cover or v in cover for u, v in g.edges)

    def test_duality_and_exhaustive_on_random_graphs(self, rng):
        for _ in range(120):
            side1, side2, edges = random_bipartite(rng, max_vertices=12)
            g = WeightedBipartiteGraph(side1, side2, edges)
            chosen, weight = max_weight_independent_set(g)
            _, cover_weight = min_weight_vertex_cover(g)
            assert weight + cover_weight == g.total_weight()
            assert weight == exhaustive_mwis(side1, side2, edges)
            assert all(u not in chosen or v not in chosen for u, v in edges)


@st.composite
def unit_graphs(draw):
    """(num1, num2, edges): sides of up to 9 vertices, possibly empty,
    with any edge subset, so isolated vertices and edgeless graphs occur."""
    num1 = draw(st.integers(0, 9))
    num2 = draw(st.integers(0, 9))
    pairs = [(a, b) for a in range(num1) for b in range(num2)]
    return num1, num2, draw(st.sets(st.sampled_from(pairs))
                            if pairs else st.just(set()))


def dinic_reference(num1, num2, edges):
    g = WeightedBipartiteGraph(tuple(((1, a), 1) for a in range(num1)),
                               tuple(((2, b), 1) for b in range(num2)),
                               tuple(((1, a), (2, b)) for a, b in sorted(edges)))
    return max_weight_independent_set(g)


def bitset_rows(num1, edges):
    return [sum(1 << b for x, b in edges if x == a) for a in range(num1)]


#: A matching or König cover that fails exactly one part of its
#: certificate, for rows [1, 0] (one edge, a0-b0) and one side-2 vertex,
#: with the message that part raises.
BAD_MATCHINGS = {
    "mates disagree": (([0, -1], [-1], [False, True], 0),
                       "not mated back"),
    "mate not adjacent": (([-1, 0], [1], [False, True], 0),
                          "not a bit of its row"),
    "edge left uncovered": (([-1, -1], [-1], [True, True], 0),
                            "left uncovered"),
    "cover larger than matching": (([-1, -1], [-1], [False, True], 0),
                                   "cover size differs"),
}


class TestUnitWeightIndependentSet:
    @given(unit_graphs())
    @example((3, 2, set()))
    @example((4, 3, {(0, 0), (1, 0), (1, 1)}))
    @example((3, 4, {(a, b) for a in range(3) for b in range(4)}))
    def test_matches_dinic_reference(self, graph):
        num1, num2, edges = graph
        value, chosen1, chosen2 = unit_weight_independent_set(
            bitset_rows(num1, edges), num2)
        chosen, weight = dinic_reference(num1, num2, edges)
        assert value == weight == len(chosen1) + len(chosen2)
        assert chosen == frozenset([(1, a) for a in chosen1]
                                   + [(2, b) for b in chosen2])

    def test_long_augmenting_path_does_not_recurse(self):
        # a_i - b_i and a_i - b_(i+1), with b_j at bit j so that the
        # highest bit of row i is b_(i+1): the greedy seed leaves a_(n-1)
        # free, and the one augmenting path left runs through all 1,500
        # vertices of each side, re-routing every a_i to b_i
        n = 1500
        rows = [3 << i for i in range(n - 1)] + [1 << (n - 1)]
        mate1, _, _, _ = bipartite._max_matching(rows, n)
        assert mate1 == list(range(n))
        value, chosen1, chosen2 = unit_weight_independent_set(rows, n)
        assert value == n
        edges = {(a, b) for a, row in enumerate(rows) for b in range(n)
                 if row >> b & 1}
        chosen, _ = dinic_reference(n, n, edges)
        assert chosen == frozenset([(1, a) for a in chosen1]
                                   + [(2, b) for b in chosen2])

    def test_augments_past_a_non_maximum_seed(self):
        # the seed matches a_0 - b_1 and leaves a_1, adjacent to b_1 only,
        # free; an augmenting search must re-route a_0 to b_0
        rows = [0b11, 0b10]
        mate1, mate2, _, _ = bipartite._max_matching(rows, 2)
        assert mate1 == [0, 1] and mate2 == [0, 1]
        value, chosen1, chosen2 = unit_weight_independent_set(rows, 2)
        assert value == 2
        chosen, _ = dinic_reference(2, 2, {(0, 0), (0, 1), (1, 1)})
        assert chosen == frozenset([(1, a) for a in chosen1]
                                   + [(2, b) for b in chosen2])

    @pytest.mark.parametrize("fake", sorted(BAD_MATCHINGS))
    def test_bad_matching_or_cover_raises(self, monkeypatch, fake):
        result, message = BAD_MATCHINGS[fake]
        monkeypatch.setattr(bipartite, "_max_matching",
                            lambda rows, num2: result)
        with pytest.raises(FlowCertificateError, match=message):
            unit_weight_independent_set([1, 0], 1)

    def test_bad_matching_raises_under_python_optimize(self):
        # python -O strips assert statements; the certificate must survive
        script = (
            "from crossint import bipartite, FlowCertificateError\n"
            "bipartite._max_matching = lambda rows, num2: "
            f"{BAD_MATCHINGS['cover larger than matching'][0]!r}\n"
            "try:\n"
            "    bipartite.unit_weight_independent_set([1, 0], 1)\n"
            "except FlowCertificateError:\n"
            "    print('raised')\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bipartite.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "raised\n"


def reference_hopcroft_karp(rows, num2):
    """The oracle's Hopcroft-Karp matching as it stood before its seed and
    DFS step took the highest free bit (and before one breadth-first
    augmenting search replaced its phases): each row in order takes its
    lowest free side-2 bit, and so does each DFS step."""
    num1 = len(rows)
    mate1, mate2 = [-1] * num1, [-1] * num2
    full2 = free2 = (1 << num2) - 1
    for a, row in enumerate(rows):
        if nb := row & free2:
            b = (nb & -nb).bit_length() - 1
            mate1[a], mate2[b] = b, a
            free2 ^= 1 << b
    while True:
        dist = [-1] * num1
        queue = [a for a in range(num1) if mate1[a] < 0]
        for a in queue:
            dist[a] = 0
        layer = [0] * (num1 + 1)
        unseen = full2
        limit = -1  # layer of the shortest augmenting paths, once seen
        for a in queue:  # the loop also visits vertices appended below
            d = dist[a]
            if d > limit >= 0:
                break
            nb = rows[a] & unseen
            unseen ^= nb
            if nb & free2:
                limit = d
                nb ^= nb & free2
            layer[d + 1] |= nb
            while nb:
                low = nb & -nb
                nb ^= low
                c = mate2[low.bit_length() - 1]
                dist[c] = d + 1
                queue.append(c)
        if limit < 0:
            break
        # ``stack`` holds the path's side-1 vertices, stack[j] on layer j,
        # and ``via[j]`` the side-2 vertex between stack[j] and stack[j+1];
        # dead vertices get dist -1.
        for root in range(num1):
            if dist[root] != 0:
                continue
            stack, via = [root], []
            while stack:
                a = stack[-1]
                d = len(stack) - 1
                nb = rows[a] & (free2 if d == limit else layer[d + 1])
                if not nb:
                    dist[a] = -1
                    stack.pop()
                    if via:
                        layer[d] ^= 1 << via.pop()
                    continue
                b = (nb & -nb).bit_length() - 1
                via.append(b)
                if d < limit:
                    stack.append(mate2[b])
                    continue
                # via[j] leaves layer j+1, its old mate's; the last is free
                for j, (x, y) in enumerate(zip(stack, via)):
                    mate1[x], mate2[y] = y, x
                    dist[x] = -1
                    if j < limit:
                        layer[j + 1] ^= 1 << y
                free2 ^= 1 << b
                break
    # The last BFS ran to the end, so the side-2 vertices it met are the
    # union of the reached rows.
    return mate1, mate2, [d >= 0 for d in dist], full2 ^ unseen


def far_end_seed_size(rows, num2):
    """The number of pairs the greedy seed of ``_max_matching`` makes:
    each row in order takes its highest free side-2 bit."""
    free2, pairs = (1 << num2) - 1, 0
    for row in rows:
        if nb := row & free2:
            free2 ^= 1 << nb.bit_length() - 1
            pairs += 1
    return pairs


def oracle_graphs():
    """Every (rows, num2) that ``_max_matching`` gets from the oracle on
    the deep-audit instances of the set-audit benchmark (verify and the
    reduction audit, C(n, k) <= 35, k 2..6) and on the eight instances of
    the verify-oracle benchmark."""
    graphs = []
    solve = bipartite._max_matching

    def recording(rows, num2):
        graphs.append((list(rows), num2))
        return solve(rows, num2)

    audit = [Params(2 * k - s + 1 + l, k, s) for k in range(2, 7)
             for s in range(1, k) for l in range(10)
             if comb(2 * k - s + 1 + l, k) <= 35]
    verify = [Params(*t) for t in ((10, 4, 2), (11, 4, 2), (10, 5, 2),
                                   (11, 5, 2), (12, 5, 2), (11, 5, 3),
                                   (12, 5, 3), (12, 6, 3))]
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(bipartite, "_max_matching", recording)
        for params in audit:
            verify_theorem(params)
            max_sum_nonempty_unreduced(params)
        for params in verify:
            verify_theorem(params)
    return len(audit), graphs


class TestAgainstLowestBitSeed:
    def test_oracle_graphs_match_reference(self):
        instances, graphs = oracle_graphs()
        # 2,845 audit graphs (33 from verify, 2,812 from the audit), 28
        # from the verify instances
        assert (instances, len(graphs)) == (15, 2873)
        for rows, num2 in graphs:
            mate1, mate2, reached1, reached2 = \
                bipartite._max_matching(rows, num2)
            ref1, _, ref_reached1, ref_reached2 = \
                reference_hopcroft_karp(rows, num2)
            size = sum(b >= 0 for b in mate1)
            assert size == sum(b >= 0 for b in ref1)
            assert size == sum(a >= 0 for a in mate2)
            assert reached1 == ref_reached1 and reached2 == ref_reached2
            # the traffic _max_matching's docstring counts on: at most 7
            # augmenting searches past the far-end seed
            assert size - far_end_seed_size(rows, num2) <= 7

    def test_seed_that_leaves_many_rows_free(self):
        # rows 0b11 << 2i and 0b10 << 2i, 300 copies: the seed matches
        # each first row to its high bit and leaves each second row free,
        # so every copy needs one augmenting search
        copies = 300
        rows = [r << 2 * i for i in range(copies) for r in (0b11, 0b10)]
        num2 = 2 * copies
        assert far_end_seed_size(rows, num2) == copies
        mate1, mate2, reached1, reached2 = bipartite._max_matching(rows, num2)
        ref1, _, ref_reached1, ref_reached2 = \
            reference_hopcroft_karp(rows, num2)
        size = sum(b >= 0 for b in mate1)
        assert size == sum(b >= 0 for b in ref1) == num2
        assert size == sum(a >= 0 for a in mate2)
        assert reached1 == ref_reached1 and reached2 == ref_reached2
        value, chosen1, chosen2 = unit_weight_independent_set(rows, num2)
        edges = {(a, b) for a, row in enumerate(rows) for b in range(num2)
                 if row >> b & 1}
        chosen, weight = dinic_reference(len(rows), num2, edges)
        assert value == weight == num2
        assert chosen == frozenset([(1, a) for a in chosen1]
                                   + [(2, b) for b in chosen2])


@st.composite
def interval_graphs(draw):
    """(weights1, weights2, intervals): sides of 1 to 8 vertices, side-1
    vertex a adjacent to the side-2 indices lo..hi of intervals[a].  Both
    ends are non-increasing in a, as in the orbit graph, unless the draw
    leaves them unsorted; lo > hi leaves a vertex isolated."""
    num1 = draw(st.integers(1, 8))
    num2 = draw(st.integers(1, 8))
    weight = st.integers(1, 60)
    weights1 = draw(st.lists(weight, min_size=num1, max_size=num1))
    weights2 = draw(st.lists(weight, min_size=num2, max_size=num2))
    ends = st.lists(st.integers(0, num2 - 1), min_size=num1, max_size=num1)
    los, his = draw(ends), draw(ends)
    if draw(st.booleans()):
        los, his = sorted(los, reverse=True), sorted(his, reverse=True)
    return weights1, weights2, list(zip(los, his))


def interval_reference(weights1, weights2, intervals):
    g = WeightedBipartiteGraph(
        tuple(((1, a), w) for a, w in enumerate(weights1)),
        tuple(((2, b), w) for b, w in enumerate(weights2)),
        tuple(((1, a), (2, b)) for a, (lo, hi) in enumerate(intervals)
              for b in range(lo, hi + 1)))
    return max_weight_independent_set(g)


def reference_greedy(weights1, weights2, intervals):
    """_earliest_deadline_flow as written before its sorted start list:
    a by_lo index order and senders kept for every arc."""
    num1, num2 = len(weights1), len(weights2)
    supply = list(weights1)
    by_lo = sorted(range(num1), key=lambda a: intervals[a][0])
    active, nxt = [], 0  # heap of (right end, a) with lo <= current b
    flow, senders = [], [[] for _ in range(num2)]
    for b in range(num2):
        while nxt < num1 and intervals[by_lo[nxt]][0] <= b:
            a = by_lo[nxt]
            nxt += 1
            if supply[a]:
                heappush(active, (intervals[a][1], a))
        room = weights2[b]
        while room and active:
            hi, a = active[0]
            if hi < b:
                heappop(active)
                continue
            sent = min(room, supply[a])
            flow.append((a, b, sent))
            senders[b].append(a)
            room -= sent
            supply[a] -= sent
            if not supply[a]:
                heappop(active)

    # Residual arcs: source -> a while a has supply left, a -> b on every
    # edge, and b -> a back along each arc that carries flow.
    reached1 = [x > 0 for x in supply]
    reached2 = [False] * num2
    queue = [a for a in range(num1) if reached1[a]]
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


def reference_interval_independent_set(weights1, weights2, intervals):
    """interval_independent_set as written before its checks moved to
    builtins, on reference_greedy."""
    num1, num2 = len(weights1), len(weights2)
    if len(intervals) != num1:
        raise ValueError("need one interval per side-1 vertex")
    if any(w <= 0 for w in weights1) or any(w <= 0 for w in weights2):
        raise ValueError("weights must be positive")
    if any(lo <= hi and not 0 <= lo <= hi < num2 for lo, hi in intervals):
        raise ValueError(f"an interval leaves the side-2 indices 0..{num2 - 1}")
    flow, reached1, reached2 = reference_greedy(weights1, weights2, intervals)
    out, into = [0] * num1, [0] * num2
    for a, b, sent in flow:
        lo, hi = intervals[a]
        if not (sent > 0 and lo <= b <= hi):
            raise FlowCertificateError(f"flow {sent} on ({a}, {b}), not a "
                                       f"graph edge with positive flow")
        out[a] += sent
        into[b] += sent
    if any(x > w for x, w in zip(out, weights1)) or \
            any(x > w for x, w in zip(into, weights2)):
        raise FlowCertificateError("flow exceeds a vertex weight")
    for a, (lo, hi) in enumerate(intervals):
        if reached1[a] and lo <= hi and not all(reached2[lo:hi + 1]):
            raise FlowCertificateError(f"an edge at side-1 vertex {a} is "
                                       f"left uncovered")
    value = sum(out)
    cover = (sum(w for w, r in zip(weights1, reached1) if not r)
             + sum(w for w, r in zip(weights2, reached2) if r))
    if cover != value:
        raise FlowCertificateError(f"cover weight {cover} differs from "
                                   f"flow {value}")
    chosen1 = [a for a, r in enumerate(reached1) if r]
    chosen2 = [b for b, r in enumerate(reached2) if not r]
    return sum(weights1) + sum(weights2) - value, chosen1, chosen2


#: Greedy results for weights1 [2], weights2 [3, 1] and the single
#: interval (0, 0), each failing exactly one part of the certificate.
BAD_GREEDY = {
    "flow above a weight": ([(0, 0, 3)], [True], [True, False]),
    "flow off the graph": ([(0, 0, 1), (0, 1, 1)], [False], [False, False]),
    "edge left uncovered": ([(0, 0, 1)], [True], [False, True]),
    "cover weight differs from flow": ([(0, 0, 1)], [False], [False, False]),
}


class TestIntervalIndependentSet:
    def test_orbit_graphs_match_dinic(self):
        # the lemma1 certificate's route: the greedy on the graph's weights
        # and its profile intervals shifted to side-2 indices
        for params in small_graph_params():
            graph, s = build_orbit_graph(params), params.s
            value, chosen1, chosen2 = interval_independent_set(
                graph.weights, graph.weights,
                [(lo - s, hi - s) for lo, hi in graph.intervals])
            chosen = frozenset([(1, a + s) for a in chosen1]
                               + [(2, b + s) for b in chosen2])
            assert (chosen, value) == \
                max_weight_independent_set(graph.as_bipartite()), params

    @given(interval_graphs())
    @example(([5], [7], [(0, 0)]))
    @example(([4], [9], [(0, -1)]))
    @example(([3, 1, 4], [1, 5, 9, 2], [(0, 3)] * 3))
    @example(([2, 7, 1], [8, 2, 8], [(2, 2), (1, 2), (0, 0)]))
    def test_matches_dinic_reference(self, graph):
        weights1, weights2, intervals = graph
        value, chosen1, chosen2 = interval_independent_set(*graph)
        chosen, weight = interval_reference(*graph)
        assert value == weight
        assert value == (sum(weights1[a] for a in chosen1)
                         + sum(weights2[b] for b in chosen2))
        assert chosen == frozenset([(1, a) for a in chosen1]
                                   + [(2, b) for b in chosen2])

    @given(interval_graphs())
    def test_matches_previous_implementation(self, graph):
        assert bipartite._earliest_deadline_flow(*graph) == \
            reference_greedy(*graph)
        assert interval_independent_set(*graph) == \
            reference_interval_independent_set(*graph)

    def test_orbit_graphs_match_previous_implementation(self):
        for params in pinned_grid():
            graph, s = build_orbit_graph(params), params.s
            shifted = (graph.weights, graph.weights,
                       [(lo - s, hi - s) for lo, hi in graph.intervals])
            assert bipartite._earliest_deadline_flow(*shifted) == \
                reference_greedy(*shifted), params
            assert interval_independent_set(*shifted) == \
                reference_interval_independent_set(*shifted), params

    @pytest.mark.parametrize("bad", [
        ([1], [1], []), ([0], [1], [(0, 0)]), ([1], [-2], [(0, 0)]),
        ([1], [1], [(0, 1)]), ([1], [1], [(-1, 0)]), ([1], [], [(0, 0)])])
    def test_bad_input_raises_as_before(self, bad):
        raised = []
        for solve in (interval_independent_set,
                      reference_interval_independent_set):
            with pytest.raises(ValueError) as err:
                solve(*bad)
            raised.append(str(err.value))
        assert raised[0] == raised[1]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            interval_independent_set([1], [1], [])
        with pytest.raises(ValueError):
            interval_independent_set([0], [1], [(0, 0)])
        with pytest.raises(ValueError):
            interval_independent_set([1], [1], [(0, 1)])

    @pytest.mark.parametrize("fake", sorted(BAD_GREEDY))
    def test_bad_greedy_raises(self, monkeypatch, fake):
        monkeypatch.setattr(bipartite, "_earliest_deadline_flow",
                            lambda w1, w2, intervals: BAD_GREEDY[fake])
        with pytest.raises(FlowCertificateError):
            interval_independent_set([2], [3, 1], [(0, 0)])

    def test_bad_greedy_raises_under_python_optimize(self):
        script = (
            "from crossint import bipartite, FlowCertificateError\n"
            "bipartite._earliest_deadline_flow = lambda w1, w2, intervals: "
            f"{BAD_GREEDY['cover weight differs from flow']!r}\n"
            "try:\n"
            "    bipartite.interval_independent_set([2], [3, 1], [(0, 0)])\n"
            "except FlowCertificateError:\n"
            "    print('raised')\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bipartite.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "raised\n"


class TestGraphValidation:
    def test_rejects_bad_graphs(self):
        with pytest.raises(ValueError):
            WeightedBipartiteGraph((("a", 1), ("a", 2)), (("b", 1),), ())
        with pytest.raises(ValueError):
            WeightedBipartiteGraph((("a", 1),), (("a", 1),), ())
        with pytest.raises(ValueError):
            WeightedBipartiteGraph((("a", 0),), (("b", 1),), ())
        with pytest.raises(ValueError):
            WeightedBipartiteGraph((("a", 1),), (("b", 1),),
                                   (("a", "b"), ("a", "b")))
        with pytest.raises(ValueError):
            WeightedBipartiteGraph((("a", 1),), (("b", 1),), (("b", "a"),))
