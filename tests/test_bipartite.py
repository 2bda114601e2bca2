import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crossint import (FlowCertificateError, FlowNetwork, Params,
                      WeightedBipartiteGraph, bipartite, max_flow,
                      max_sum_nonempty_unreduced, max_weight_independent_set,
                      min_weight_vertex_cover, verify_theorem)
from crossint.bipartite import unit_weight_independent_set
from crossint.orbitgraph import build_orbit_graph

from conftest import dinic_cover, dinic_mwis, exhaustive_mwis, random_bipartite


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
        # caught by a raised check, not an assert that python -O strips:
        # no flow, and every vertex reached, so the cover is side 2
        monkeypatch.setattr(bipartite, "_cover_flow",
                            lambda rows, w1, w2: ([{}], [True, True], 1))
        with pytest.raises(FlowCertificateError):
            min_weight_vertex_cover(graph_3_2_4())

    def test_matches_dinic_on_large_weights(self, rng):
        # 0-12 vertices a side and weights up to 10**12, where the random
        # graphs of TestIndependentSet stop at 100; empty sides and
        # edgeless graphs included
        shapes = set()
        for _ in range(400):
            num1, num2 = rng.randint(0, 12), rng.randint(0, 12)
            top = rng.choice((1, 10, 10**6, 10**12))
            prob = rng.random()
            g = WeightedBipartiteGraph(
                tuple(((1, a), rng.randint(1, top)) for a in range(num1)),
                tuple(((2, b), rng.randint(1, top)) for b in range(num2)),
                tuple(((1, a), (2, b)) for a in range(num1)
                      for b in range(num2) if rng.random() < prob))
            assert min_weight_vertex_cover(g) == dinic_cover(g)
            assert max_weight_independent_set(g) == dinic_mwis(g)
            shapes.add((min(num1, num2) == 0, not g.edges))
        assert shapes == {(False, False), (False, True), (True, True)}

    def test_long_weighted_path_does_not_recurse(self):
        # the path of test_long_augmenting_path_does_not_recurse with
        # weight 10**12 + 1 on every vertex: the seed sends each row's
        # weight to its higher bit and leaves the last row's, and the one
        # augmenting path left re-routes all 1,500 rows
        n, w = 1500, 10**12 + 1
        rows = [3 << i for i in range(n - 1)] + [1 << (n - 1)]
        into, _, _ = bipartite._cover_flow(rows, [w] * n, [w] * n)
        assert into == [{b: w} for b in range(n)]
        g = WeightedBipartiteGraph(
            tuple(((1, a), w) for a in range(n)),
            tuple(((2, b), w) for b in range(n)),
            tuple(((1, a), (2, b)) for a in range(n) for b in (a, a + 1)
                  if rows[a] >> b & 1))
        assert min_weight_vertex_cover(g) == dinic_cover(g)

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
    return dinic_mwis(g)


def bitset_rows(num1, edges):
    return [sum(1 << b for x, b in edges if x == a) for a in range(num1)]


def unit_flow(rows, num2):
    """``_cover_flow`` on unit weights."""
    return bipartite._cover_flow(rows, [1] * len(rows), [1] * num2)


#: A unit-weight flow (a matching) and cut that fail exactly one clause
#: of the certificate, as (rows, num2, the ``_cover_flow`` result), with
#: the message that clause raises.  One edge a0-b0 unless named.
BAD_MATCHINGS = {
    "zero amount": ([1, 0], 1, ([{0: 0}], [False, True], 0),
                    "sends 0 to"),
    "mate not adjacent": ([1, 0], 1, ([{1: 1}], [False, False], 0),
                          "non-bit"),
    # edges a0-b0 and a0-b1: a0 sends to both
    "row over its weight": ([3], 2, ([{0: 1}, {0: 1}], [False], 0),
                            "row 0 sends 2 > weight 1"),
    # edges a0-b0 and a1-b0: both send to b0
    "mates disagree": ([1, 1], 1, ([{0: 1, 1: 1}], [False, False], 0),
                       "column 0 takes 2 > 1"),
    "edge left uncovered": ([1, 0], 1, ([{}], [True, True], 0),
                            "left uncovered"),
    "cover larger than matching": ([1, 0], 1, ([{}], [False, True], 0),
                                   "cover weight 1 != flow 0"),
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
        into, _, _ = unit_flow(rows, n)
        assert into == [{b: 1} for b in range(n)]
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
        into, _, _ = unit_flow(rows, 2)
        assert into == [{0: 1}, {1: 1}]
        value, chosen1, chosen2 = unit_weight_independent_set(rows, 2)
        assert value == 2
        chosen, _ = dinic_reference(2, 2, {(0, 0), (0, 1), (1, 1)})
        assert chosen == frozenset([(1, a) for a in chosen1]
                                   + [(2, b) for b in chosen2])

    @pytest.mark.parametrize("fake", sorted(BAD_MATCHINGS))
    def test_bad_matching_or_cover_raises(self, monkeypatch, fake):
        rows, num2, result, message = BAD_MATCHINGS[fake]
        monkeypatch.setattr(bipartite, "_cover_flow",
                            lambda rows, w1, w2: result)
        with pytest.raises(FlowCertificateError, match=message):
            unit_weight_independent_set(rows, num2)

    def test_bad_matching_raises_under_python_optimize(self):
        # python -O strips assert statements; the certificate must
        # survive, clause by clause
        script = (
            "from crossint import bipartite, FlowCertificateError\n"
            f"for rows, num2, result, _ in {list(BAD_MATCHINGS.values())!r}:\n"
            "    bipartite._cover_flow = lambda rows, w1, w2: result\n"
            "    try:\n"
            "        bipartite.unit_weight_independent_set(rows, num2)\n"
            "    except FlowCertificateError as exc:\n"
            "        print(exc)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bipartite.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        printed = done.stdout.splitlines()
        assert len(printed) == len(BAD_MATCHINGS)
        for line, (_, _, _, message) in zip(printed, BAD_MATCHINGS.values()):
            assert message in line


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
    """The number of pairs the greedy seed of ``_cover_flow`` makes on
    unit weights: each row in order takes its highest free side-2 bit."""
    free2, pairs = (1 << num2) - 1, 0
    for row in rows:
        if nb := row & free2:
            free2 ^= 1 << nb.bit_length() - 1
            pairs += 1
    return pairs


def oracle_graphs():
    """Every (rows, num2) that ``_cover_flow`` gets from the oracle on
    the deep-audit instances of the set-audit benchmark (verify and the
    reduction audit, C(n, k) <= 35, k 2..6) and on the eight instances of
    the verify-oracle benchmark, all with unit weights."""
    graphs = []
    solve = bipartite._cover_flow

    def recording(rows, w1, w2):
        assert set(w1) | set(w2) <= {1}
        graphs.append((list(rows), len(w2)))
        return solve(rows, w1, w2)

    audit = [Params(2 * k - s + 1 + l, k, s) for k in range(2, 7)
             for s in range(1, k) for l in range(10)
             if comb(2 * k - s + 1 + l, k) <= 35]
    verify = [Params(*t) for t in ((10, 4, 2), (11, 4, 2), (10, 5, 2),
                                   (11, 5, 2), (12, 5, 2), (11, 5, 3),
                                   (12, 5, 3), (12, 6, 3))]
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(bipartite, "_cover_flow", recording)
        for params in audit:
            verify_theorem(params)
            max_sum_nonempty_unreduced(params)
        for params in verify:
            verify_theorem(params)
    return len(audit), graphs


def matching_size(into):
    """The size of the matching a unit-weight ``_cover_flow`` returns,
    after asserting that every amount is 1 and that each row sends and
    each column takes at most once."""
    senders = [a for column in into for a in column]
    assert {x for column in into for x in column.values()} <= {1}
    assert len(set(senders)) == len(senders)
    assert all(len(column) <= 1 for column in into)
    return len(senders)


class TestAgainstLowestBitSeed:
    def test_oracle_graphs_match_reference(self):
        instances, graphs = oracle_graphs()
        # 2,845 audit graphs (33 from verify, 2,812 from the audit), 28
        # from the verify instances
        assert (instances, len(graphs)) == (15, 2873)
        for rows, num2 in graphs:
            into, reached1, reached2 = unit_flow(rows, num2)
            ref1, _, ref_reached1, ref_reached2 = \
                reference_hopcroft_karp(rows, num2)
            size = matching_size(into)
            assert size == sum(b >= 0 for b in ref1)
            assert reached1 == ref_reached1 and reached2 == ref_reached2
            # the traffic _cover_flow's docstring counts on: at most 7
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
        into, reached1, reached2 = unit_flow(rows, num2)
        ref1, _, ref_reached1, ref_reached2 = \
            reference_hopcroft_karp(rows, num2)
        size = matching_size(into)
        assert size == sum(b >= 0 for b in ref1) == num2
        assert reached1 == ref_reached1 and reached2 == ref_reached2
        value, chosen1, chosen2 = unit_weight_independent_set(rows, num2)
        edges = {(a, b) for a, row in enumerate(rows) for b in range(num2)
                 if row >> b & 1}
        chosen, weight = dinic_reference(len(rows), num2, edges)
        assert value == weight == num2
        assert chosen == frozenset([(1, a) for a in chosen1]
                                   + [(2, b) for b in chosen2])


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
