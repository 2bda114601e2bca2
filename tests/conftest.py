"""Shared brute-force oracles and generators for the test suite."""

import random
from dataclasses import replace
from itertools import combinations

import pytest

from crossint import (Family, FlowNetwork, KSet, Params,
                      build_extremal_family, is_s_cross_intersecting,
                      max_flow, sweep)


def exhaustive_mwis(side1, side2, edges):
    """Exact MWIS weight of a bipartite graph by complete enumeration.

    Enumerates every subset of the smaller side; the best completion on
    the other side is all vertices with no chosen neighbor.  Independent
    of the flow construction.
    """
    if len(side1) > len(side2):
        side1, side2 = side2, side1
        edges = [(v, u) for u, v in edges]
    labels1 = [v for v, _ in side1]
    weights1 = [w for _, w in side1]
    index1 = {v: i for i, v in enumerate(labels1)}
    total2 = sum(w for _, w in side2)
    blocked_by = []
    for v, w in side2:
        mask = 0
        for a, b in edges:
            if b == v:
                mask |= 1 << index1[a]
        blocked_by.append((mask, w))
    best = 0
    for subset in range(1 << len(labels1)):
        value = sum(w for i, w in enumerate(weights1) if subset >> i & 1)
        value += total2 - sum(w for mask, w in blocked_by if mask & subset)
        best = max(best, value)
    return best


def dinic_cover(g):
    """A minimum-weight vertex cover of ``g`` and its weight, read off the
    minimum cut that Dinic (the public ``max_flow``) returns on the cover
    network.  The source sends each side-1 vertex its weight and each
    side-2 vertex sends the sink its weight; the middle arcs have
    capacity total+1, so they are never cut.  Independent of the bitset
    search behind ``min_weight_vertex_cover``.
    """
    big = g.total_weight() + 1
    arcs = ([("s", (1, v), w) for v, w in g.side1]
            + [((2, v), "t", w) for v, w in g.side2]
            + [((1, u), (2, v), big) for u, v in g.edges])
    nodes = ["s", "t"] + [(1, v) for v, _ in g.side1] + \
        [(2, v) for v, _ in g.side2]
    value, cut = max_flow(FlowNetwork(tuple(nodes), tuple(arcs), "s", "t"))
    assert all(u == "s" or v == "t" for u, v, _ in cut), "middle arc cut"
    return frozenset(v[1] if u == "s" else u[1] for u, v, _ in cut), value


def dinic_mwis(g):
    """A maximum-weight independent set of ``g`` and its weight: the
    complement of ``dinic_cover``."""
    cover, weight = dinic_cover(g)
    return (frozenset(v for v, _ in g.side1 + g.side2 if v not in cover),
            g.total_weight() - weight)


def random_bipartite(rng: random.Random, max_vertices=20, max_weight=100):
    """A random weighted bipartite graph with at most max_vertices vertices."""
    n1 = rng.randint(1, max_vertices - 1)
    n2 = rng.randint(1, max_vertices - n1)
    side1 = tuple((f"u{i}", rng.randint(1, max_weight)) for i in range(n1))
    side2 = tuple((f"v{j}", rng.randint(1, max_weight)) for j in range(n2))
    prob = rng.random()
    edges = tuple((f"u{i}", f"v{j}") for i in range(n1) for j in range(n2)
                  if rng.random() < prob)
    return side1, side2, edges


def pinned_grid(s_min=2, l_min=0):
    """The k 3:16 x s 2:15 x l 0:16 triples on which the index-array
    orbit layer is pinned to the construction it replaced; a lower s_min
    or l_min adds triples that the orbit graph rejects."""
    return [Params(2 * k - s + 1 + l, k, s) for k in range(3, 17)
            for s in range(s_min, min(k, 16)) for l in range(l_min, 17)]


def small_graph_params(k_max=12, l_max=8):
    """Valid parameter triples with s >= 2 for orbit-graph sweeps."""
    out = []
    for k in range(3, k_max + 1):
        for s in range(2, k):
            for l in range(0, l_max + 1):
                out.append(Params(2 * k - s + 1 + l, k, s))
    return out


def break_chain_decompositions(monkeypatch):
    """Make the sweep validate broken decompositions: the first two
    vertices of the first path swap places, so a same-side pair becomes
    consecutive and the path can no longer pass validation."""
    decompose = sweep._decompose

    def broken(graph):
        dec = decompose(graph)
        path = dec.paths[0]
        swapped = (path[1], path[0]) + path[2:]
        return replace(dec, paths=(swapped,) + dec.paths[1:])

    monkeypatch.setattr(sweep, "_decompose", broken)


def random_cross_pair(rng: random.Random, n, k, s):
    """A guaranteed s-cross-intersecting pair of nonempty families.

    Either both families live inside the extremal family with one side
    pinned to the base set, or every member of both contains a fixed
    common s-subset.
    """
    params = Params(n, k, s)
    if rng.random() < 0.5:
        pool = list(build_extremal_family(params).members)
        f1 = Family(rng.sample(pool, rng.randint(1, min(8, len(pool)))),
                    n=n, k=k)
        f2 = Family([params.base_set()], n=n, k=k)
    else:
        core = rng.sample(range(1, n + 1), s)
        rest = [e for e in range(1, n + 1) if e not in core]
        pool = [KSet.from_elements(core + list(extra), n)
                for extra in combinations(rest, k - s)]
        f1 = Family(rng.sample(pool, rng.randint(1, min(6, len(pool)))),
                    n=n, k=k)
        f2 = Family(rng.sample(pool, rng.randint(1, min(6, len(pool)))),
                    n=n, k=k)
    assert is_s_cross_intersecting(f1, f2, s)[0]
    return f1, f2


@pytest.fixture
def rng():
    return random.Random(20240817)
