"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Every expected value is exact (integer arithmetic); there are no
tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s`
to see one line per criterion.
"""

import random
from itertools import combinations

from crossint import (Params, WeightedBipartiteGraph, binom,
                      build_chain_decomposition, build_orbit_graph,
                      conflict_graph_mis, is_s_cross_intersecting,
                      is_shifted, max_sum_nonempty,
                      max_weight_independent_set, min_pair_intersection,
                      min_weight_vertex_cover, shift_closure, shift_family,
                      size_extremal_family, validate_decomposition,
                      verify_theorem)
from crossint.extremal import (check_mirror_weight_ordering,
                               check_offset_weight_ordering)

from conftest import exhaustive_mwis, random_bipartite, random_cross_pair

GRAPH_SWEEP = [(k, s, l)
               for k in range(3, 41) for s in range(2, k)
               for l in range(0, 41)]


def report(num, label, ok, detail):
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def orbit_graph_mwis(params):
    _, weight = max_weight_independent_set(
        build_orbit_graph(params).as_bipartite())
    return weight


def test_criterion_1_theorem_sweep():
    instances = [(n, k, s)
                 for k in range(2, 6) for s in range(1, k)
                 for n in range(2 * k - s + 1, 11) if binom(n, k) <= 260]
    failures = []
    for n, k, s in instances:
        params = Params(n, k, s)
        value, _ = max_sum_nonempty(params)
        want = size_extremal_family(params) + 1
        if value != want:
            failures.append((n, k, s, value, want))
    ok = report(1, "theorem sweep", not failures,
                f"{len(instances)} instances, oracle max equals closed form "
                f"on {len(instances) - len(failures)}")
    assert ok, failures


def test_criterion_2_spot_verdicts():
    expected = {(7, 3, 2): 14, (9, 4, 2): 82, (6, 3, 1): 20}
    got = {}
    for triple, want in expected.items():
        verdict = verify_theorem(Params(*triple))
        got[triple] = (verdict.oracle_value, verdict.formula_value,
                       verdict.passed)
    ok = all(got[t] == (w, w, True) for t, w in expected.items())
    report(2, "spot verdicts", ok,
           ", ".join(f"{t} -> {got[t][0]}" for t in expected))
    assert ok, got


def test_criterion_3_orbit_certificate():
    failures = []
    for k, s, l in GRAPH_SWEEP:
        params = Params(2 * k - s + 1 + l, k, s)
        if orbit_graph_mwis(params) != size_extremal_family(params) - 1:
            failures.append((k, s, l))
    ok = report(3, "orbit-level certificate", not failures,
                f"MWIS equals extremal size minus one on all "
                f"{len(GRAPH_SWEEP)} instances")
    assert ok, failures[:10]


def test_criterion_4_enumerated_mis():
    trials = [(7, 3, 2), (8, 3, 2), (9, 4, 2), (9, 4, 3), (10, 4, 3)]
    got = {}
    for triple in trials:
        params = Params(*triple)
        got[triple] = (conflict_graph_mis(params),
                       size_extremal_family(params) - 1)
    ok = all(a == b for a, b in got.values())
    report(4, "set-level MIS", ok,
           ", ".join(f"{t} -> {got[t][0]}" for t in trials))
    assert ok, got


def test_criterion_5_chain_decomposition():
    failures = []
    for k, s, l in GRAPH_SWEEP:
        params = Params(2 * k - s + 1 + l, k, s)
        graph = build_orbit_graph(params)
        verdict = validate_decomposition(build_chain_decomposition(params),
                                         graph)
        if not verdict.passed:
            failures.append((k, s, l))
    predicted = [(k, s, l) for k, s, l in GRAPH_SWEEP
                 if (k - l) % 2 == 1 and (k - l) // 2 >= s]
    detail = (f"{len(GRAPH_SWEEP) - len(failures)} of {len(GRAPH_SWEEP)} "
              f"decompositions valid; {len(failures)} violations"
              + (f", exactly the instances with k-l odd and "
                 f"floor((k-l)/2) >= s (e.g. {failures[0]})"
                 if failures == predicted and failures else ""))
    ok = report(5, "chain decomposition", not failures, detail)
    assert ok, (f"{len(failures)} parameter triples have no equal-weight "
                f"middle edge under the three-type edge construction; "
                f"first few: {failures[:5]}")


def test_criterion_6_edge_rule_equivalence():
    params_list = [Params(n, k, s)
                   for n in range(3, 13) for k in range(2, n + 1)
                   for s in range(1, k) if n >= 2 * k - s + 1]
    checked = 0
    failures = []
    for params in params_list:
        n, k, s, l = params.n, params.k, params.s, params.l
        graph = build_orbit_graph(params) if s >= 2 else None
        orbits = {i: [lo | hi
                      for lo in (sum(1 << e for e in c)
                                 for c in combinations(range(1, k + 1), i))
                      for hi in (sum(1 << e for e in c)
                                 for c in combinations(range(k + 1, n + 1),
                                                       k - i))]
                  for i in range(s, k)}
        for i in range(s, k):
            for t in range(s, k):
                interval = k - l <= i + t <= k + s - 1
                closed = min_pair_intersection(i, t, params) < s
                enumerated = any((a & b).bit_count() < s
                                 for a in orbits[i] for b in orbits[t])
                routes = {interval, closed, enumerated}
                if graph is not None:
                    routes.add(graph.has_edge(i, t))
                checked += 1
                if len(routes) != 1:
                    failures.append((n, k, s, i, t))
    ok = report(6, "edge-rule equivalence", not failures,
                f"{checked} profile pairs across {len(params_list)} parameter "
                f"triples with n <= 12 agree on every route")
    assert ok, failures[:10]


def test_criterion_7_weight_orderings():
    failures = []
    count = 0
    for k in range(3, 61):
        for s in range(2, k):
            for l in range(0, 61):
                params = Params(2 * k - s + 1 + l, k, s)
                count += 1
                if not check_mirror_weight_ordering(params).passed:
                    failures.append(("mirror", k, s, l))
                if not check_offset_weight_ordering(params).passed:
                    failures.append(("offset", k, s, l))
    ok = report(7, "weight orderings", not failures,
                f"both orderings hold on all {count} instances up to k=60, "
                f"l=60")
    assert ok, failures[:10]


def test_criterion_8_shifting_suite():
    rng = random.Random(411)
    menu = [(6, 3, 2), (7, 3, 2), (7, 4, 2), (6, 4, 3), (6, 2, 1), (7, 5, 3)]
    pairs = 1000
    for trial in range(pairs):
        n, k, s = menu[trial % len(menu)]
        f1, f2 = random_cross_pair(rng, n, k, s)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                g1 = shift_family(i, j, f1)
                g2 = shift_family(i, j, f2)
                assert (len(g1), len(g2)) == (len(f1), len(f2))
                assert is_s_cross_intersecting(g1, g2, s)[0]
        base = Params(n, k, s).base_set()
        for fam in (f1, f2):
            closed = shift_closure(fam)
            assert len(closed) == len(fam)
            assert is_shifted(closed)
            assert shift_closure(closed) == closed
            assert base in closed
    report(8, "shifting suite", True,
           f"{pairs} random pairs: shifts preserve the property and sizes, "
           f"closures idempotent and contain the base set")


def test_criterion_9_optimizer_audit():
    rng = random.Random(97)
    for _ in range(500):
        side1, side2, edges = random_bipartite(rng, max_vertices=20,
                                               max_weight=100)
        g = WeightedBipartiteGraph(side1, side2, edges)
        _, weight = max_weight_independent_set(g)
        _, cover_weight = min_weight_vertex_cover(g)
        assert weight == exhaustive_mwis(side1, side2, edges)
        assert weight + cover_weight == g.total_weight()
    report(9, "optimizer audit", True,
           "flow MWIS equals exhaustive MWIS and duality holds on 500 "
           "random graphs")


def test_criterion_10_s1_identity():
    count = 0
    failures = []
    for k in range(2, 11):
        for n in range(2 * k, 31):
            params = Params(n, k, 1)
            count += 1
            if size_extremal_family(params) != binom(n, k) - binom(n - k, k):
                failures.append((n, k))
    ok = report(10, "s=1 size identity", not failures,
                f"identity holds on all {count} pairs with k <= 10, n <= 30")
    assert ok, failures
