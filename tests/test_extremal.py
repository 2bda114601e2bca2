from collections import Counter
from itertools import combinations
from math import comb
from operator import attrgetter

import pytest

import crossint.extremal as extremal
from crossint import (IndexNotMeaningful, Params,
                      ParamsOutOfRange, binom,
                      build_extremal_family, check_mirror_weight_ordering,
                      check_offset_weight_ordering, extremal_pair,
                      is_s_cross_intersecting, min_pair_intersection,
                      orbit_weight, orbit_weights, size_extremal_family)
from crossint.orbitgraph import build_orbit_graph, classify_edges

from conftest import pinned_grid, small_graph_params


def orbit_masks(params, profile):
    inside = [sum(1 << e for e in c)
              for c in combinations(range(1, params.k + 1), profile)]
    outside = [sum(1 << e for e in c)
               for c in combinations(range(params.k + 1, params.n + 1),
                                     params.k - profile)]
    return [lo | hi for lo in inside for hi in outside]


def enumerated_min_intersection(params, i, t):
    """Full pairwise enumeration over both orbits; the independent route."""
    return min((a & b).bit_count()
               for a in orbit_masks(params, i) for b in orbit_masks(params, t))


class TestExtremalFamily:
    def test_counts(self):
        assert len(build_extremal_family(Params(7, 3, 2))) == 13
        assert len(build_extremal_family(Params(9, 4, 2))) == 81

    def test_contains_base_always(self):
        for params in [Params(7, 3, 2), Params(9, 4, 3), Params(8, 5, 4)]:
            assert params.base_set() in build_extremal_family(params)

    def test_membership_rule(self):
        params = Params(7, 3, 2)
        base = params.base_set().mask
        for member in build_extremal_family(params):
            assert (member.mask & base).bit_count() >= 2

    def test_size_matches_enumeration(self):
        for params in [Params(7, 3, 2), Params(9, 4, 2), Params(8, 3, 2),
                       Params(10, 4, 3), Params(6, 3, 1), Params(9, 5, 2)]:
            assert size_extremal_family(params) == \
                len(build_extremal_family(params))


class TestSize:
    def test_examples(self):
        assert size_extremal_family(Params(7, 3, 2)) == 13
        assert size_extremal_family(Params(9, 4, 2)) == 81 == 60 + 20 + 1
        assert size_extremal_family(Params(5, 2, 1)) == 7 == \
            binom(5, 2) - binom(3, 2)

    def test_s1_identity_small_grid(self):
        for k in range(2, 7):
            for n in range(2 * k, 2 * k + 6):
                params = Params(n, k, 1)
                assert size_extremal_family(params) == \
                    binom(n, k) - binom(n - k, k)


class TestOrbitWeights:
    def test_examples(self):
        assert orbit_weight(2, Params(9, 4, 2)) == 60
        assert orbit_weight(3, Params(9, 4, 2)) == 20
        assert orbit_weight(4, Params(9, 4, 2)) == 1  # the base set alone

    def test_meaningful_range(self):
        with pytest.raises(IndexNotMeaningful):
            orbit_weight(1, Params(9, 4, 2))
        with pytest.raises(IndexNotMeaningful):
            orbit_weight(5, Params(9, 4, 2))

    def test_weights_sum_to_size_and_positive(self):
        for params in [Params(7, 3, 2), Params(9, 4, 2), Params(13, 6, 3),
                       Params(21, 8, 2), Params(8, 4, 2)]:
            weights = [orbit_weight(i, params)
                       for i in range(params.s, params.k + 1)]
            assert sum(weights) == size_extremal_family(params)
            assert all(w > 0 for w in weights)

    def test_orbit_sizes_match_enumeration(self):
        params = Params(9, 4, 2)
        for i in range(2, 5):
            assert orbit_weight(i, params) == len(orbit_masks(params, i))


def reference_orbit_weights(params):
    """w(s..k) as computed before the weight row per (n, k): the exact
    recurrence run for each triple, from profile max(s, 2k-n)."""
    n, k, s = params.n, params.k, params.s
    first = max(s, 2 * k - n)
    w = binom(k, first) * binom(n - k, k - first)
    weights = [0] * (first - s) + [w]
    for i in range(first, k):
        w, rest = divmod(w * (k - i) * (k - i), (i + 1) * (n - 2 * k + i + 1))
        if rest:
            raise ArithmeticError(f"orbit weight recurrence left remainder "
                                  f"{rest} at profile {i + 1} for {params}")
        weights.append(w)
    return weights


class TestOrbitWeightList:
    def test_equals_previous_recurrence(self):
        # l down to -2 reaches n < 2k-s-1, where the lowest profiles of a
        # triple have no sets; the row starts below them
        grid = pinned_grid(s_min=1, l_min=-2)
        for params in grid + sorted(grid, key=attrgetter("n", "k", "s")):
            assert orbit_weights(params) == reference_orbit_weights(params), \
                params
        assert extremal._weight_row.cache_info().maxsize == 64

    def test_equals_closed_form_on_criterion_7_range(self):
        # every triple of criterion 7 (k <= 60, l <= 60)
        for k in range(3, 61):
            for s in range(2, k):
                for l in range(0, 61):
                    params = Params(2 * k - s + 1 + l, k, s)
                    weights = orbit_weights(params)
                    assert weights == [orbit_weight(i, params)
                                       for i in range(s, k + 1)], params
                    assert sum(weights) == size_extremal_family(params)

    def test_empty_profiles_below_2k_minus_n(self):
        # n < 2k - s - 1 leaves profiles i < 2k - n without sets
        for k in range(2, 9):
            for s in range(1, k):
                for n in range(k, 2 * k + 3):
                    params = Params(n, k, s)
                    assert orbit_weights(params) == \
                        [orbit_weight(i, params) for i in range(s, k + 1)]

    def test_inexact_division_raises(self, monkeypatch):
        # a wrong first weight, 1 at profile 0 of the (9, 4) row, runs
        # 1, 8, 12, 4 and then leaves 4 / 20 at profile 4; the error is
        # raised, not asserted, so python -O keeps it.  The row cache is
        # cleared on both sides of the patch: a cached (9, 4) row would
        # hide the remainder, and a patched row must not outlive the test
        extremal._weight_row.cache_clear()
        monkeypatch.setattr(extremal, "binom", lambda a, b: 1)
        try:
            with pytest.raises(ArithmeticError,
                               match="remainder 4 at profile 4 for n=9, k=4"):
                orbit_weights(Params(9, 4, 2))
        finally:
            extremal._weight_row.cache_clear()


class TestMinPairIntersection:
    def test_examples(self):
        assert min_pair_intersection(2, 2, Params(7, 3, 2)) == 1
        assert min_pair_intersection(3, 3, Params(7, 3, 2)) == 3
        assert min_pair_intersection(2, 3, Params(9, 4, 2)) == 1

    def test_meaningful_range(self):
        with pytest.raises(IndexNotMeaningful):
            min_pair_intersection(1, 2, Params(7, 3, 2))
        with pytest.raises(IndexNotMeaningful):
            min_pair_intersection(2, 4, Params(7, 3, 2))

    def test_symmetric(self):
        for params in [Params(9, 4, 2), Params(11, 5, 2), Params(10, 5, 3)]:
            for i in range(params.s, params.k + 1):
                for t in range(params.s, params.k + 1):
                    assert min_pair_intersection(i, t, params) == \
                        min_pair_intersection(t, i, params)

    @pytest.mark.parametrize("params", [Params(7, 3, 2), Params(9, 4, 2),
                                        Params(8, 4, 2), Params(8, 4, 3),
                                        Params(10, 5, 3)])
    def test_matches_full_pair_enumeration(self, params):
        for i in range(params.s, params.k + 1):
            for t in range(params.s, params.k + 1):
                assert min_pair_intersection(i, t, params) == \
                    enumerated_min_intersection(params, i, t)


def tamper_weights(monkeypatch, weights):
    """Have both weight laws read ``weights`` as w(s..k)."""
    monkeypatch.setattr(extremal, "orbit_weights", lambda params: list(weights))


class TestMirrorWeightOrdering:
    def test_9_4_2(self):
        params = Params(9, 4, 2)
        assert orbit_weights(params) == [60, 20, 1]
        verdict = check_mirror_weight_ordering(params)
        assert verdict.passed and verdict.witness is None
        assert verdict.detail == "2 instances checked"

    def test_9_4_2_swapped_weights_fail_both_profiles(self, monkeypatch):
        tamper_weights(monkeypatch, [20, 60, 1])
        verdict = check_mirror_weight_ordering(Params(9, 4, 2))
        assert not verdict.passed
        assert verdict.witness == [
            {"i": 2, "partner": 3, "weight_i": 20, "weight_partner": 60,
             "dominates": False, "below_midpoint": True, "ok": False},
            {"i": 3, "partner": 2, "weight_i": 60, "weight_partner": 20,
             "dominates": True, "below_midpoint": False, "ok": False}]

    def test_7_3_2_self_mirror(self):
        # the one profile 2 is its own mirror: w(2) >= w(2) always holds
        params = Params(7, 3, 2)
        assert orbit_weights(params) == [12, 1]
        verdict = check_mirror_weight_ordering(params)
        assert verdict.passed and verdict.witness is None
        assert verdict.detail == "1 instances checked"

    def test_11_6_2(self):
        assert check_mirror_weight_ordering(Params(11, 6, 2)).passed


class TestMirrorLawProof:
    """Each step of the mirror law's proof, in exact integers: ratios are
    compared by cross-multiplying, never divided."""

    def test_zero_slack_ratio_is_a_binomial_ratio(self):
        # At l = 0 the C(n-k, .) factors cancel:
        # w(i) / w(k+s-1-i) = C(k, i) / C(k, i-s+1).
        for k in range(3, 40):
            for s in range(2, k):
                params = Params(2 * k - s + 1, k, s)
                for i in range(s, k):
                    j = k + s - 1 - i
                    assert orbit_weight(i, params) * comb(k, i - s + 1) == \
                        orbit_weight(j, params) * comb(k, i)

    def test_zero_slack_ratio_against_the_midpoint(self):
        # C(k, i) / C(k, i-s+1) is >= 1 exactly when 2i <= k+s-1, and
        # > 1 exactly when 2i < k+s-1.
        for k in range(3, 40):
            for s in range(2, k):
                for i in range(s, k):
                    top, bottom = comb(k, i), comb(k, i - s + 1)
                    assert (top >= bottom) == (2 * i <= k + s - 1)
                    assert (top > bottom) == (2 * i < k + s - 1)

    def test_ratio_strictly_increases_with_n(self):
        # For s <= i < j <= k, w_n(i) / w_n(j) < w_{n+1}(i) / w_{n+1}(j).
        for k in range(3, 30):
            for s in range(2, k):
                for l in range(0, 20):
                    now = Params(2 * k - s + 1 + l, k, s)
                    nxt = Params(now.n + 1, k, s)
                    w_now = [orbit_weight(i, now) for i in range(s, k + 1)]
                    w_nxt = [orbit_weight(i, nxt) for i in range(s, k + 1)]
                    for a in range(len(w_now)):
                        for b in range(a + 1, len(w_now)):
                            assert w_now[a] * w_nxt[b] < w_nxt[a] * w_now[b]


def reference_lemma_record(claim, params, instances, passed, check=None):
    """``LemmaReport.to_record`` as it was before the weight laws
    returned a ``Verdict``: the report held every instance's dict, and
    the record kept the failing ones."""
    failed = [inst for inst in instances if not inst.get("ok", True)]
    return {
        "n": params.n, "k": params.k, "s": params.s, "l": params.l,
        "check": check or claim,
        "claim": claim,
        "status": "pass" if passed else "fail",
        "formula_value": None,
        "oracle_value": None,
        "detail": (f"{len(instances)} instances checked"
                   + (f", {len(failed)} failed: {failed[:3]}" if failed else "")),
        "witness": failed or None,
        "millis": None,
    }


def reference_mirror_weight_ordering(params, check=None):
    """The mirror law's record as it was before the weight laws
    returned a ``Verdict``: one seven-key dict per profile."""
    k, s = params.k, params.s
    weights = extremal.orbit_weights(params)
    instances, passed = [], True
    for i in range(s, k):
        j = k + s - 1 - i
        wi, wj = weights[i - s], weights[j - s]
        lhs = wi >= wj
        rhs = 2 * i <= k + s - 1
        ok = lhs == rhs
        instances.append({
            "i": i, "partner": j, "weight_i": wi, "weight_partner": wj,
            "dominates": lhs, "below_midpoint": rhs, "ok": ok,
        })
        if not ok:
            passed = False
    return reference_lemma_record("weights.mirror-ordering", params,
                                  instances, passed, check)


def reference_offset_weight_ordering(params, check=None):
    """The offset law's record as it was before the weight laws
    returned a ``Verdict``: one dict per offset, stepping until a
    profile leaves {s..k-1}."""
    k, s, l = params.k, params.s, params.l
    if l < 0:
        raise ParamsOutOfRange(f"need slack l >= 0, got l={l}")
    a = (k - l) // 2
    b = (k + s - 1) // 2
    weights = extremal.orbit_weights(params)
    instances, passed = [], True
    i = 1
    while a - i >= s and b + i <= k - 1:
        wlow, whigh = weights[a - i - s], weights[b + i - s]
        ok = wlow <= whigh
        instances.append({
            "offset": i, "low": a - i, "high": b + i,
            "weight_low": wlow, "weight_high": whigh, "ok": ok,
        })
        if not ok:
            passed = False
        i += 1
    return reference_lemma_record("weights.offset-ordering", params,
                                  instances, passed, check)


#: The orbit-sweep benchmark's grid: k <= 30, s >= 2, l <= 30.
ORBIT_SWEEP_GRID = [Params(2 * k - s + 1 + l, k, s) for k in range(3, 31)
                    for s in range(2, k) for l in range(0, 31)]


class TestLemmaReportRecord:
    """The weight laws' records against the references above."""

    def test_passing_report_carries_no_witness(self):
        rec = check_mirror_weight_ordering(Params(9, 4, 2)).to_record()
        assert rec["status"] == "pass"
        assert rec["witness"] is None
        assert rec["detail"] == "2 instances checked"
        assert rec == reference_mirror_weight_ordering(Params(9, 4, 2))

    @pytest.mark.parametrize("failing", [(3, 4), (2, 3, 4, 5)])
    def test_witness_is_the_failing_instances(self, failing, monkeypatch):
        # (13, 6, 2): profiles 2..5, mirror pairs 2-5 and 3-4, midpoint
        # 3.5.  Lifting the upper profile of a pair above every weight
        # breaks the law at both ends of that pair.
        params = Params(13, 6, 2)
        weights = orbit_weights(params)
        top = max(weights)
        for i in failing:
            if 2 * i > params.k + params.s - 1:
                weights[i - params.s] = top + i
        tamper_weights(monkeypatch, weights)
        rec = check_mirror_weight_ordering(params).to_record("lemma2")
        assert (rec["check"], rec["status"]) == ("lemma2", "fail")
        bad = rec["witness"]
        assert [inst["i"] for inst in bad] == list(failing)
        assert all(inst["ok"] is False for inst in bad)
        assert rec["detail"] == \
            f"4 instances checked, {len(bad)} failed: {bad[:3]}"
        assert rec == reference_mirror_weight_ordering(params, "lemma2")

    def test_equals_reference_on_the_orbit_sweep_grid(self):
        for params in ORBIT_SWEEP_GRID:
            assert check_mirror_weight_ordering(params).to_record("lemma2") \
                == reference_mirror_weight_ordering(params, "lemma2"), params
            assert check_offset_weight_ordering(params).to_record("lemma2") \
                == reference_offset_weight_ordering(params, "lemma2"), params

    def test_equals_reference_under_tampered_weights(self, monkeypatch, rng):
        # random weights break both laws on many triples; every failing
        # dict, the count and the first three in the detail must match
        weights_of = orbit_weights
        failed = {"weights.mirror-ordering": 0, "weights.offset-ordering": 0}
        for params in ORBIT_SWEEP_GRID:
            if params.k > 16:
                continue
            weights = [rng.randint(1, 50) for _ in weights_of(params)]
            tamper_weights(monkeypatch, weights)
            for check, reference in (
                    (check_mirror_weight_ordering,
                     reference_mirror_weight_ordering),
                    (check_offset_weight_ordering,
                     reference_offset_weight_ordering)):
                rec = check(params).to_record("lemma2")
                assert rec == reference(params, "lemma2"), params
                failed[rec["claim"]] += rec["status"] == "fail"
        assert min(failed.values()) > 100, failed


class TestOffsetWeightOrdering:
    def test_9_4_2_vacuous(self):
        verdict = check_offset_weight_ordering(Params(9, 4, 2))
        assert verdict.passed and verdict.witness is None
        assert verdict.detail == "0 instances checked"

    def test_11_6_2(self):
        # l = 0: the one offset pairs profiles 2 and 4
        params = Params(11, 6, 2)
        weights = orbit_weights(params)
        assert (weights[2 - 2], weights[4 - 2]) == (75, 150)
        verdict = check_offset_weight_ordering(params)
        assert verdict.passed and verdict.detail == "1 instances checked"

    def test_11_6_2_swapped_weights_fail(self, monkeypatch):
        weights = orbit_weights(Params(11, 6, 2))
        weights[0], weights[2] = weights[2], weights[0]
        tamper_weights(monkeypatch, weights)
        verdict = check_offset_weight_ordering(Params(11, 6, 2))
        assert not verdict.passed
        assert verdict.witness == [
            {"offset": 1, "low": 2, "high": 4, "weight_low": 150,
             "weight_high": 75, "ok": False}]

    def test_10_4_2(self):
        assert check_offset_weight_ordering(Params(10, 4, 2)).passed

    def test_needs_nonnegative_slack(self):
        with pytest.raises(ParamsOutOfRange):
            check_offset_weight_ordering(Params(6, 4, 2))


def checker_pairs(k, s, l):
    """The (lo, hi) profile pairs check_offset_weight_ordering compares."""
    a, b = (k - l) // 2, (k + s - 1) // 2
    return [(a - d, b + d) for d in range(1, min(a - s, k - 1 - b) + 1)]


def offset_edge_pairs(k, s, l):
    """The (lo, hi) profile pairs of the offset edges (type 3), by the
    rule in the ``orbitgraph`` docstring."""
    if (k - l) % 2:
        low, high = (k - l) // 2, -(-(k + s - 1) // 2)
    else:
        low, high = (k - l) // 2 - 1, (k + s - 1) // 2 + 1
    return [(low - d, high + d)
            for d in range(min(low - s, k - 1 - high) + 1)]


def offset_r(k, s, l, lo, hi):
    """r = 2k - 2(lo+hi) - l + s - 1 of the offset law's proof."""
    return 2 * k - 2 * (lo + hi) - l + s - 1


class TestOffsetLawProof:
    """Each step of the offset law's proof (``extremal`` docstring), in
    exact integers: w(lo) <= w(hi) because every factor of the paired
    product is at most 1."""

    def test_offset_edge_pairs_are_those_classify_edges_types(self):
        for params in small_graph_params(k_max=12, l_max=8):
            typed = classify_edges(build_orbit_graph(params))
            pairs = {tuple(sorted((e.left.i, e.right.i)))
                     for e in typed if e.edge_type == 3}
            assert pairs == \
                set(offset_edge_pairs(params.k, params.s, params.l)), params

    def test_r_values_on_criterion_7_range(self):
        # checker pairs: r = (k-l mod 2) + (k+s-1 mod 2); offset edges:
        # r in {0, 1}
        checker, edges = Counter(), Counter()
        for k in range(3, 61):
            for s in range(2, k):
                for l in range(61):
                    for lo, hi in checker_pairs(k, s, l):
                        r = offset_r(k, s, l, lo, hi)
                        assert r == (k - l) % 2 + (k + s - 1) % 2
                        checker[r] += 1
                    for lo, hi in offset_edge_pairs(k, s, l):
                        edges[offset_r(k, s, l, lo, hi)] += 1
        assert sorted(checker) == [0, 1, 2]
        assert sum(checker.values()) == 113_680
        assert sorted(edges) == [0, 1]
        assert sum(edges.values()) == 121_800

    def test_paired_factors_on_orbit_sweep_range(self):
        # k <= 30, l <= 30: w(lo)/w(hi) is the product of the factors
        # (lo+t)(n-2k+lo+t)/(k-hi+t)^2, and x^2 minus the numerator of
        # factor t is r*x + sigma(sigma+r) >= 0
        pairs_seen = 0
        for k in range(3, 31):
            for s in range(2, k):
                for l in range(31):
                    n = 2 * k - s + 1 + l
                    params = Params(n, k, s)
                    pairs = set(checker_pairs(k, s, l))
                    pairs.update(offset_edge_pairs(k, s, l))
                    for lo, hi in pairs:
                        sigma, r = lo + hi - k, offset_r(k, s, l, lo, hi)
                        # sigma is an integer: sigma(sigma+r) >= -1 at r = 2
                        assert sigma * (sigma + r) >= (r == 2) * -1
                        top_product = bottom_product = 1
                        for t in range(1, hi - lo + 1):
                            x = k - hi + t
                            a, b = lo + t, n - 2 * k + lo + t
                            assert x >= 1 and a > 0 and b > 0
                            assert (a, b) == (x + sigma, x - sigma - r)
                            assert x * x - a * b == r * x + sigma * (sigma + r)
                            assert a * b <= x * x
                            top_product *= a * b
                            bottom_product *= x * x
                        w_lo, w_hi = orbit_weight(lo, params), \
                            orbit_weight(hi, params)
                        assert w_lo * bottom_product == w_hi * top_product
                        assert w_lo <= w_hi
                        pairs_seen += 1
        assert pairs_seen == 8190


class TestExtremalPair:
    def test_sizes(self):
        fam_a, fam_b = extremal_pair(Params(7, 3, 2))
        assert (len(fam_a), len(fam_b)) == (13, 1)
        assert len(fam_a) + len(fam_b) == 14

    def test_is_cross_intersecting(self):
        for params in [Params(7, 3, 2), Params(9, 4, 2), Params(10, 5, 3)]:
            fam_a, fam_b = extremal_pair(params)
            assert is_s_cross_intersecting(fam_a, fam_b, params.s)[0]

    def test_sum_9_4_2(self):
        fam_a, fam_b = extremal_pair(Params(9, 4, 2))
        assert len(fam_a) + len(fam_b) == 82
