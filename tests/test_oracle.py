from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crossint import (EnumerationTooLarge, FlowCertificateError, KSet,
                      Params, ParamsOutOfRange, binom, build_extremal_family,
                      conflict_graph_mis, is_s_cross_intersecting,
                      ksubset_masks, max_sum_nonempty,
                      max_sum_nonempty_unreduced, max_weight_independent_set,
                      size_extremal_family, verify_theorem)
from crossint import oracle
from crossint.bipartite import unit_weight_independent_set
from crossint.oracle import (_canonical_anchor, _conflict_rows,
                             _iter_conflict_rows, _mis_two_copies,
                             _swap_blocks)
from crossint.orbitgraph import build_orbit_graph


def kset(*elements, n):
    return KSet.from_elements(elements, n)


def orbit_graph_mwis(params):
    _, weight = max_weight_independent_set(
        build_orbit_graph(params).as_bipartite())
    return weight


class TestConflictGraph:
    def test_cap(self):
        # the conflict graph on all C(9, 4) = 126 k-sets is built only when
        # the cap admits it: every cap below 126 raises, a cap of 126 runs
        for cap in (10, 50, 125):
            with pytest.raises(EnumerationTooLarge):
                conflict_graph_mis(Params(9, 4, 2), cap=cap)
        assert conflict_graph_mis(Params(9, 4, 2), cap=126) == 80


@st.composite
def two_sides(draw):
    """(masks1, masks2, s): k-subsets of {1..n} as masks (bit e for
    element e), n <= 12, either side possibly empty, s from 1 to k+1."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    kset_mask = st.sets(st.integers(1, n), min_size=k, max_size=k).map(
        lambda elems: sum(1 << e for e in elems))
    side = st.lists(kset_mask, max_size=12)
    return draw(side), draw(side), draw(st.integers(1, k + 1))


def pair_scan(masks1, masks2, s):
    return [sum(1 << b for b, y in enumerate(masks2) if (x & y).bit_count() < s)
            for x in masks1]


def lex_masks(n, k):
    return [sum(1 << e for e in combo) for combo in combinations(range(1, n + 1), k)]


@st.composite
def resumed_sides(draw):
    """(masks1, masks2, s) where masks1 resumes the counter far: up to
    three lex-ordered runs (each a sorted sample of the k-subsets of
    [n], n <= 12, k varying between runs), with copies of its own masks
    inserted anywhere, some next to their original.  masks2 holds
    subsets of [m] of any size, m <= n, so masks1 may have bits outside
    their union; s runs from 1 to k + 1 for the largest k."""
    n = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(0, n), min_size=1, max_size=3))
    masks1 = []
    for k in sizes:
        run = lex_masks(n, k)
        picked = draw(st.sets(st.integers(0, len(run) - 1), max_size=40))
        masks1 += [run[i] for i in sorted(picked)]
    for _ in range(draw(st.integers(0, 6))):
        if masks1:
            where = draw(st.integers(0, len(masks1)))
            masks1.insert(where, masks1[draw(st.integers(0, len(masks1) - 1))])
    m = draw(st.integers(1, n))
    subset = st.sets(st.integers(1, m)).map(lambda elems: sum(1 << e for e in elems))
    masks2 = draw(st.lists(subset, max_size=12))
    return masks1, masks2, draw(st.integers(1, max(sizes) + 1))


class TestConflictRows:
    @given(two_sides())
    @example(([], [0b110], 1))
    @example(([0b110], [], 1))
    # complete: with s = k + 1 every pair conflicts
    @example(([0b0110, 0b1010, 0b1100], [0b0110, 0b1010, 0b1100], 3))
    # edgeless: 3-sets holding {1, 2} pairwise meet in >= 2 elements
    @example(([0b1110, 0b10110], [0b100110, 0b1110], 2))
    def test_matches_pair_scan(self, sides):
        assert _conflict_rows(*sides) == pair_scan(*sides)

    @given(two_sides())
    @example(([], [], 1))
    @example(([], [0b110], 1))
    @example(([0b110], [], 1))
    def test_any_row_of_the_generator(self, sides):
        # the enumerated edge route reads only as far as the first nonzero row
        assert any(_iter_conflict_rows(*sides)) == any(_conflict_rows(*sides)) \
            == any(pair_scan(*sides))

    @given(resumed_sides())
    # a repeat, a set missing the union of masks2, then a shorter set
    @example(([0b0110, 0b0110, 0b11000, 0b0100], [0b0110, 0b0010], 2))
    def test_resumed_counter_matches_pair_scan(self, sides):
        want = pair_scan(*sides)
        assert list(_iter_conflict_rows(*sides)) == want
        assert _conflict_rows(*sides) == want

    def test_generators_advanced_in_turn_keep_their_own_state(self):
        # C(9, 4) = C(9, 5): both runs have 126 rows, against different
        # sides and s, so a counter shared between calls would mix them
        first, second = lex_masks(9, 4), lex_masks(9, 5)
        side1, side2 = lex_masks(7, 3), lex_masks(9, 4)[::5]
        rows = list(zip(_iter_conflict_rows(first, side1, 2),
                        _iter_conflict_rows(second, side2, 3)))
        assert [a for a, _ in rows] == pair_scan(first, side1, 2)
        assert [b for _, b in rows] == pair_scan(second, side2, 3)

    def test_extremal_minus_base_7_3_2(self):
        params = Params(7, 3, 2)
        base = params.base_set().mask
        ground = [m.mask for m in build_extremal_family(params)
                  if m.mask != base]
        rows = _conflict_rows(ground, ground, 2)
        assert len(rows) == 12
        # every remaining member has profile 2, and the induced conflict
        # structure is 6-regular on each side (cf. the biregularity check)
        assert {row.bit_count() for row in rows} == {6}
        assert sum(row.bit_count() for row in rows) == 72

    def test_disjoint_pair(self):
        ground = [kset(1, 2, n=4).mask, kset(3, 4, n=4).mask]
        assert _conflict_rows(ground, ground, 1) == [0b10, 0b01]

    def test_base_singleton_edgeless(self):
        for s in (1, 2, 3):
            ground = [kset(1, 2, 3, n=6).mask]
            assert _conflict_rows(ground, ground, s) == [0]


class TestConflictGraphMis:
    @pytest.mark.parametrize("triple,want", [
        ((7, 3, 2), 12),
        ((8, 3, 2), 15),
        ((9, 4, 2), 80),
        ((9, 4, 3), 20),
        ((10, 4, 3), 24),
    ])
    def test_equals_size_minus_one(self, triple, want):
        params = Params(*triple)
        value = conflict_graph_mis(params)
        assert value == want == size_extremal_family(params) - 1

    def test_matches_orbit_level_optimum(self):
        # the set-level MIS is attained by a union of whole orbits
        for triple in [(7, 3, 2), (8, 3, 2), (9, 4, 2), (9, 4, 3),
                       (10, 4, 3), (9, 5, 2)]:
            params = Params(*triple)
            assert conflict_graph_mis(params) == orbit_graph_mwis(params)

    def test_requires_theorem_range(self):
        with pytest.raises(ParamsOutOfRange):
            conflict_graph_mis(Params(6, 4, 2))

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            conflict_graph_mis(Params(9, 4, 2), cap=50)


class TestMaxSumNonempty:
    def test_7_3_2_with_witness(self):
        value, (fam_a, fam_b) = max_sum_nonempty(Params(7, 3, 2))
        assert value == 14
        assert len(fam_a) + len(fam_b) == 14
        assert len(fam_a) >= 1 and len(fam_b) >= 1
        assert is_s_cross_intersecting(fam_a, fam_b, 2)[0]

    def test_below_range_pigeonhole(self):
        # n = 2k - s: every pair of 3-subsets of [4] meets in >= 2 elements
        value, (fam_a, fam_b) = max_sum_nonempty(Params(4, 3, 2))
        assert value == 8 == 2 * binom(4, 3)
        assert len(fam_a) == len(fam_b) == 4

    def test_4_2_1(self):
        value, _ = max_sum_nonempty(Params(4, 2, 1))
        assert value == 6 == binom(4, 2) - binom(2, 2) + 1

    def test_never_below_extremal_witness(self):
        for triple in [(7, 3, 2), (8, 3, 2), (9, 4, 3), (8, 4, 3)]:
            params = Params(*triple)
            value, _ = max_sum_nonempty(params)
            assert value >= size_extremal_family(params) + 1

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            max_sum_nonempty(Params(9, 4, 2), cap=50)

    def test_dropped_anchor_raises(self, monkeypatch):
        # a solver that keeps neither anchor must be caught by a raised
        # check, not an assert that python -O strips
        monkeypatch.setattr(oracle, "unit_weight_independent_set",
                            lambda rows, num2: (0, [], []))
        with pytest.raises(FlowCertificateError, match="dropped an anchor"):
            max_sum_nonempty(Params(7, 3, 2))

    def test_value_off_the_picked_count_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "unit_weight_independent_set",
                            lambda rows, num2: (1, [], []))
        with pytest.raises(FlowCertificateError, match="picked count"):
            conflict_graph_mis(Params(7, 3, 2))


@st.composite
def relabelings(draw):
    """(n, k, i, x, y): sigma_i on [n] needs 2k - i <= n; x and y are
    arbitrary subsets of [n] as masks."""
    k = draw(st.integers(2, 10))
    i = draw(st.integers(0, k))
    n = draw(st.integers(2 * k - i, 24))
    subset = st.sets(st.integers(1, n)).map(lambda e: sum(1 << p for p in e))
    return n, k, i, draw(subset), draw(subset)


class TestRelabeling:
    @given(relabelings())
    @example((4, 2, 2, 0b11110, 0b110))  # i = k: the identity
    @example((4, 2, 0, 0b11110, 0b110))  # {1,2} and {3,4} swapped whole
    def test_involution_preserving_intersections(self, drawn):
        n, k, i, x, y = drawn
        sigma_x, sigma_y = _swap_blocks([x, y], k, i)
        assert _swap_blocks([sigma_x], k, i) == [x]
        assert (sigma_x & sigma_y).bit_count() == (x & y).bit_count()
        swapped = {i + j: k + j for j in range(1, k - i + 1)}
        swapped.update({b: a for a, b in swapped.items()})
        for e in range(1, n + 1):
            assert _swap_blocks([1 << e], k, i) == [1 << swapped.get(e, e)]
        params = Params(n, k, 1)
        assert _swap_blocks([_canonical_anchor(params, i)], k, i) == \
            [params.base_set().mask]

    def test_identity_relabeling_raises(self, monkeypatch):
        # a relabeling that misses the anchor must be caught by a raised
        # check, not an assert that python -O strips
        monkeypatch.setattr(oracle, "_swap_blocks",
                            lambda masks, k, i: list(masks))
        with pytest.raises(FlowCertificateError, match="relabeling"):
            max_sum_nonempty(Params(7, 3, 2))


def per_size_reference(params):
    """The per-size oracle: side B scanned from all k-subsets and its
    conflict rows built for each anchor size.  Returns the value and the
    two witness mask sets."""
    n, k, s = params.n, params.k, params.s
    all_masks = ksubset_masks(n, k)
    base = params.base_set().mask
    side_a = [x for x in all_masks if (x & base).bit_count() >= s]
    best = None
    for i in range(max(s, 2 * k - n), k + 1):
        anchor_a = _canonical_anchor(params, i)
        side_b = [y for y in all_masks if (y & anchor_a).bit_count() >= s]
        value, picked_a, picked_b = _mis_two_copies(
            side_a, side_b, _conflict_rows(side_a, side_b, s))
        if best is None or value > best[0]:
            best = (value, frozenset(picked_a), frozenset(picked_b))
    return best


class TestSharedRowTable:
    def test_matches_per_size_reference(self):
        triples = [(n, k, s)
                   for n in range(2, 15) for k in range(2, n + 1)
                   if binom(n, k) <= 924 for s in range(1, k)]
        assert len(triples) == 391
        for n, k, s in triples:
            params = Params(n, k, s)
            value, (fam_a, fam_b) = max_sum_nonempty(params)
            assert (value, fam_a.masks(), fam_b.masks()) == \
                per_size_reference(params), (n, k, s)

    def test_one_row_table_per_instance(self, monkeypatch):
        calls = []

        def counting(masks1, masks2, s):
            calls.append(len(masks1))
            return _conflict_rows(masks1, masks2, s)

        monkeypatch.setattr(oracle, "_conflict_rows", counting)
        max_sum_nonempty(Params(12, 6, 3))
        # 872 distinct images of the 662 sets of side A over 4 sizes
        assert calls == [872]


def ordered_reference(params):
    """The audit over every ordered compatible anchor pair.  Returns its
    value and the MIS of each ordered pair (anchor_b, anchor_a)."""
    n, k, s = params.n, params.k, params.s
    all_masks = ksubset_masks(n, k)
    compatible = [[i for i, y in enumerate(all_masks)
                   if (x & y).bit_count() >= s] for x in all_masks]
    sides = [[all_masks[i] for i in side] for side in compatible]
    rows_against = [_conflict_rows(all_masks, side, s) for side in sides]
    values = {}
    for anchor_b, side_a in enumerate(compatible):
        for anchor_a in side_a:
            rows = [rows_against[anchor_a][i] for i in side_a]
            values[anchor_b, anchor_a], _, _ = _mis_two_copies(
                sides[anchor_b], sides[anchor_a], rows)
    return max(values.values()), values


class TestReductionAudit:
    def test_unordered_pairs_match_ordered_reference(self, monkeypatch):
        triples = [(n, k, s)
                   for n in range(4, 11) for k in range(2, n + 1)
                   if binom(n, k) <= 35 for s in range(1, k)]
        assert len(triples) == 103
        calls = []

        def counting(rows, num2):
            calls.append(num2)
            return unit_weight_independent_set(rows, num2)

        for n, k, s in triples:
            params = Params(n, k, s)
            want, values = ordered_reference(params)
            # swapping the anchors transposes the conflict graph
            for x, y in values:
                assert values[x, y] == values[y, x], (n, k, s, x, y)
            calls.clear()
            with monkeypatch.context() as patched:
                patched.setattr(oracle, "unit_weight_independent_set",
                                counting)
                assert max_sum_nonempty_unreduced(params) == want, (n, k, s)
            # every diagonal pair once, every other unordered pair once
            assert 2 * len(calls) == len(values) + binom(n, k), (n, k, s)

    def test_canonical_anchors_suffice(self):
        # every (n, k, s) with C(n, k) <= 35: the canonical-anchor oracle
        # agrees with the oracle that tries all compatible anchor pairs
        triples = [(n, k, s)
                   for n in range(4, 11) for k in range(2, n + 1)
                   if binom(n, k) <= 35 for s in range(1, k)]
        assert len(triples) == 103
        for n, k, s in triples:
            params = Params(n, k, s)
            reduced, _ = max_sum_nonempty(params)
            assert reduced == max_sum_nonempty_unreduced(params), (n, k, s)


#: Changes to the picked side-A masks of (7, 3, 2) that break the
#: witness, with the message of the check that must catch them.
BAD_WITNESSES = {
    "repeated set": (lambda picked: picked + picked[:1], "repeats a set"),
    "four elements": (lambda picked: picked + [0b11110], "not a 3-subset"),
    "element 0": (lambda picked: picked + [0b111], "not a 3-subset"),
    "element 8": (lambda picked: picked + [0b100000110], "not a 3-subset"),
}


class TestWitnessRows:
    def test_rows_match_the_family_rendering(self):
        # verify renders each witness row from the masks; the rows must be
        # those of the Families that max_sum_nonempty returns
        triples = [(n, k, s) for n in range(2, 12) for k in range(2, n + 1)
                   if binom(n, k) <= 462 for s in range(1, k)]
        triples += [(12, 5, 2), (12, 5, 3), (12, 6, 3)]
        for n, k, s in triples:
            params = Params(n, k, s)
            value, families = max_sum_nonempty(params)
            rows = [[",".join(map(str, m.elements)) for m in fam]
                    for fam in families]
            witness = verify_theorem(params).witness
            assert witness == {"family_a_size": len(rows[0]),
                               "family_b_size": len(rows[1]),
                               "family_a": rows[0],
                               "family_b": rows[1]}, (n, k, s)

    @pytest.mark.parametrize("bad", sorted(BAD_WITNESSES))
    def test_bad_witness_raises(self, monkeypatch, bad):
        change, message = BAD_WITNESSES[bad]
        solve = oracle._mis_two_copies

        def broken(masks1, masks2, rows):
            value, picked1, picked2 = solve(masks1, masks2, rows)
            return value, change(picked1), picked2

        monkeypatch.setattr(oracle, "_mis_two_copies", broken)
        for run in (max_sum_nonempty, verify_theorem):
            with pytest.raises(FlowCertificateError, match=message):
                run(Params(7, 3, 2))


class TestVerifyTheorem:
    @pytest.mark.parametrize("triple,want", [
        ((7, 3, 2), 14),
        ((9, 4, 2), 82),
        ((6, 3, 1), 20),
    ])
    def test_passes_in_range(self, triple, want):
        verdict = verify_theorem(Params(*triple))
        assert verdict.passed
        assert verdict.formula_value == verdict.oracle_value == want
        # the sweep times the record; the verdict carries no time
        assert verdict.to_record()["millis"] is None
        assert verdict.witness["family_a_size"] + \
            verdict.witness["family_b_size"] == want

    def test_flagged_outside_range(self):
        verdict = verify_theorem(Params(4, 3, 2))
        assert "outside theorem range" in verdict.detail
        assert verdict.formula_value == 8
        assert verdict.passed

    def test_record_shape(self):
        rec = verify_theorem(Params(7, 3, 2)).to_record("theorem")
        assert rec["check"] == "theorem"
        assert rec["status"] == "pass"
        assert (rec["n"], rec["k"], rec["s"], rec["l"]) == (7, 3, 2, 2)
