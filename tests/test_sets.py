import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossint import (Family, GroundMismatch, KSet, Params, ParamsOutOfRange,
                      binom, enumerate_ksubsets, family_from_text,
                      family_to_text, is_s_cross_intersecting,
                      ksubset_masks)
from crossint.extremal import build_extremal_family


def kset(*elements, n):
    return KSet.from_elements(elements, n)


class TestBinom:
    def test_direct(self):
        assert binom(5, 2) == 10

    def test_empty_set_case(self):
        assert binom(4, 0) == 1

    def test_b_larger_than_a(self):
        assert binom(3, 5) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 2)
        with pytest.raises(ValueError):
            binom(3, -2)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_pascal_identity(self, a, b):
        assert binom(a + 1, b + 1) == binom(a, b) + binom(a, b + 1)

    @given(st.integers(0, 60))
    def test_row_sum(self, a):
        assert sum(binom(a, b) for b in range(a + 1)) == 2 ** a


class TestKSet:
    def test_elements_and_k(self):
        a = kset(3, 1, 5, n=6)
        assert a.elements == (1, 3, 5)
        assert a.k == 3

    def test_rejects_out_of_ground(self):
        with pytest.raises(ValueError):
            kset(1, 7, n=6)
        with pytest.raises(ValueError):
            kset(0, 2, n=6)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            KSet.from_elements([2, 2], 5)

    def test_lex_order_on_element_tuples(self):
        # mask order would say {2,3} < {1,4}; lexicographic order must not
        assert kset(1, 4, n=4) < kset(2, 3, n=4)
        assert sorted([kset(2, 3, n=4), kset(1, 4, n=4)])[0].elements == (1, 4)

    @given(st.integers(1, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
    def test_elements_round_trip(self, drawn):
        n, elements = drawn
        assert KSet.from_elements(elements, n).elements == tuple(sorted(elements))


class TestEnumeration:
    def test_lex_order_4_2(self):
        fam = enumerate_ksubsets(4, 2)
        assert [m.elements for m in fam] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_single_set(self):
        assert [m.elements for m in enumerate_ksubsets(3, 3)] == [(1, 2, 3)]

    def test_empty_subset(self):
        fam = enumerate_ksubsets(3, 0)
        assert len(fam) == 1
        assert fam.members[0].elements == ()

    def test_cap_guard(self):
        with pytest.raises(OverflowError):
            enumerate_ksubsets(30, 15, cap=1000)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_ksubsets(3, 4)

    def test_masks_are_the_enumerated_sets(self):
        # Family orders its members lexicographically, so this also pins
        # the order of the masks
        for n in range(8):
            for k in range(n + 1):
                assert ksubset_masks(n, k) == [
                    m.mask for m in enumerate_ksubsets(n, k)]

    def test_masks_check_cap_and_arguments(self):
        with pytest.raises(OverflowError):
            ksubset_masks(30, 15, cap=1000)
        with pytest.raises(ValueError):
            ksubset_masks(3, 4)


def meets(a, b, s):
    """Whether the one-set families {a} and {b} are s-cross-intersecting,
    that is, whether |a ∩ b| >= s."""
    return is_s_cross_intersecting(Family([a]), Family([b]), s)[0]


class TestIntersection:
    """The intersection count that is_s_cross_intersecting compares
    with s, read at its boundary on one-set families."""

    def test_basic(self):
        a, b = kset(1, 2, 3, n=5), kset(2, 3, 4, n=5)
        assert meets(a, b, 2) and not meets(a, b, 3)

    def test_identity(self):
        a = kset(1, 2, 3, n=5)
        assert meets(a, a, a.k) and not meets(a, a, a.k + 1)

    def test_disjoint(self):
        a, b = kset(1, 2, n=4), kset(3, 4, n=4)
        assert meets(a, b, 0) and not meets(a, b, 1)

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            meets(kset(1, 2, n=4), kset(1, 2, n=5), 1)


class TestCrossIntersecting:
    def test_true(self):
        f1 = Family([kset(1, 2, 3, n=4)])
        f2 = Family([kset(2, 3, 4, n=4)])
        assert is_s_cross_intersecting(f1, f2, 2) == (True, None)

    def test_false_with_witness(self):
        f1 = Family([kset(1, 2, 3, n=4)])
        f2 = Family([kset(2, 3, 4, n=4)])
        ok, witness = is_s_cross_intersecting(f1, f2, 3)
        assert not ok
        assert witness == (kset(1, 2, 3, n=4), kset(2, 3, 4, n=4))

    def test_witness_is_lex_first(self):
        f1 = Family([kset(1, 2, 3, n=5), kset(1, 2, 4, n=5)])
        f2 = Family([kset(1, 4, 5, n=5), kset(3, 4, 5, n=5)])
        ok, witness = is_s_cross_intersecting(f1, f2, 2)
        assert not ok
        assert witness == (kset(1, 2, 3, n=5), kset(1, 4, 5, n=5))

    def test_extremal_family_against_base(self):
        params = Params(7, 3, 2)
        fam = build_extremal_family(params)
        assert len(fam) == 13
        base = Family([params.base_set()])
        assert is_s_cross_intersecting(fam, base, 2) == (True, None)

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            is_s_cross_intersecting(Family([kset(1, 2, n=4)]),
                                    Family([kset(1, 2, n=5)]), 1)


class TestFamily:
    def test_sorted_and_deduped(self):
        fam = Family([kset(2, 3, n=4), kset(1, 2, n=4), kset(2, 3, n=4)])
        assert [m.elements for m in fam] == [(1, 2), (2, 3)]

    def test_empty_needs_ground(self):
        with pytest.raises(ValueError):
            Family([])
        assert len(Family([], n=5, k=2)) == 0

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            Family([kset(1, 2, n=4), kset(1, 2, 3, n=4)])

    def test_mixed_grounds_rejected(self):
        with pytest.raises(GroundMismatch):
            Family([kset(1, 2, n=4), kset(1, 3, n=5)])

    def test_membership(self):
        fam = Family([kset(1, 2, n=4)])
        assert kset(1, 2, n=4) in fam
        assert kset(1, 3, n=4) not in fam


class TestParams:
    def test_slack(self):
        assert Params(9, 4, 2).l == 2
        assert Params(7, 4, 2).l == 0
        assert Params(6, 4, 2).l == -1

    def test_slack_is_derived_not_a_constructor_field(self):
        # l is stored once but stays out of repr, ==, hash and __init__
        params = Params(9, 4, 2)
        assert repr(params) == "Params(n=9, k=4, s=2)"
        assert params == Params(9, 4, 2) and params != Params(10, 4, 2)
        assert hash(params) == hash(Params(9, 4, 2)) == hash((9, 4, 2))
        assert {params: 1}[Params(9, 4, 2)] == 1
        with pytest.raises(TypeError):
            Params(9, 4, 2, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.l = 5

    def test_replace_recomputes_slack(self):
        params = Params(9, 4, 2)
        wider = dataclasses.replace(params, n=12)
        assert wider == Params(12, 4, 2) and wider.l == 5
        assert dataclasses.replace(params, s=3).l == 3
        assert dataclasses.replace(params) == params
        with pytest.raises(ValueError):
            dataclasses.replace(params, l=0)

    def test_base_set(self):
        assert Params(7, 3, 2).base_set().elements == (1, 2, 3)

    @pytest.mark.parametrize("n,k,s", [(7, 3, 3), (7, 3, 0), (7, 2, 3), (3, 4, 2)])
    def test_rejects_bad_triples(self, n, k, s):
        with pytest.raises(ParamsOutOfRange):
            Params(n, k, s)


class TestCanonicalText:
    def test_render(self):
        fam = Family([kset(1, 2, 4, n=5), kset(1, 2, 3, n=5)])
        assert family_to_text(fam) == "1,2,3\n1,2,4\n"

    def test_round_trip(self):
        fam = Family([kset(2, 4, 5, n=6), kset(1, 2, 3, n=6)])
        assert family_from_text(family_to_text(fam), n=6) == fam

    def test_ground_defaults_to_max_element(self):
        fam = family_from_text("1,2\n3,5\n")
        assert fam.n == 5

    def test_blank_lines_ignored(self):
        fam = family_from_text("\n1,2\n\n2,3\n")
        assert len(fam) == 2

    def test_repeated_set_names_both_lines(self):
        with pytest.raises(ValueError, match=r"lines 1 and 3"):
            family_from_text("2,3\n1,3\n2,3\n")
        with pytest.raises(ValueError, match=r"lines 2 and 4"):
            family_from_text("\n1,2\n1,3\n2,1\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            family_from_text("1,two\n")
        with pytest.raises(ValueError):
            family_from_text("1,1\n")
        with pytest.raises(ValueError):
            family_from_text("1,2\n1,2,3\n")
        with pytest.raises(ValueError):
            family_from_text("   \n")
