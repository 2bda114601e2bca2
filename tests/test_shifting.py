import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossint import (BadIndices, Family, KSet, Params, enumerate_ksubsets,
                      is_s_cross_intersecting, is_shifted, shift_closure,
                      shift_family, shift_set, shifting)
from crossint.extremal import build_extremal_family

from conftest import random_cross_pair


def kset(*elements, n):
    return KSet.from_elements(elements, n)


def fam(*element_tuples, n):
    return Family([KSet.from_elements(t, n) for t in element_tuples], n=n,
                  k=len(element_tuples[0]))


@st.composite
def small_families(draw):
    n = draw(st.integers(3, 7))
    k = draw(st.integers(1, min(4, n)))
    universe = list(combinations(range(1, n + 1), k))
    picked = draw(st.sets(st.sampled_from(universe), min_size=1, max_size=8))
    return Family([KSet.from_elements(t, n) for t in picked], n=n, k=k)


@st.composite
def families_up_to_9(draw):
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, min(5, n)))
    universe = list(combinations(range(1, n + 1), k))
    picked = draw(st.sets(st.sampled_from(universe), min_size=1,
                          max_size=min(24, len(universe))))
    return Family([KSet.from_elements(t, n) for t in picked], n=n, k=k)


# -- the two-comprehension shift, kept as the reference ----------------------

def reference_shift(i, j, masks):
    """Every member's image, plus each member whose image is present."""
    def image(m):
        return m ^ (1 << j) | (1 << i) if m >> j & 1 and not m >> i & 1 else m
    return ({image(m) for m in masks}
            | {m for m in masks if image(m) in masks})


def reference_closure(family, applied=None):
    """Lexicographic (i, j) scan that compares whole shifted families and
    restarts after every change; each applied pair is appended to
    ``applied`` when given."""
    n, masks = family.n, family.masks()
    changed = True
    while changed:
        changed = False
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                out = reference_shift(i, j, masks)
                if out != masks:
                    masks = out
                    changed = True
                    if applied is not None:
                        applied.append((i, j))
                    break
            if changed:
                break
    return Family.from_masks(masks, n, family.k)


@st.composite
def families_up_to_12(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(5, n)))
    universe = list(combinations(range(1, n + 1), k))
    picked = draw(st.sets(st.sampled_from(universe), min_size=1,
                          max_size=min(60, len(universe))))
    return Family([KSet.from_elements(t, n) for t in picked], n=n, k=k)


def set_audit_families():
    """The 24 families that the set-audit benchmark shifts at seed 0."""
    rng = random.Random("set-audit/0")
    families = []
    for _ in range(24):
        n = rng.randint(9, 12)
        k = rng.randint(3, 5)
        members = rng.sample(list(combinations(range(1, n + 1), k)),
                             rng.randint(20, 60))
        families.append(Family([KSet.from_elements(t, n) for t in members],
                               n=n, k=k))
    return families


def closure_with_shifts(family):
    """shift_closure(family) and the (i, j) of each shift it applied."""
    applied = []
    move = shifting._move

    def recording(i, j, masks, movers):
        applied.append((i, j))
        return move(i, j, masks, movers)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(shifting, "_move", recording)
        return shift_closure(family), applied


class TestAgainstReference:
    @given(families_up_to_9())
    def test_closure(self, family):
        assert shift_closure(family) == reference_closure(family)

    @given(families_up_to_12())
    def test_closure_applies_the_reference_shifts(self, family):
        # one pass applies the same (i, j) sequence as a restarted scan
        want = []
        closed, applied = closure_with_shifts(family)
        assert closed == reference_closure(family, want)
        assert applied == want

    @pytest.mark.parametrize("n,k", [(5, 2), (5, 3), (6, 1)])
    def test_closure_applies_the_reference_shifts_exhaustively(self, n, k):
        # every family of k-subsets of [n]
        universe = enumerate_ksubsets(n, k).members
        for picks in range(1, 1 << len(universe)):
            family = Family([m for b, m in enumerate(universe)
                             if picks >> b & 1], n=n, k=k)
            want = []
            closed, applied = closure_with_shifts(family)
            assert closed == reference_closure(family, want)
            assert applied == want

    def test_set_audit_families_scan_each_pair_once(self, monkeypatch):
        # restarting the scan at (1, 2) after each of the 864 applied
        # shifts made 26,100 _movers scans on these families; one pass
        # makes 1,235, one per pair
        families = set_audit_families()
        scans = []
        movers = shifting._movers

        def counting(i, j, masks):
            scans.append((i, j))
            return movers(i, j, masks)

        monkeypatch.setattr(shifting, "_movers", counting)
        results = [closure_with_shifts(family) for family in families]
        assert sum(len(applied) for _, applied in results) == 864
        assert len(scans) == sum(comb(f.n, 2) for f in families) == 1_235
        monkeypatch.undo()
        assert all(is_shifted(closed) for closed, _ in results)

    @given(families_up_to_9())
    def test_every_shift_and_is_shifted(self, family):
        masks = family.masks()
        fixed = True
        for i in range(1, family.n):
            for j in range(i + 1, family.n + 1):
                out = reference_shift(i, j, masks)
                assert shift_family(i, j, family).masks() == out
                fixed = fixed and out == masks
        assert is_shifted(family) == fixed


class TestShiftSet:
    def test_moves_element(self):
        assert shift_set(1, 3, kset(3, 4, 5, n=5)) == kset(1, 4, 5, n=5)

    def test_target_already_present(self):
        a = kset(1, 3, n=4)
        assert shift_set(1, 3, a) is a

    def test_source_absent(self):
        a = kset(1, 3, n=4)
        assert shift_set(2, 4, a) is a

    @pytest.mark.parametrize("i,j", [(3, 1), (2, 2), (0, 3), (1, 9)])
    def test_bad_indices(self, i, j):
        with pytest.raises(BadIndices):
            shift_set(i, j, kset(1, 2, n=5))


class TestShiftFamily:
    def test_image_already_present_keeps_both(self):
        f = fam((2, 3), (1, 3), n=3)
        assert shift_family(1, 2, f) == f

    def test_simple_move(self):
        assert shift_family(1, 2, fam((2, 3), n=3)) == fam((1, 3), n=3)

    def test_bad_indices(self):
        with pytest.raises(BadIndices):
            shift_family(2, 1, fam((1, 2), n=3))

    @given(small_families())
    def test_size_preserved(self, family):
        for i in range(1, family.n):
            for j in range(i + 1, family.n + 1):
                assert len(shift_family(i, j, family)) == len(family)


class TestIsShifted:
    def test_base_singleton(self):
        assert is_shifted(fam((1, 2), n=4))

    def test_moved_singleton(self):
        assert not is_shifted(fam((2, 3), n=3))

    def test_extremal_family_is_shifted(self):
        assert is_shifted(build_extremal_family(Params(7, 3, 2)))


class TestShiftClosure:
    def test_two_step_example(self):
        assert shift_closure(fam((2, 3), n=3)) == fam((1, 2), n=3)

    def test_fixed_point(self):
        f = fam((1, 2), (1, 3), n=4)
        assert is_shifted(f)
        assert shift_closure(f) == f

    @given(small_families())
    def test_idempotent_size_preserving_and_shifted(self, family):
        closed = shift_closure(family)
        assert len(closed) == len(family)
        assert is_shifted(closed)
        assert shift_closure(closed) == closed

    def test_closure_contains_base_exhaustively_tiny(self):
        # every nonempty subfamily of pairs over [4] compresses onto {1,2}
        universe = enumerate_ksubsets(4, 2).members
        base = kset(1, 2, n=4)
        for picks in range(1, 1 << len(universe)):
            members = [m for b, m in enumerate(universe) if picks >> b & 1]
            closed = shift_closure(Family(members, n=4, k=2))
            assert base in closed


class TestCrossIntersectionPreservation:
    def test_exhaustive_tiny(self):
        # all cross-intersecting pairs of subfamilies of pairs over [4]
        universe = enumerate_ksubsets(4, 2).members
        families = []
        for picks in range(1, 1 << len(universe)):
            members = [m for b, m in enumerate(universe) if picks >> b & 1]
            families.append(Family(members, n=4, k=2))
        checked = 0
        for f1 in families:
            for f2 in families:
                if not is_s_cross_intersecting(f1, f2, 1)[0]:
                    continue
                checked += 1
                for i in range(1, 4):
                    for j in range(i + 1, 5):
                        g1 = shift_family(i, j, f1)
                        g2 = shift_family(i, j, f2)
                        assert is_s_cross_intersecting(g1, g2, 1)[0]
        assert checked > 100

    def test_random_pairs(self):
        rng = random.Random(7121)
        menu = [(6, 3, 2), (7, 3, 2), (7, 4, 2), (8, 4, 3), (6, 2, 1)]
        for _ in range(60):
            n, k, s = rng.choice(menu)
            f1, f2 = random_cross_pair(rng, n, k, s)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    g1 = shift_family(i, j, f1)
                    g2 = shift_family(i, j, f2)
                    assert is_s_cross_intersecting(g1, g2, s)[0]
                    assert (len(g1), len(g2)) == (len(f1), len(f2))
