"""The left-compression (shifting) operator on sets and families.

The (i, j)-shift with i < j replaces element j by element i in a set,
provided j is present and i is absent; on a family, a set moves only
when its image is not already a member, so the family size is always
preserved.  A family fixed by every shift is called shifted.
"""

from .errors import BadIndices, ShiftSizeChanged
from .sets import Family, KSet


def _check_indices(i: int, j: int, n: int):
    if not 1 <= i < j <= n:
        raise BadIndices(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")


def shift_set(i: int, j: int, a: KSet) -> KSet:
    """Replace element j by element i when j is in A and i is not."""
    _check_indices(i, j, a.n)
    step = 1 << i | 1 << j
    return KSet(a.mask ^ step, a.n) if a.mask & step == 1 << j else a


def _pairs(n: int):
    """Index pairs (i, j), 1 <= i < j <= n, in lexicographic order."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def _movers(i: int, j: int, masks: frozenset) -> list:
    """The members the (i, j)-shift moves: they contain j, lack i, and
    their image is not already a member."""
    step = 1 << i | 1 << j
    return [m for m in masks if m & step == 1 << j and m ^ step not in masks]


def _move(i: int, j: int, masks: frozenset, movers: list) -> frozenset:
    """``masks`` with each mover replaced by its image."""
    step = 1 << i | 1 << j
    return masks.difference(movers).union([m ^ step for m in movers])


def shift_family(i: int, j: int, family: Family) -> Family:
    """Shift every member whose image is not already present."""
    _check_indices(i, j, family.n)
    masks = family.masks()
    movers = _movers(i, j, masks)
    if not movers:
        return family
    out = _move(i, j, masks, movers)
    if len(out) != len(masks):
        raise ShiftSizeChanged(f"({i}, {j})-shift changed the family size")
    return Family.from_masks(out, family.n, family.k)


def is_shifted(family: Family) -> bool:
    """Whether every (i, j)-shift fixes the family, i.e. no shift has a
    mover."""
    masks = family.masks()
    return not any(_movers(i, j, masks) for i, j in _pairs(family.n))


def shift_closure(family: Family) -> Family:
    """Apply shifts until the family is fixed by all of them.

    One pass over the pairs (i, j) in lexicographic order applies each
    shift that has movers, rewriting only those members; deterministic.
    A shift leaves its own pair without movers, and it gives none to an
    earlier pair (a, b), so each applied shift is the lexicographically
    first with movers: the shifts, and the family, are those of a scan
    restarted at (1, 2) after every shift.

    Why no earlier pair gains a mover: let F have none for the pairs
    before (i, j), G be its (i, j)-shift and (a, b) precede (i, j).  A
    new mover of (a, b) is an added image y = x - j + i of a mover x,
    with b in y and a not, or a member z = x - a + b of G whose
    (a, b)-image x was removed; either way a < i, as y holds i and x
    lacks it.  For y, y - b + a is in G: when b = i it is x - j + a, in F
    by stability under (a, j) and unremoved as it lacks j; when b != i
    it is the (i, j)-image of x - b + a, which is in F by stability under
    (a, b), so it was added, or was in F and stays as it lacks j.  For z:
    z holds j, so it is no added image but a member of F that stayed, so
    no mover; stability under (a, j) applied to z (when b = i) or under
    (a, b) applied to its image z - j + i (when b != i) puts x - j + i
    in F, so x was no mover.
    """
    masks = family.masks()
    for i, j in _pairs(family.n):
        movers = _movers(i, j, masks)
        if movers:
            masks = _move(i, j, masks, movers)
    return Family.from_masks(masks, family.n, family.k)
