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

    Scans pairs (i, j) in lexicographic order, applies the first shift
    that has movers, rewriting only those members, and restarts the
    scan; deterministic.  Terminates because every applied shift
    strictly decreases the sum of all element labels.
    """
    pairs = _pairs(family.n)
    masks = family.masks()
    while True:
        for i, j in pairs:
            movers = _movers(i, j, masks)
            if movers:
                masks = _move(i, j, masks, movers)
                break
        else:
            return Family.from_masks(masks, family.n, family.k)
