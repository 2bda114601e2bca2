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


def _shift_mask(i: int, j: int, mask: int) -> int:
    if mask >> j & 1 and not mask >> i & 1:
        return mask ^ (1 << j) | (1 << i)
    return mask


def shift_set(i: int, j: int, a: KSet) -> KSet:
    """Replace element j by element i when j is in A and i is not."""
    _check_indices(i, j, a.n)
    new = _shift_mask(i, j, a.mask)
    return a if new == a.mask else KSet(new, a.n)


def shift_family(i: int, j: int, family: Family) -> Family:
    """Shift every member whose image is not already present."""
    _check_indices(i, j, family.n)
    masks = family.masks()
    out = {_shift_mask(i, j, m) for m in masks}
    out |= {m for m in masks if _shift_mask(i, j, m) in masks}
    if len(out) != len(masks):
        raise ShiftSizeChanged(f"({i}, {j})-shift changed the family size")
    return Family.from_masks(out, family.n, family.k)


def is_shifted(family: Family) -> bool:
    """Whether every (i, j)-shift fixes the family.

    Equivalent to: the image of every member under every shift is again
    a member, which avoids rebuilding the family per index pair.
    """
    masks = family.masks()
    n = family.n
    for m in masks:
        for j in range(2, n + 1):
            if not m >> j & 1:
                continue
            for i in range(1, j):
                if m >> i & 1:
                    continue
                if (m ^ (1 << j) | (1 << i)) not in masks:
                    return False
    return True


def shift_closure(family: Family) -> Family:
    """Apply shifts until the family is fixed by all of them.

    Scans pairs (i, j) in lexicographic order and restarts after any
    change; deterministic.  Terminates because every applied shift
    strictly decreases the sum of all element labels.
    """
    n, k = family.n, family.k
    masks = family.masks()
    changed = True
    while changed:
        changed = False
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                out = {_shift_mask(i, j, m) for m in masks}
                out |= {m for m in masks if _shift_mask(i, j, m) in masks}
                if out != masks:
                    masks = out
                    changed = True
                    break
            if changed:
                break
    return Family.from_masks(masks, n, k)
