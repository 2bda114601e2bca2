"""Ground-level exact combinatorics: k-subsets, families, intersections.

Element labels are 1-based; a set over [n] is stored as a bitmask in
which bit p (p >= 1) holds element p.  All arithmetic is exact Python
integers, so values can grow without wrapping; enumeration is the only
operation that needs an explicit cap.
"""

import math
from dataclasses import dataclass, field
from functools import total_ordering
from itertools import combinations

from .errors import GroundMismatch, ParamsOutOfRange

#: Hard ceiling for raw subset enumeration; oracles layer their own,
#: tighter caps on top of this one.
DEFAULT_ENUMERATION_CAP = 1 << 20


def binom(a: int, b: int) -> int:
    """Exact binomial coefficient C(a, b); 0 when b > a."""
    if a < 0 or b < 0:
        raise ValueError(f"binom requires nonnegative arguments, got ({a}, {b})")
    return math.comb(a, b)


def mask_elements(mask: int) -> tuple:
    """The elements of a set mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@total_ordering
@dataclass(frozen=True)
class KSet:
    """A k-element subset of [n], bit p of ``mask`` storing element p."""

    mask: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ground size must be nonnegative, got {self.n}")
        if self.mask < 0 or self.mask & 1 or self.mask >> (self.n + 1):
            raise ValueError(
                f"mask {self.mask:#x} has bits outside positions 1..{self.n}")

    @classmethod
    def from_elements(cls, elements, n: int) -> "KSet":
        mask = 0
        for e in elements:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} outside ground set [{n}]")
            bit = 1 << e
            if mask & bit:
                raise ValueError(f"duplicate element {e}")
            mask |= bit
        return cls(mask, n)

    @property
    def k(self) -> int:
        return self.mask.bit_count()

    @property
    def elements(self) -> tuple:
        return mask_elements(self.mask)

    def __lt__(self, other: "KSet") -> bool:
        return self.elements < other.elements

    def __repr__(self):
        return "{%s}" % ",".join(str(e) for e in self.elements)


class Family:
    """A duplicate-free collection of k-subsets of [n], iterated in
    lexicographic order of the sorted element tuples."""

    __slots__ = ("n", "k", "members", "_mask_set")

    def __init__(self, members=(), *, n=None, k=None):
        members = tuple(members)
        if members:
            if n is None:
                n = members[0].n
            if k is None:
                k = members[0].k
        if n is None or k is None:
            raise ValueError("an empty family needs explicit n and k")
        for m in members:
            if m.n != n:
                raise GroundMismatch(f"member {m} has ground {m.n}, expected {n}")
            if m.k != k:
                raise ValueError(f"member {m} has size {m.k}, expected {k}")
        self.n = n
        self.k = k
        self.members = tuple(sorted(set(members), key=lambda m: m.elements))
        self._mask_set = frozenset(m.mask for m in self.members)

    @classmethod
    def from_masks(cls, masks, n: int, k: int) -> "Family":
        return cls((KSet(m, n) for m in set(masks)), n=n, k=k)

    @property
    def ground(self) -> tuple:
        return (self.n, self.k)

    def masks(self) -> frozenset:
        return self._mask_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, item):
        if isinstance(item, KSet):
            return item.n == self.n and item.mask in self._mask_set
        return False

    def __eq__(self, other):
        return (isinstance(other, Family) and self.ground == other.ground
                and self._mask_set == other._mask_set)

    def __hash__(self):
        return hash((self.ground, self._mask_set))

    def __repr__(self):
        return f"Family(n={self.n}, k={self.k}, {list(self.members)!r})"


@dataclass(frozen=True)
class Params:
    """Validated parameter triple (n, k, s) with derived slack l.

    Requires k > s >= 1 and n >= k.  The slack l = n - (2k - s + 1) is
    nonnegative exactly when n > 2k - s; operations that need that range
    check it themselves.
    """

    n: int
    k: int
    s: int
    # derived once; left out of init, repr, == and hash
    l: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.s >= 1:
            raise ParamsOutOfRange(f"need s >= 1, got s={self.s}")
        if not self.k > self.s:
            raise ParamsOutOfRange(f"need k > s, got k={self.k}, s={self.s}")
        if not self.n >= self.k:
            raise ParamsOutOfRange(f"need n >= k, got n={self.n}, k={self.k}")
        object.__setattr__(self, "l", self.n - (2 * self.k - self.s + 1))

    def base_set(self) -> KSet:
        """The set {1, ..., k}."""
        return KSet((1 << (self.k + 1)) - 2, self.n)


def ksubset_masks(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """The masks of all C(n, k) subsets of [n] in lexicographic order."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    total = binom(n, k)
    if total > cap:
        raise OverflowError(f"C({n},{k}) = {total} exceeds enumeration cap {cap}")
    bits = [1 << e for e in range(1, n + 1)]
    return [sum(combo) for combo in combinations(bits, k)]


def enumerate_ksubsets(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Family:
    """All C(n, k) subsets of [n] in lexicographic order."""
    return Family([KSet(m, n) for m in ksubset_masks(n, k, cap)], n=n, k=k)


def is_s_cross_intersecting(f1: Family, f2: Family, s: int):
    """Whether every cross pair (A, B) in f1 x f2 has |A ∩ B| >= s.

    Returns (True, None), or (False, (A, B)) with the first violating
    pair in lexicographic order of (A, B).
    """
    if f1.n != f2.n:
        raise GroundMismatch(f"ground sizes differ: {f1.n} vs {f2.n}")
    for a in f1:
        for b in f2:
            if (a.mask & b.mask).bit_count() < s:
                return False, (a, b)
    return True, None


def family_to_text(family: Family) -> str:
    """Canonical text form: one set per line, comma-separated ascending."""
    return "\n".join(",".join(str(e) for e in m.elements) for m in family) + "\n"


def family_from_text(text: str, n: int | None = None) -> Family:
    """Parse the canonical text form; blank lines are ignored.

    The ground size defaults to the largest element seen.  A set given
    on two lines is an error naming both line numbers.
    """
    rows = {}  # each set, as an element set, with its first line
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            elems = tuple(int(tok) for tok in line.split(","))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {line!r} is not a comma-separated "
                             f"list of integers") from exc
        if len(set(elems)) != len(elems):
            raise ValueError(f"line {lineno}: duplicate elements in {line!r}")
        seen = rows.setdefault(frozenset(elems), lineno)
        if seen != lineno:
            raise ValueError(f"lines {seen} and {lineno}: the set {line!r} "
                             f"is repeated")
    if not rows:
        raise ValueError("no sets found in input")
    if n is None:
        n = max(max(r) for r in rows)
    members = [KSet.from_elements(r, n) for r in rows]
    sizes = {m.k for m in members}
    if len(sizes) != 1:
        raise ValueError(f"mixed set sizes {sorted(sizes)}; families are uniform")
    return Family(members, n=n, k=members[0].k)
