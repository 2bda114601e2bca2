"""The extremal family, its orbit weights, and the weight-ordering laws.

The extremal family for (n, k, s) consists of all k-subsets of [n]
meeting the base set {1,...,k} in at least s elements.  Its orbits under
permutations fixing {1,...,k} setwise are indexed by the intersection
profile i, with exact weight C(k,i) * C(n-k,k-i).

Mirror law (lemma2).  For 2 <= s < k, slack l >= 0 and s <= i <= k-1,
w(i) >= w(k+s-1-i) exactly when 2i <= k+s-1.  Write j = k+s-1-i.

1. At l = 0, n-k = k-s+1, so C(n-k, k-i) = C(k-s+1, i-s+1) = C(n-k, k-j)
   and the second factors cancel: w(i)/w(j) = C(k,i)/C(k,i-s+1).
   C(k,x) depends only on |x - k/2|, falling as that grows, and for
   b < a, |a - k/2| <= |b - k/2| exactly when a + b <= k.  As s >= 2,
   b = i-s+1 < i = a, so the ratio is >= 1 exactly when 2i <= k+s-1,
   and > 1 exactly when 2i < k+s-1.
2. For s <= i < j <= k, w(i)/w(j) strictly increases with n: with
   m = n-k, C(m,k-i)/C(m,k-j) is the product over t in [k-j, k-i) of
   (m-t)/(t+1), each factor positive (m >= k-s+1 >= k-i) and strictly
   increasing in m.

So below the midpoint w(i)/w(j) > 1 at l = 0 and grows with l; above
it w(j)/w(i) does the same; at the midpoint i = j.  At s = 1 step 1
fails: i-s+1 = i, every mirror pair ties at l = 0, and the law as
stated does not hold there.

Offset law (lemma2).  For s <= lo < hi <= k-1 and l >= 0, pairing the
factors of the two binomials gives
    w(lo)/w(hi) = prod_{t=1..hi-lo} (lo+t)(n-2k+lo+t) / (k-hi+t)^2.
Put sigma = lo+hi-k, x = k-hi+t >= 1 and r = 2k-2(lo+hi)-l+s-1.  Then
lo+t = x+sigma and n-2k+lo+t = x-sigma-r > 0, so factor t is
1 - (r x + sigma(sigma+r))/x^2, at most 1 iff r x + sigma(sigma+r) >= 0.
The checker pairs floor((k-l)/2)-d with floor((k+s-1)/2)+d, so
r = (k-l mod 2) + (k+s-1 mod 2) is 0, 1 or 2; the offset edges of
``orbitgraph.classify_edges`` give r = 1 - (k+s-1 mod 2) for odd k-l
and k+s-1 mod 2 for even k-l, so 0 or 1.  As sigma is an integer,
sigma(sigma+r) >= 0 for r <= 1, and at r = 2 it is (sigma+1)^2 - 1 >= -1
while 2x >= 2.  So every factor is at most 1, and w(lo) <= w(hi) on
every pair either one states.

Tests pin each step of both proofs in cross-multiplied integers.  Both
laws and the orbit graph slice one row w(0..k) per (n, k), built by the
recurrence w(i+1) = w(i) (k-i)^2 / ((i+1)(n-2k+i+1)); a division with a
remainder raises ArithmeticError (not an assert: python -O keeps it).
"""

from functools import lru_cache
from math import comb

from .errors import IndexNotMeaningful, ParamsOutOfRange
from .report import Verdict
from .sets import DEFAULT_ENUMERATION_CAP, Family, Params, binom, enumerate_ksubsets


def size_extremal_family(params: Params) -> int:
    """Closed-form size: sum of C(k,i) C(n-k,k-i) over profiles s..k."""
    n, k, s = params.n, params.k, params.s
    return sum(comb(k, i) * comb(n - k, k - i) for i in range(s, k + 1))


def build_extremal_family(params: Params,
                          cap: int = DEFAULT_ENUMERATION_CAP) -> Family:
    """All k-subsets meeting the base set in >= s elements, lex order."""
    base = params.base_set().mask
    sets = enumerate_ksubsets(params.n, params.k, cap=cap)
    members = [m for m in sets if (m.mask & base).bit_count() >= params.s]
    return Family(members, n=params.n, k=params.k)


def orbit_weight(i: int, params: Params) -> int:
    """Number of k-subsets whose intersection profile with the base is i."""
    if not params.s <= i <= params.k:
        raise IndexNotMeaningful(
            f"profile {i} outside {{{params.s},...,{params.k}}}")
    n, k = params.n, params.k
    return binom(k, i) * binom(n - k, k - i)


# A sweep runs in (n, k, s) order and needs one live row.  A loop over
# l = 0..60 within each (k, s) meets 61 rows, all but one of them again
# in the next (k, s) block, so 64 rows keep those repeats hits.
@lru_cache(maxsize=64)
def _weight_row(n: int, k: int) -> tuple:
    """(w(0), ..., w(k)) by the exact recurrence, from the first profile
    with sets (i >= 2k-n, so n-2k+i+1 >= 1); earlier ones weigh 0."""
    first = max(0, 2 * k - n)
    w = binom(k, first) * binom(n - k, k - first)
    row = [0] * first + [w]
    for i in range(first, k):
        w, rest = divmod(w * (k - i) * (k - i), (i + 1) * (n - 2 * k + i + 1))
        if rest:
            raise ArithmeticError(f"orbit weight recurrence left remainder "
                                  f"{rest} at profile {i + 1} for n={n}, k={k}")
        row.append(w)
    return tuple(row)


def orbit_weights(params: Params) -> list:
    """[w(s), ..., w(k)], sliced from the weight row of (n, k)."""
    return list(_weight_row(params.n, params.k)[params.s:])


def min_pair_intersection(i: int, t: int, params: Params) -> int:
    """Minimum of |A ∩ B| over profile-i sets A and profile-t sets B.

    The overlaps inside and outside the base set minimize independently:
    max(0, i+t-k) inside a k-element universe, and
    max(0, (k-i)+(k-t)-(n-k)) outside.
    """
    n, k, s = params.n, params.k, params.s
    for x in (i, t):
        if not s <= x <= k:
            raise IndexNotMeaningful(f"profile {x} outside {{{s},...,{k}}}")
    return max(0, i + t - k) + max(0, 2 * k - i - t - (n - k))


def _weight_law_verdict(claim: str, params: Params, checked: int,
                        failed: list) -> Verdict:
    """A weight law's verdict: the count of instances checked and, when
    some fail, their dicts as the witness and the first three in the
    detail."""
    return Verdict(
        claim=claim,
        params=params,
        passed=not failed,
        witness=failed or None,
        detail=(f"{checked} instances checked"
                + (f", {len(failed)} failed: {failed[:3]}" if failed else "")),
    )


def check_mirror_weight_ordering(params: Params) -> Verdict:
    """For each profile i in {s..k-1}, the weight dominates the weight of
    the mirrored profile k+s-1-i exactly when 2i <= k+s-1.

    The comparison 2i <= k+s-1 is kept in integers to avoid rounding.
    Returns a Verdict over the k-s profiles whose witness lists each
    failing profile as a dict (i, partner, both weights, the two sides
    of the law, ``"ok": False``), or None when all hold.
    """
    k, s = params.k, params.s
    weights = orbit_weights(params)
    failed = []
    for i in range(s, k):
        j = k + s - 1 - i
        wi, wj = weights[i - s], weights[j - s]
        lhs = wi >= wj
        rhs = 2 * i <= k + s - 1
        if lhs != rhs:
            failed.append({
                "i": i, "partner": j, "weight_i": wi, "weight_partner": wj,
                "dominates": lhs, "below_midpoint": rhs, "ok": False,
            })
    return _weight_law_verdict("weights.mirror-ordering", params, k - s,
                               failed)


def check_offset_weight_ordering(params: Params) -> Verdict:
    """For each offset i >= 1 with both profiles meaningful, the weight at
    floor((k-l)/2) - i is at most the weight at floor((k+s-1)/2) + i.

    Vacuously passes when no offset keeps both profiles in {s..k-1}.
    Requires slack l >= 0.  Returns a Verdict whose witness lists each
    failing offset as a dict (offset, both profiles and their weights,
    ``"ok": False``), or None when all hold.
    """
    k, s, l = params.k, params.s, params.l
    if l < 0:
        raise ParamsOutOfRange(f"need slack l >= 0, got l={l}")
    a = (k - l) // 2
    b = (k + s - 1) // 2
    weights = orbit_weights(params)
    offsets = max(0, min(a - s, k - 1 - b))
    failed = []
    for i in range(1, offsets + 1):
        wlow, whigh = weights[a - i - s], weights[b + i - s]
        if wlow > whigh:
            failed.append({
                "offset": i, "low": a - i, "high": b + i,
                "weight_low": wlow, "weight_high": whigh, "ok": False,
            })
    return _weight_law_verdict("weights.offset-ordering", params, offsets,
                               failed)


def extremal_pair(params: Params, cap: int = DEFAULT_ENUMERATION_CAP):
    """The witness pair (whole extremal family, {base set}).

    The pair is s-cross-intersecting by construction and its sizes sum
    to size_extremal_family + 1.
    """
    family = build_extremal_family(params, cap=cap)
    single = Family([params.base_set()], n=params.n, k=params.k)
    return family, single
