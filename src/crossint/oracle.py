"""Brute-force ground truth for the maximum of |A| + |B|.

Nothing in this module assumes the closed-form answer.  The maximum of
|A| + |B| over nonempty s-cross-intersecting pairs is computed exactly:
anchoring one member per side reduces the search to one exact
maximum-independent-set computation per anchor intersection size, and
simultaneous relabeling of the ground set makes a single canonical
anchor pair per size sufficient.  An unreduced variant (each unordered
compatible anchor pair, no relabeling) audits the reduction itself.

The relabeling for anchor size i is sigma_i, the involution of [n] that
swaps i+j with k+j for j = 1..k-i.  It maps the base B0 = {1..k} to the
anchor A0 = {1..i} | {k+1..2k-i} and preserves every |x ∩ y|, so the
sets s-meeting A0 are the images of the sets s-meeting B0, and the row
of x against those images is the row of sigma_i(x) against side A.  One
row table, for the images of side A under every sigma_i, therefore
serves all anchor sizes of an instance.

Conflict graphs have unit weights and are dense, so each is stored as
one bitset row per side-1 set, built by a bit-sliced intersection
counter (``_conflict_rows``) that each row resumes from the previous
set's shared lowest elements, and its MIS is read off the König cover
that ``bipartite.unit_weight_independent_set`` finds on those rows,
with the flow core that also serves the weighted orbit graphs.
"""

from .bipartite import unit_weight_independent_set
from .errors import EnumerationTooLarge, FlowCertificateError, ParamsOutOfRange
from .extremal import size_extremal_family
from .report import Verdict
from .sets import Family, Params, binom, ksubset_masks, mask_elements

#: Largest C(n, k) the oracle will enumerate by default; the resulting
#: conflict graphs have at most 2 * cap vertices.
DEFAULT_ORACLE_CAP = 3500


def _conflict_rows(masks1, masks2, s: int) -> list:
    """For each x in masks1, the bitset of the indices b with
    |x ∩ masks2[b]| < s: the rows of ``_iter_conflict_rows`` as a list.

    The oracle's conflict graphs and ``orbitgraph.check_biregularity``
    (orbit degrees as row popcounts) need every row;
    ``sweep._enumerated_conflict`` reads the generator itself and stops
    at the first nonzero row.  Rows are cheapest when masks1 is in lex
    order, as ``ksubset_masks`` lists it, but any order, repeats and
    mixed sizes give the same rows.
    """
    return list(_iter_conflict_rows(masks1, masks2, s))


def _iter_conflict_rows(masks1, masks2, s: int):
    """Yield, for each x in masks1 in turn, the bitset of the indices b
    with |x ∩ masks2[b]| < s.

    Bit b of ``col[e]`` is set iff element e lies in masks2[b] (the key
    is the mask 1 << e); the table is built once, before the first row.
    A bit-sliced counter runs over the elements of x, lowest first: bit
    b of ``hits[j]`` is set once masks2[b] has met at least j of them,
    so the row is the complement of ``hits[s]``, and element d + 1
    updates the slices ``steps[d]``, j = min(d + 1, s) down to 1.
    ``states[d]`` keeps the counter after the d lowest elements of the
    previous set, so x resumes it from the lowest bit where the two
    differ, and a row costs at most s big-int operations per element of
    x from that bit up.  Consecutive lex-ordered k-sets share their
    lowest elements, so most rows count one or two elements instead of k.
    """
    full = (1 << len(masks2)) - 1
    ground = 0
    for y in masks2:
        ground |= y
    backwards = masks2[::-1]
    col = {1 << e: int("".join(["01"[y >> e & 1] for y in backwards]), 2)
           for e in range(ground.bit_length()) if ground >> e & 1}
    steps = [range(min(d, s), 0, -1) for d in range(1, ground.bit_count() + 1)]
    hits = [full] + [0] * s
    states, last, row = [hits], 0, full ^ hits[s]
    for x in masks1:
        x &= ground
        fresh = x ^ last
        if fresh:
            fresh &= -fresh
            top = (x & (fresh - 1)).bit_count()
            del states[top + 1:]
            hits = states[top]
            rest = x & -fresh
            last = x
            while rest:
                low = rest & -rest
                rest ^= low
                column = col[low]
                hits = hits[:]
                for j in steps[top]:
                    hits[j] |= hits[j - 1] & column
                top += 1
                states.append(hits)
            row = full ^ hits[s]
        yield row


def _mis_two_copies(masks1, masks2, rows):
    """Exact unit-weight MIS of the conflict graph between two mask lists,
    given as the ``_conflict_rows`` of masks1 against masks2.

    Returns (size, chosen side-1 masks, chosen side-2 masks), each in
    the order of its input list.
    """
    value, chosen1, chosen2 = unit_weight_independent_set(rows, len(masks2))
    picked1 = [masks1[a] for a in chosen1]
    picked2 = [masks2[b] for b in chosen2]
    if value != len(picked1) + len(picked2):
        raise FlowCertificateError("MIS value differs from the picked count")
    return value, picked1, picked2


def conflict_graph_mis(params: Params, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Exact MIS cardinality of the conflict graph on two copies of the
    extremal family minus the base set."""
    if params.l < 0:
        raise ParamsOutOfRange(f"need slack l >= 0, got {params.l}")
    if binom(params.n, params.k) > cap:
        raise EnumerationTooLarge(
            f"C({params.n},{params.k}) exceeds cap {cap}")
    base = params.base_set().mask
    ground = [x for x in ksubset_masks(params.n, params.k)
              if x != base and (x & base).bit_count() >= params.s]
    value, _, _ = _mis_two_copies(ground, ground,
                                  _conflict_rows(ground, ground, params.s))
    return value


def _canonical_anchor(params: Params, i: int) -> int:
    """Mask of {1..i} | {k+1..2k-i}: a k-set meeting the base in i elements."""
    k = params.k
    mask = 0
    for e in range(1, i + 1):
        mask |= 1 << e
    for e in range(k + 1, 2 * k - i + 1):
        mask |= 1 << e
    return mask


def _swap_blocks(masks, k: int, i: int) -> list:
    """The images of ``masks`` under sigma_i, which swaps element i+j
    with k+j for j = 1..k-i: the block of bits i+1..k moves up by k-i,
    the block k+1..2k-i moves down by as much, the rest stays."""
    d = k - i
    low = ((1 << d) - 1) << (i + 1)
    keep = ~(low | low << d)
    return [(x & keep) | ((x & low) << d) | ((x >> d) & low) for x in masks]


def _max_sum_masks(params: Params, cap: int):
    """The maximum of |A| + |B| and a realizing pair as two mask lists.

    Any optimal pair contains members A0, B0 with |A0 ∩ B0| = i >= s
    (and i >= 2k-n by counting), and relabeling the ground set moves
    them to B0 = {1..k}, A0 = {1..i} | {k+1..2k-i}.  For each i the sets
    conflicting with an anchor are discarded from the opposite side,
    which leaves both anchors isolated, so every maximum independent set
    of the remaining conflict graph contains them: both families are
    nonempty by construction rather than by post-filtering.

    Side A (the sets s-meeting B0) is fixed.  Side B for size i is
    listed as sigma_i(side A), whose members are exactly the sets
    s-meeting A0 = sigma_i(B0); since |x ∩ sigma_i(z)| = |sigma_i(x) ∩ z|,
    the row of x is the row of sigma_i(x) against side A.  So one
    ``_conflict_rows`` call over the distinct images for every i builds
    all the rows of the instance.  Raises FlowCertificateError unless
    each list holds distinct k-subsets of [n].
    """
    n, k, s = params.n, params.k, params.s
    if binom(n, k) > cap:
        raise EnumerationTooLarge(f"C({n},{k}) exceeds cap {cap}")
    base = params.base_set().mask
    side_a = [x for x in ksubset_masks(n, k) if (x & base).bit_count() >= s]

    sides_b = {}
    for i in range(max(s, 2 * k - n), k + 1):
        anchor_a = _canonical_anchor(params, i)
        if (anchor_a & base).bit_count() != i:
            raise FlowCertificateError(f"anchor profile is not {i}")
        if _swap_blocks([base], k, i) != [anchor_a]:
            raise FlowCertificateError(
                f"relabeling does not map the base to the anchor of size {i}")
        sides_b[i] = _swap_blocks(side_a, k, i)
    images = list(dict.fromkeys(y for side_b in sides_b.values()
                                for y in side_b))
    table = dict(zip(images, _conflict_rows(images, side_a, s)))

    best = None
    for i, side_b in sides_b.items():
        value, picked_a, picked_b = _mis_two_copies(
            side_a, side_b, [table[y] for y in side_b])
        if _canonical_anchor(params, i) not in picked_a or base not in picked_b:
            raise FlowCertificateError(f"MIS dropped an anchor at size {i}")
        if best is None or value > best[0]:
            best = (value, picked_a, picked_b)

    value, picked_a, picked_b = best
    for picked in (picked_a, picked_b):
        if len(set(picked)) != len(picked):
            raise FlowCertificateError("a witness family repeats a set")
        for x in picked:
            if x.bit_count() != k or x & 1 or x >> (n + 1):
                raise FlowCertificateError(f"witness member {x:#x} is not "
                                           f"a {k}-subset of [{n}]")
    return value, picked_a, picked_b


def _witness_rows(masks) -> list:
    """Each set as its comma-separated elements, in lex order of the
    element tuples: the rows of the Family of ``masks``."""
    return [",".join(map(str, e)) for e in sorted(map(mask_elements, masks))]


def max_sum_nonempty(params: Params, cap: int = DEFAULT_ORACLE_CAP):
    """Exact maximum of |A| + |B| over nonempty s-cross-intersecting
    pairs, with a realizing pair of Families (see ``_max_sum_masks``)."""
    value, picked_a, picked_b = _max_sum_masks(params, cap)
    witness = (Family.from_masks(picked_a, params.n, params.k),
               Family.from_masks(picked_b, params.n, params.k))
    return value, witness


def max_sum_nonempty_unreduced(params: Params,
                               cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Audit oracle: maximize over every compatible anchor pair instead
    of one canonical anchor per intersection size.  Quadratic in C(n, k);
    intended for tiny parameters only.

    The sets compatible with an anchor form the opposite side; every
    set's row against each such side is built once.  Swapping the anchors
    swaps the sides, transposing the conflict graph and keeping its MIS,
    so only the pairs with anchor_a >= anchor_b by lex index are solved.
    """
    n, k, s = params.n, params.k, params.s
    if binom(n, k) > cap:
        raise EnumerationTooLarge(f"C({n},{k}) exceeds cap {cap}")
    all_masks = ksubset_masks(n, k)
    compatible = [[i for i, y in enumerate(all_masks)
                   if (x & y).bit_count() >= s] for x in all_masks]
    sides = [[all_masks[i] for i in side] for side in compatible]
    rows_against = [_conflict_rows(all_masks, side, s) for side in sides]
    best = -1
    for anchor_b, side_a in enumerate(compatible):
        for anchor_a in side_a[side_a.index(anchor_b):]:
            rows = [rows_against[anchor_a][i] for i in side_a]
            best = max(best, _mis_two_copies(sides[anchor_b], sides[anchor_a],
                                             rows)[0])
    return best


def verify_theorem(params: Params, cap: int = DEFAULT_ORACLE_CAP) -> Verdict:
    """Compare the closed-form optimum against the enumeration oracle.

    Inside the admissible range (slack l >= 0) the closed form is the
    extremal family size plus one.  Below it (n <= 2k - s) every two
    k-sets already intersect in >= s elements, so the comparison value
    becomes the pigeonhole optimum 2 * C(n, k) and the verdict is
    flagged accordingly instead of raising.
    """
    in_range = params.l >= 0
    if in_range:
        formula = size_extremal_family(params) + 1
        detail = ""
    else:
        formula = 2 * binom(params.n, params.k)
        detail = ("outside theorem range (n <= 2k-s): comparing against the "
                  "pigeonhole value 2*C(n,k)")
    value, picked_a, picked_b = _max_sum_masks(params, cap)
    rows_a, rows_b = _witness_rows(picked_a), _witness_rows(picked_b)
    witness = {
        "family_a_size": len(rows_a),
        "family_b_size": len(rows_b),
        "family_a": rows_a,
        "family_b": rows_b,
    }
    return Verdict(
        claim="theorem.max-sum",
        params=params,
        formula_value=formula,
        oracle_value=value,
        passed=value == formula,
        witness=witness,
        detail=detail,
    )
