"""Brute-force ground truth for the maximum of |A| + |B|.

Nothing in this module assumes the closed-form answer.  The maximum of
|A| + |B| over nonempty s-cross-intersecting pairs is computed exactly:
anchoring one member per side reduces the search to one exact
maximum-independent-set computation per anchor intersection size, and
simultaneous relabeling of the ground set makes a single canonical
anchor pair per size sufficient.  A fully unreduced variant (every
anchor pair) is kept for auditing the reduction itself.

Conflict graphs have unit weights, so each MIS is solved on integer
adjacency lists by Hopcroft-Karp matching and the König cover
(``bipartite.unit_weight_independent_set``); the weighted Dinic core
serves the weighted orbit graph only.
"""

import time
from dataclasses import dataclass

from .bipartite import unit_weight_independent_set
from .errors import EnumerationTooLarge, FlowCertificateError, ParamsOutOfRange
from .extremal import build_extremal_family, size_extremal_family
from .report import Verdict
from .sets import Family, Params, binom, enumerate_ksubsets

#: Largest C(n, k) the oracle will enumerate by default; the resulting
#: conflict graphs have at most 2 * cap vertices.
DEFAULT_ORACLE_CAP = 3500


@dataclass(frozen=True)
class ConflictGraph:
    """Bipartite graph on two copies of a family; (A, B) is an edge iff
    |A ∩ B| < s."""

    ground: Family
    s: int
    edges: tuple  # ordered (KSet on side 1, KSet on side 2) pairs

    def edge_count(self) -> int:
        return len(self.edges)


def build_conflict_graph(ground: Family, s: int,
                         cap: int = DEFAULT_ORACLE_CAP) -> ConflictGraph:
    if len(ground) == 0:
        raise ValueError("conflict graph needs a nonempty ground family")
    if len(ground) > cap:
        raise EnumerationTooLarge(
            f"ground family of {len(ground)} sets exceeds cap {cap}")
    members = ground.members
    masks = [m.mask for m in members]
    edges = tuple((members[a], members[b])
                  for a, nbrs in enumerate(_conflict_lists(masks, masks, s))
                  for b in nbrs)
    return ConflictGraph(ground, s, edges)


def _conflict_lists(masks1, masks2, s: int):
    """For each x in masks1, the indices b with |x ∩ masks2[b]| < s."""
    return [[b for b, y in enumerate(masks2) if (x & y).bit_count() < s]
            for x in masks1]


def _mis_two_copies(masks1, masks2, s: int):
    """Exact unit-weight MIS of the conflict graph between two mask lists.

    Returns (size, chosen side-1 masks, chosen side-2 masks), each in
    the order of its input list.
    """
    value, chosen1, chosen2 = unit_weight_independent_set(
        _conflict_lists(masks1, masks2, s), len(masks2))
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
    ground = [m.mask for m in build_extremal_family(params) if m.mask != base]
    value, _, _ = _mis_two_copies(ground, ground, params.s)
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


def max_sum_nonempty(params: Params, cap: int = DEFAULT_ORACLE_CAP):
    """Exact maximum of |A| + |B| over nonempty s-cross-intersecting
    pairs, with a realizing pair.

    Any optimal pair contains members A0, B0 with |A0 ∩ B0| = i >= s
    (and i >= 2k-n by counting), and relabeling the ground set moves
    them to B0 = {1..k}, A0 = {1..i} | {k+1..2k-i}.  For each i the sets
    conflicting with an anchor are discarded from the opposite side,
    which leaves both anchors isolated, so every maximum independent set
    of the remaining conflict graph contains them: both families are
    nonempty by construction rather than by post-filtering.
    """
    n, k, s = params.n, params.k, params.s
    if binom(n, k) > cap:
        raise EnumerationTooLarge(f"C({n},{k}) exceeds cap {cap}")
    all_masks = [m.mask for m in enumerate_ksubsets(n, k)]
    base = params.base_set().mask

    side_a = [x for x in all_masks if (x & base).bit_count() >= s]
    best = None
    for i in range(max(s, 2 * k - n), k + 1):
        anchor_a = _canonical_anchor(params, i)
        if (anchor_a & base).bit_count() != i:
            raise FlowCertificateError(f"anchor profile is not {i}")
        side_b = [y for y in all_masks if (y & anchor_a).bit_count() >= s]
        value, picked_a, picked_b = _mis_two_copies(side_a, side_b, s)
        if anchor_a not in picked_a or base not in picked_b:
            raise FlowCertificateError(f"MIS dropped an anchor at size {i}")
        if best is None or value > best[0]:
            best = (value, picked_a, picked_b)

    value, picked_a, picked_b = best
    witness = (Family.from_masks(picked_a, n, k),
               Family.from_masks(picked_b, n, k))
    return value, witness


def max_sum_nonempty_unreduced(params: Params,
                               cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Audit oracle: maximize over every compatible anchor pair instead
    of one canonical anchor per intersection size.  Quadratic in C(n, k);
    intended for tiny parameters only.
    """
    n, k, s = params.n, params.k, params.s
    if binom(n, k) > cap:
        raise EnumerationTooLarge(f"C({n},{k}) exceeds cap {cap}")
    all_masks = [m.mask for m in enumerate_ksubsets(n, k)]
    # the sets compatible with an anchor form the opposite side
    compatible = {x: [y for y in all_masks if (x & y).bit_count() >= s]
                  for x in all_masks}
    best = -1
    for anchor_b in all_masks:
        side_a = compatible[anchor_b]
        for anchor_a in side_a:
            value, _, _ = _mis_two_copies(side_a, compatible[anchor_a], s)
            best = max(best, value)
    return best


def verify_theorem(params: Params, cap: int = DEFAULT_ORACLE_CAP) -> Verdict:
    """Compare the closed-form optimum against the enumeration oracle.

    Inside the admissible range (slack l >= 0) the closed form is the
    extremal family size plus one.  Below it (n <= 2k - s) every two
    k-sets already intersect in >= s elements, so the comparison value
    becomes the pigeonhole optimum 2 * C(n, k) and the verdict is
    flagged accordingly instead of raising.
    """
    start = time.perf_counter()
    in_range = params.l >= 0
    if in_range:
        formula = size_extremal_family(params) + 1
        detail = ""
    else:
        formula = 2 * binom(params.n, params.k)
        detail = ("outside theorem range (n <= 2k-s): comparing against the "
                  "pigeonhole value 2*C(n,k)")
    value, (fam_a, fam_b) = max_sum_nonempty(params, cap=cap)
    millis = (time.perf_counter() - start) * 1000.0
    witness = {
        "family_a_size": len(fam_a),
        "family_b_size": len(fam_b),
        "family_a": [",".join(map(str, m.elements)) for m in fam_a],
        "family_b": [",".join(map(str, m.elements)) for m in fam_b],
    }
    return Verdict(
        claim="theorem.max-sum",
        params=params,
        formula_value=formula,
        oracle_value=value,
        passed=value == formula,
        witness=witness,
        detail=detail,
        millis=millis,
    )
