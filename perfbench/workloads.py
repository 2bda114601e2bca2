"""The benchmark's workloads and the independent checks of their outputs.

A workload is a list of ``crossint`` CLI calls made from a seed.  Each
call knows how many operations it attempts (one parameter triple through
one check group, or one family through ``shift``) and how to check its
report.  The checks never import ``crossint``: every expected value is
computed here from ``math.comb`` and bitmask enumeration.

An operation fails when the program reports it failed or skipped, exits
with an error, raises, or disagrees with the independent value.  The only
failures that are expected are the chain verdicts broken by the type-3
offset-edge rule (``chain_fault``); any other failure makes the run
incorrect.
"""

import json
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable

#: The orbit-sweep grid; 12,586 triples.
ORBIT_GRID = {"k": (3, 30), "s": (2, 29), "l": (0, 30)}

#: Single verify instances with C(n, k) from 210 to 924, s in {2, 3}.
VERIFY_INSTANCES = ((10, 4, 2), (11, 4, 2), (10, 5, 2), (11, 5, 2),
                    (12, 5, 2), (11, 5, 3), (12, 5, 3), (12, 6, 3))

#: The program's own limit for the quadratic reduction audit.
DEEP_AUDIT_CAP = 35

#: check-edges runs with n up to this, where the program also enumerates.
EDGES_MAX_N = 12

LEMMA1_GRID = {"k": (3, 5), "s": (2, 4), "l": (0, 2)}

SHIFT_FAMILIES = 24


@dataclass
class Call:
    """One CLI call: its arguments (without ``--out``), the name of the
    file it writes, the operations it attempts and its output check."""

    argv: list
    out: str
    ops: int
    check: Callable  # (path, exit code) -> Outcome


@dataclass
class Outcome:
    failed: int = 0
    problems: list = field(default_factory=list)  # all but known-fault failures


# -- independent values ------------------------------------------------------

def slack(n, k, s):
    return n - (2 * k - s + 1)


def size_c(n, k, s):
    """|C|: k-subsets of [n] meeting {1..k} in at least s elements."""
    return sum(comb(k, i) * comb(n - k, k - i) for i in range(s, k + 1))


def chain_fault(n, k, s):
    """The type-3 rule anchors at floor((k+s-1)/2) and starts at d = 1, so
    for odd k-l with floor((k-l)/2) >= s that profile has typed degree 1."""
    d = k - slack(n, k, s)
    return d % 2 == 1 and d // 2 >= s


def grid(spec):
    """Triples (n, k, s) of a k x s x l grid with 1 <= s < k, ascending."""
    return sorted((2 * k - s + 1 + l, k, s)
                  for k in range(spec["k"][0], spec["k"][1] + 1)
                  for s in range(spec["s"][0], spec["s"][1] + 1) if s < k
                  for l in range(spec["l"][0], spec["l"][1] + 1))


def mask_of(elements):
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


@lru_cache(maxsize=None)
def ksubset_masks(n, k):
    return tuple(mask_of(c) for c in combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def min_profile_intersections(n, k):
    """min |A ∩ B| per pair of profiles (|A ∩ [k]|, |B ∩ [k]|), by a scan
    of all pairs of k-subsets of [n]."""
    base = mask_of(range(1, k + 1))
    by_profile = {}
    for m in ksubset_masks(n, k):
        by_profile.setdefault((m & base).bit_count(), []).append(m)
    out = {}
    for i, orbit_i in by_profile.items():
        for t, orbit_t in by_profile.items():
            best = k
            for a in orbit_i:
                for b in orbit_t:
                    got = (a & b).bit_count()
                    if got < best:
                        best = got
                if best == 0:
                    break
            out[(i, t)] = best
    return out


def brute_force_edges(n, k, s):
    mins = min_profile_intersections(n, k)
    return {(i, t) for i in range(s, k) for t in range(s, k)
            if mins[(i, t)] < s}


def _comb0(a, b):
    return comb(a, b) if 0 <= b <= a else 0


def biregular_degree(n, k, i, t, s):
    """Neighbours in orbit t of one set in orbit i: j shared elements
    inside [k] and m outside, with j + m < s."""
    return sum(_comb0(i, j) * _comb0(k - i, t - j) * _comb0(k - i, m)
               * _comb0(n - 2 * k + i, k - t - m)
               for j in range(s) for m in range(s - j))


def weight(n, k, i):
    return comb(k, i) * comb(n - k, k - i)


def weight_laws_hold(n, k, s):
    """Both weight-ordering laws, evaluated from orbit sizes."""
    for i in range(s, k):
        if (weight(n, k, i) >= weight(n, k, k + s - 1 - i)) != (2 * i <= k + s - 1):
            return False
    low, high = (k - slack(n, k, s)) // 2, (k + s - 1) // 2
    d = 1
    while low - d >= s and high + d <= k - 1:
        if weight(n, k, low - d) > weight(n, k, high + d):
            return False
        d += 1
    return True


def witness_problem(n, k, s, value, witness):
    """Why a verify witness is not a valid pair of size ``value``, or None."""
    families = []
    for key in ("family_a", "family_b"):
        masks = set()
        for text in witness[key]:
            elems = [int(x) for x in text.split(",")]
            if len(elems) != k or len(set(elems)) != k \
                    or not all(1 <= e <= n for e in elems):
                return f"{key} member {text!r} is not a {k}-subset of [{n}]"
            masks.add(mask_of(elems))
        if not masks or len(masks) != len(witness[key]):
            return f"{key} is empty or repeats a set"
        families.append(masks)
    fam_a, fam_b = families
    if len(fam_a) + len(fam_b) != value:
        return f"witness sizes {len(fam_a)}+{len(fam_b)} != {value}"
    for a in fam_a:
        for b in fam_b:
            if (a & b).bit_count() < s:
                return f"cross pair shares fewer than {s} elements"
    return None


def shift_image(masks, i, j):
    """The (i, j)-shift of a family: a member moves unless its image is
    already present."""
    out = set()
    for m in masks:
        if m >> j & 1 and not m >> i & 1:
            moved = m ^ (1 << j) | (1 << i)
            out.add(m if moved in masks else moved)
        else:
            out.add(m)
    return out


def is_shifted(masks, n):
    return all(shift_image(masks, i, j) == masks
               for i in range(1, n) for j in range(i + 1, n + 1))


# -- report checks -------------------------------------------------------------

def _theorem(triple, recs, audit):
    n, k, s = triple
    want = size_c(n, k, s) + 1
    claims = {"theorem.max-sum"} | ({"theorem.reduction-audit"} if audit else set())
    if set(recs) != claims:
        return f"records {sorted(recs)}, expected {sorted(claims)}"
    for claim, rec in recs.items():
        if rec["status"] != "pass" or rec["oracle_value"] != want \
                or rec["formula_value"] != want:
            return (f"{claim}: {rec['status']}, oracle {rec['oracle_value']}, "
                    f"formula {rec['formula_value']}, |C|+1 = {want}")
    rec = recs["theorem.max-sum"]
    return witness_problem(n, k, s, rec["oracle_value"], rec["witness"])


def _lemma1(triple, recs, with_mis):
    want = size_c(*triple) - 1
    claims = {"lemma1.orbit-certificate"} | (
        {"lemma1.enumerated-mis"} if with_mis else set())
    if set(recs) != claims:
        return f"records {sorted(recs)}, expected {sorted(claims)}"
    for claim, rec in recs.items():
        if rec["status"] != "pass" or rec["oracle_value"] != want:
            return (f"{claim}: {rec['status']}, oracle {rec['oracle_value']}, "
                    f"|C|-1 = {want}")
    return None


def _lemma2(triple, recs):
    claims = {"weights.mirror-ordering", "weights.offset-ordering"}
    if set(recs) != claims:
        return f"records {sorted(recs)}, expected {sorted(claims)}"
    want = "pass" if weight_laws_hold(*triple) else "fail"
    for claim, rec in recs.items():
        if rec["status"] != want:
            return f"{claim}: {rec['status']}, laws say {want}"
    return None


def _chains(triple, recs):
    rec = recs.get("chains.valid")
    if rec is None or len(recs) != 1:
        return f"records {sorted(recs)}, expected ['chains.valid']"
    if rec["status"] == "fail" and chain_fault(*triple):
        return "fault"
    want = size_c(*triple) - 1
    if rec["status"] != "pass" or rec["formula_value"] != want \
            or rec["oracle_value"] != want:
        return (f"chains.valid: {rec['status']}, values "
                f"{rec['formula_value']}/{rec['oracle_value']}, |C|-1 = {want}")
    return None


def _edge_set(rec):
    return {tuple(int(x) for x in key.strip("()").split(","))
            for key in rec["witness"]["degrees"]}


def _edges(triple, recs, all_recs):
    rec = recs.get("edges.rule-equivalence")
    if rec is None or len(recs) != 1 or rec["status"] != "pass":
        return f"edges records {sorted(recs)} not a single pass"
    bireg = all_recs.get("biregular", {}).get("edges.biregular-premise")
    if bireg is None or bireg["status"] != "pass":
        return "no passing biregular record carries the orbit-graph edges"
    want = brute_force_edges(*triple)
    if _edge_set(bireg) != want:
        return f"orbit-graph edges {sorted(_edge_set(bireg))} != {sorted(want)}"
    return None


def _biregular(triple, recs):
    n, k, s = triple
    rec = recs.get("edges.biregular-premise")
    if rec is None or len(recs) != 1 or rec["status"] != "pass":
        return f"biregular records {sorted(recs)} not a single pass"
    for key, degrees in rec["witness"]["degrees"].items():
        i, t = (int(x) for x in key.strip("()").split(","))
        want = [[biregular_degree(n, k, i, t, s)], [biregular_degree(n, k, t, i, s)]]
        if degrees != want:
            return f"degrees of {key}: {degrees} != {want}"
    return None


def sweep_check(expected, report_problem=None):
    """Check of a sweep report; ``expected`` maps each triple to its
    per-group checks ``{group: fn(triple, records, all_records)}``."""

    def check(path, code):
        total = sum(len(groups) for groups in expected.values())
        if code not in (0, 1):
            return Outcome(total, [f"exit code {code}"])
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)["records"]
        by_triple = {}
        for rec in records:
            key = (rec["n"], rec["k"], rec["s"])
            by_triple.setdefault(key, {}).setdefault(
                rec["check"], {})[rec["claim"]] = rec
        out = Outcome()
        extra = set(by_triple) - set(expected)
        if extra:
            out.problems.append(f"records for unrequested triples {sorted(extra)[:3]}")
        any_fail = any(rec["status"] == "fail" for rec in records)
        if code != (1 if any_fail else 0):
            out.problems.append(f"exit code {code} with fail records: {any_fail}")
        for triple, groups in expected.items():
            got = by_triple.get(triple, {})
            for group, fn in groups.items():
                verdict = fn(triple, got.get(group, {}), got)
                if verdict is None:
                    continue
                out.failed += 1
                if verdict != "fault":
                    out.problems.append(f"{triple} {group}: {verdict}")
        return out

    return check


def shift_check(n, k, size):
    def check(path, code):
        if code != 0:
            return Outcome(1, [f"shift exit code {code}"])
        with open(path, encoding="utf-8") as fh:
            rows = [line for line in fh.read().splitlines() if line.strip()]
        masks = set()
        for row in rows:
            elems = [int(x) for x in row.split(",")]
            if len(elems) != k or len(set(elems)) != k \
                    or not all(1 <= e <= n for e in elems):
                return Outcome(1, [f"shift output {row!r} is not a {k}-subset of [{n}]"])
            masks.add(mask_of(elems))
        if len(masks) != size or len(rows) != size:
            return Outcome(1, [f"shift output has {len(rows)} rows, "
                               f"{len(masks)} distinct, input {size}"])
        if not is_shifted(masks, n):
            return Outcome(1, ["shift output is not fixed by every (i, j)-shift"])
        return Outcome()

    return check


# -- workloads -----------------------------------------------------------------

def _sweep_argv(command, spec, *extra):
    argv = [command]
    for axis in ("k", "s", "l"):
        lo, hi = spec[axis]
        argv += [f"--{axis}-range", f"{lo}:{hi}"]
    return argv + list(extra) + ["--jobs", "1"]


def verify_oracle(rng, work):
    """A few large flow networks: oracle, bipartite and sets do the work."""
    calls = []
    for n, k, s in VERIFY_INSTANCES:
        calls.append(Call(
            ["verify", "--n", str(n), "--k", str(k), "--s", str(s), "--jobs", "1"],
            f"verify-{n}-{k}-{s}.json", 1,
            sweep_check({(n, k, s): {"theorem": lambda t, r, a: _theorem(t, r, False)}})))
    rng.shuffle(calls)
    return calls


def orbit_sweep(rng, work):
    """Tens of thousands of tiny orbit-level instances and report records.

    The grid and call order are fixed: its known-fault operations must
    not depend on the seed."""
    triples = grid(ORBIT_GRID)
    lemmas = {t: {"lemma1": lambda t, r, a: _lemma1(t, r, False),
                  "lemma2": lambda t, r, a: _lemma2(t, r)} for t in triples}
    chains = {t: {"chains": lambda t, r, a: _chains(t, r)} for t in triples}
    return [
        Call(_sweep_argv("check-lemmas", ORBIT_GRID, "--checks", "lemma1,lemma2",
                         "--cap", "1"),
             "lemmas.json", 2 * len(triples), sweep_check(lemmas)),
        Call(_sweep_argv("check-chains", ORBIT_GRID), "chains.json",
             len(triples), sweep_check(chains)),
    ]


def _random_family(rng):
    n = rng.randint(9, 12)
    k = rng.randint(3, 5)
    members = rng.sample(list(combinations(range(1, n + 1), k)), rng.randint(20, 60))
    return n, k, members


def set_audit(rng, work):
    """Set-level audits on tiny instances: hundreds of mid-sized networks,
    orbit enumeration and shifting."""
    calls = []
    for k in range(2, 7):
        for s in range(1, k):
            l = 0
            while comb(2 * k - s + 1 + l, k) <= DEEP_AUDIT_CAP:
                n = 2 * k - s + 1 + l
                calls.append(Call(
                    ["verify", "--n", str(n), "--k", str(k), "--s", str(s),
                     "--deep-audit", "--jobs", "1"],
                    f"audit-{n}-{k}-{s}.json", 1,
                    sweep_check({(n, k, s): {
                        "theorem": lambda t, r, a: _theorem(t, r, True)}})))
                l += 1
    for k in range(3, 7):
        for s in range(2, k):
            top = EDGES_MAX_N - (2 * k - s + 1)
            spec = {"k": (k, k), "s": (s, s), "l": (0, top)}
            expected = {t: {"edges": _edges,
                            "biregular": lambda t, r, a: _biregular(t, r)}
                        for t in grid(spec)}
            calls.append(Call(_sweep_argv("check-edges", spec),
                              f"edges-{k}-{s}.json", 2 * len(expected),
                              sweep_check(expected)))
    lemma1 = {t: {"lemma1": lambda t, r, a: _lemma1(t, r, True)}
              for t in grid(LEMMA1_GRID)}
    calls.append(Call(_sweep_argv("check-lemmas", LEMMA1_GRID, "--checks", "lemma1"),
                      "lemma1.json", len(lemma1), sweep_check(lemma1)))
    for idx in range(SHIFT_FAMILIES):
        n, k, members = _random_family(rng)
        path = os.path.join(work, f"family-{idx}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(",".join(map(str, m)) + "\n" for m in members))
        calls.append(Call(["shift", path, "--n", str(n)], f"shift-{idx}.txt", 1,
                          shift_check(n, k, len(members))))
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "verify-oracle": verify_oracle,
    "orbit-sweep": orbit_sweep,
    "set-audit": set_audit,
}


def build(name, seed, work):
    """The workload's calls; the same seed gives the same calls."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), work)
