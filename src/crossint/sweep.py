"""Batch driver: run selected checks over a parameter grid.

Checks are registered by name; every check maps one parameter triple to
verdicts (pass / fail / skip), yielded one at a time so that the sweep
times each as it arrives and files it under the check's name.
Instances are independent, so a sweep can fan out over worker
processes.  Records come out one triple at a time, in a fixed order
that never depends on scheduling, so a caller can write them out as
they arrive.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import itemgetter

from . import __version__
from .bipartite import max_weight_independent_set
from .errors import ConfigError, EnumerationTooLarge
from .extremal import (check_mirror_weight_ordering, check_offset_weight_ordering,
                       min_pair_intersection, size_extremal_family)
from .oracle import (DEFAULT_ORACLE_CAP, _iter_conflict_rows,
                     conflict_graph_mis, max_sum_nonempty_unreduced,
                     verify_theorem)
from .orbitgraph import (_class_certificate, _decompose, _flow_amounts_hold,
                         _orbit_masks, _transposed, _verdict_by_offsets,
                         build_orbit_graph, check_biregularity,
                         validate_decomposition)
from .report import ReportBundle, Verdict
from .sets import Params, binom

#: Anchor-pair audit is quadratic in C(n, k); keep it tiny.
DEEP_AUDIT_CAP = 35
#: check-edges enumerates both orbits of each profile pair up to this n.
EXHAUSTIVE_N_CAP = 12


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid (k x s x either l or n) plus selected checks."""

    ks: tuple
    ss: tuple
    ls: tuple | None = None
    ns: tuple | None = None
    checks: tuple = ("theorem",)
    cap: int = DEFAULT_ORACLE_CAP
    jobs: int = 1
    deep_audit: bool = False

    def __post_init__(self):
        if not self.ks:
            raise ConfigError("empty k range")
        if not self.ss:
            raise ConfigError("empty s range")
        if (self.ls is None) == (self.ns is None):
            raise ConfigError("specify exactly one of an l range or an n range")
        if not (self.ls or self.ns):
            raise ConfigError("empty l/n range")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ConfigError(f"unknown checks {sorted(unknown)}; "
                              f"available: {CHECK_NAMES}")
        if not self.checks:
            raise ConfigError("no checks selected")
        repeated = sorted({c for c in self.checks if self.checks.count(c) > 1})
        if repeated:
            raise ConfigError(f"checks named more than once: {repeated}")
        if self.cap <= 0:
            raise ConfigError("cap must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if next(self._triples(), None) is None:
            raise ConfigError("no valid (n, k, s) triple in the grid: each "
                              "needs 1 <= s < k <= n")

    def _triples(self):
        """The grid's valid (n, k, s) triples, unordered, with repeats."""
        for k in self.ks:
            for s in self.ss:
                if not 1 <= s < k:
                    continue
                ns = self.ns if self.ls is None else [
                    2 * k - s + 1 + l for l in self.ls]
                yield from ((n, k, s) for n in ns if n >= k)

    def instances(self):
        """All valid (n, k, s) triples of the grid, ascending."""
        return sorted(set(self._triples()))

    def to_dict(self) -> dict:
        return {
            "ks": list(self.ks), "ss": list(self.ss),
            "ls": list(self.ls) if self.ls is not None else None,
            "ns": list(self.ns) if self.ns is not None else None,
            "checks": list(self.checks), "cap": self.cap,
            "exhaustive_n_cap": EXHAUSTIVE_N_CAP,
            "jobs": self.jobs, "deep_audit": self.deep_audit,
        }


#: Why lemma1, lemma2, chains and biregular skip a triple.
NEEDS_ORBIT_LAYER = "inapplicable: needs s >= 2 and slack l >= 0"


def _check_theorem(params: Params, spec: SweepSpec):
    if binom(params.n, params.k) > spec.cap:
        yield Verdict(None, params,
                      detail=f"skipped: cap (C(n,k) > {spec.cap})")
        return
    verdict = verify_theorem(params, cap=spec.cap)
    yield verdict
    if spec.deep_audit and binom(params.n, params.k) > DEEP_AUDIT_CAP:
        yield Verdict("theorem.reduction-audit", params, detail="skipped: "
                      f"deep-audit cap (C(n,k) > {DEEP_AUDIT_CAP})")
    elif spec.deep_audit:
        unreduced = max_sum_nonempty_unreduced(params, cap=spec.cap)
        yield Verdict(
            claim="theorem.reduction-audit",
            params=params,
            formula_value=verdict.oracle_value,
            oracle_value=unreduced,
            passed=verdict.oracle_value == unreduced,
            detail="canonical-anchor oracle vs all-anchor-pairs oracle",
        )


def _check_lemma1(params: Params, spec: SweepSpec):
    """The orbit-graph MWIS against |C| - 1: one side's weight when the
    class's chain paths carry a flow that saturates both sides, else the
    bipartite MWIS.  Their structure is checked once per class, by
    ``_class_certificate``; only their amounts, per triple."""
    if params.s < 2 or params.l < 0:
        yield Verdict(None, params, detail=NEEDS_ORBIT_LAYER)
        return
    graph = build_orbit_graph(params)
    paths = _class_certificate(graph.offset_intervals)
    if paths is not None and _flow_amounts_hold(graph, paths):
        weight = sum(graph.weights)
    else:
        weight = max_weight_independent_set(graph.as_bipartite())[1]
    want = size_extremal_family(params) - 1
    yield Verdict(
        claim="lemma1.orbit-certificate",
        params=params,
        formula_value=want,
        oracle_value=weight,
        passed=weight == want,
        detail="orbit-graph MWIS vs extremal family size minus one",
    )

    if binom(params.n, params.k) <= spec.cap:
        mis = conflict_graph_mis(params, cap=spec.cap)
        yield Verdict(
            claim="lemma1.enumerated-mis",
            params=params,
            formula_value=weight,
            oracle_value=mis,
            passed=mis == weight,
            detail="set-level conflict-graph MIS vs orbit-level MWIS",
        )


def _check_lemma2(params: Params, spec: SweepSpec):
    # the mirror law is proved for s >= 2 only: at s = 1, l = 0 every
    # mirror pair ties
    if params.s < 2 or params.l < 0:
        yield Verdict(None, params, detail=NEEDS_ORBIT_LAYER)
        return
    yield check_mirror_weight_ordering(params)
    yield check_offset_weight_ordering(params)


def _check_chains(params: Params, spec: SweepSpec):
    """The chain decomposition's verdict: from its weights alone when its
    class's ``_class_certificate`` holds, else validated in full, so a
    class that fails keeps the validator's vertex-level witnesses.

    The decomposition and every structural check depend on the class
    alone (see the ``orbitgraph`` docstring), so the certificate leaves
    each triple the weight checks, on its own weights, and yet gives the
    validator's verdict, failing or not."""
    if params.s < 2 or params.l < 0:
        yield Verdict(None, params, detail=NEEDS_ORBIT_LAYER)
        return
    graph = build_orbit_graph(params)
    paths = _class_certificate(graph.offset_intervals)
    yield (_verdict_by_offsets(graph, paths) if paths is not None
           else validate_decomposition(_decompose(graph), graph))


def _interval_rule(params: Params, i: int, t: int) -> bool:
    return params.k - params.l <= i + t <= params.k + params.s - 1


@lru_cache(maxsize=1)  # sweeps run triple by triple: one live entry
def _profile_orbits(params: Params) -> dict:
    """The masks of each profile's orbit, s..k-1, enumerated once."""
    return {p: _orbit_masks(params, p) for p in range(params.s, params.k)}


def _enumerated_conflict(params: Params, i: int, t: int) -> bool:
    """Whether some pair of sets from the two orbits meets in fewer than
    s elements, by enumerating both orbits; it stops at the first set of
    orbit i that conflicts with some set of orbit t."""
    orbits = _profile_orbits(params)
    return any(_iter_conflict_rows(orbits[i], orbits[t], params.s))


def _check_edges(params: Params, spec: SweepSpec):
    """Every profile pair (i, t) through each edge route: the interval
    rule, the closed-form minimum intersection, the orbit graph (s >= 2)
    and, for n up to the exhaustive cap, enumeration of both orbits.
    Each orbit is enumerated once per triple, and each unordered pair
    once, since |x ∩ y| = |y ∩ x|."""
    if params.l < 0:
        yield Verdict(None, params, detail="inapplicable: slack l < 0")
        return
    profiles = range(params.s, params.k)
    graph = build_orbit_graph(params) if params.s >= 2 else None
    exhaustive = params.n <= EXHAUSTIVE_N_CAP
    enumerated = {(i, t): _enumerated_conflict(params, i, t)
                  for i in profiles for t in profiles
                  if i <= t} if exhaustive else {}
    mismatches = []
    for i in profiles:
        for t in profiles:
            interval = _interval_rule(params, i, t)
            closed = min_pair_intersection(i, t, params) < params.s
            routes = {"interval": interval, "closed-form": closed}
            if graph is not None:
                routes["graph"] = graph.has_edge(i, t)
            if exhaustive:
                routes["enumerated"] = enumerated[min(i, t), max(i, t)]
            if len(set(routes.values())) != 1:
                mismatches.append({"i": i, "t": t, **routes})
    detail = (f"{len(profiles) ** 2} profile pairs agree on "
              + ("all routes" if exhaustive else "formula routes")
              + ("" if exhaustive else " (enumeration skipped: n > "
                 f"{EXHAUSTIVE_N_CAP})"))
    yield Verdict(
        claim="edges.rule-equivalence",
        params=params,
        passed=not mismatches,
        witness=mismatches or None,
        detail=detail if not mismatches else f"mismatches: {mismatches[:3]}",
    )


def _check_biregular(params: Params, spec: SweepSpec):
    if params.s < 2 or params.l < 0:
        yield Verdict(None, params, detail=NEEDS_ORBIT_LAYER)
        return
    edges = sorted(build_orbit_graph(params).edges)
    failures = []
    degrees = {}
    verdicts = {}
    try:
        for i, t in edges:
            # each call builds both tables: (t, i) reads them transposed
            verdict = (_transposed(verdicts[t, i]) if (t, i) in verdicts
                       else check_biregularity(params, i, t))
            verdicts[i, t] = verdict
            degrees[f"({i},{t})"] = verdict.witness["degrees"]
            if not verdict.passed:
                failures.append((i, t, verdict.detail))
    except EnumerationTooLarge as exc:
        yield Verdict(None, params, detail=f"skipped: cap ({exc})")
        return
    yield Verdict(
        claim="edges.biregular-premise",
        params=params,
        passed=not failures,
        witness={"degrees": degrees},
        detail=(f"{len(edges)} conflicting orbit pairs, all biregular"
                if not failures else f"failures: {failures[:3]}"),
    )


def _check_hm(params: Params, spec: SweepSpec):
    if params.s != 1:
        yield Verdict(None, params, detail="inapplicable: needs s = 1")
        return
    if params.l < 0:
        yield Verdict(None, params, detail="inapplicable: slack l < 0")
        return
    n, k = params.n, params.k
    identity = binom(n, k) - binom(n - k, k)
    yield Verdict(
        claim="hm.size-identity",
        params=params,
        formula_value=identity,
        oracle_value=size_extremal_family(params),
        passed=size_extremal_family(params) == identity,
        detail="s=1 extremal size vs C(n,k) - C(n-k,k)",
    )


CHECKS = {
    "theorem": _check_theorem,
    "lemma1": _check_lemma1,
    "lemma2": _check_lemma2,
    "chains": _check_chains,
    "edges": _check_edges,
    "biregular": _check_biregular,
    "hm": _check_hm,
}

CHECK_NAMES = tuple(CHECKS)


def _run_instance(spec: SweepSpec, triple) -> list:
    """One triple's records, sorted by (check, claim).

    This is the one place a verdict becomes a record, under its check's
    name, and the one place a record's ``millis`` is set: a check yields
    its verdicts as it reaches them, and each pass or fail record gets
    the time since the check started or yielded its previous verdict.
    Skip records keep ``None``."""
    n, k, s = triple
    params = Params(n, k, s)
    records = []
    for name in spec.checks:
        start = time.perf_counter()
        for verdict in CHECKS[name](params, spec):
            record = verdict.to_record(name)
            now = time.perf_counter()
            if verdict.passed is not None:
                record["millis"] = (now - start) * 1000.0
            records.append(record)
            start = now
    records.sort(key=itemgetter("check", "claim"))
    return records


def iter_records(spec: SweepSpec):
    """Yield the sweep's records in (n, k, s, check, claim) order, each
    triple's as soon as that triple is done.

    ``instances()`` is ascending and every record carries its triple, so
    sorting within each triple gives the order of one global sort.
    """
    triples = spec.instances()
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            for records in pool.map(_run_instance, repeat(spec), triples):
                yield from records
    else:
        for triple in triples:
            yield from _run_instance(spec, triple)


def report_meta(spec: SweepSpec) -> dict:
    """The report fields that describe the sweep rather than its results."""
    return {"tool": "crossint", "version": __version__,
            "spec": spec.to_dict()}


def run_sweep(spec: SweepSpec) -> ReportBundle:
    """Execute the sweep and return a deterministic report bundle."""
    start = time.perf_counter()
    records = list(iter_records(spec))
    return ReportBundle(
        **report_meta(spec),
        records=records,
        runtime_millis=(time.perf_counter() - start) * 1000.0,
    )
