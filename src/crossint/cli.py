"""Command-line driver.

One subcommand per verification ingredient, so a failure localizes:

  verify        theorem sweep: enumeration oracle vs closed form
  check-lemmas  orbit-certificate and weight-ordering sweeps
  check-chains  chain-decomposition construction and validation
  check-edges   edge-rule equivalence (and biregularity premise)
  mis-g         exact conflict-graph MIS for one parameter triple
  emit-dot      DOT rendering of the orbit graph or its chain paths
  shift         apply the shift closure to a family fixture file

Exit codes: 0 all checks passed, 1 some check failed (counterexample),
2 invalid configuration, infeasible request, or (with --strict) a
skipped instance.
"""

import argparse
import os
import shutil
import sys
import tempfile
import time
from functools import cache

from . import __version__
from .errors import ConfigError, CrossIntError
from .extremal import size_extremal_family
from .oracle import DEFAULT_ORACLE_CAP, conflict_graph_mis
from .orbitgraph import (build_chain_decomposition, build_orbit_graph,
                         decomposition_to_dot, graph_to_dot)
from .report import (REPORT_FORMATS, report_head, report_tail,
                     write_records)
from .sets import Params, family_from_text, family_to_text
from .shifting import shift_closure
from .sweep import CHECK_NAMES, SweepSpec, iter_records, report_meta


def _parse_range(text: str) -> tuple:
    """'4' -> (4,); '2:5' -> (2, 3, 4, 5)."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ConfigError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _add_grid_arguments(sub, default_checks):
    sub.add_argument("--k", type=int, help="single set size k")
    sub.add_argument("--k-range", help="inclusive range LO:HI for k")
    sub.add_argument("--s", type=int, help="single threshold s")
    sub.add_argument("--s-range", help="inclusive range LO:HI for s")
    sub.add_argument("--n", type=int, help="single ground size n")
    sub.add_argument("--n-range", help="inclusive range LO:HI for n")
    sub.add_argument("--l", type=int, help="single slack l (n = 2k-s+1+l)")
    sub.add_argument("--l-range", help="inclusive range LO:HI for l")
    sub.add_argument("--checks", default=",".join(default_checks),
                     help=f"comma-separated subset of {','.join(CHECK_NAMES)}")
    sub.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP,
                     help="enumeration cap on C(n,k) for oracle checks")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for independent instances")
    sub.add_argument("--deep-audit", action="store_true",
                     help="also run the quadratic anchor-pair oracle audit")
    sub.add_argument("--strict", action="store_true",
                     help="exit 2 if any instance was skipped")
    sub.add_argument("--out", help="write the report to this file")
    sub.add_argument("--format", choices=REPORT_FORMATS, default="json")


def _values(single, rng, name) -> tuple | None:
    if single is not None and rng is not None:
        raise ConfigError(f"give either --{name} or --{name}-range, not both")
    if single is not None:
        return (single,)
    if rng is not None:
        return _parse_range(rng)
    return None


def _spec_from_args(args) -> SweepSpec:
    ks = _values(args.k, args.k_range, "k")
    ss = _values(args.s, args.s_range, "s")
    ns = _values(args.n, args.n_range, "n")
    ls = _values(args.l, args.l_range, "l")
    if ks is None or ss is None:
        raise ConfigError("a sweep needs k and s values (--k/--k-range, "
                          "--s/--s-range)")
    checks = tuple(c for c in args.checks.split(",") if c)
    return SweepSpec(ks=ks, ss=ss, ns=ns, ls=ls, checks=checks,
                     cap=args.cap, jobs=args.jobs, deep_audit=args.deep_audit)


#: A sweep's spool stays in memory up to this many bytes, then moves to an
#: unnamed file.  Most sweep calls write a few kilobytes, and a file spool
#: made writing a 20-record report take 0.89 ms instead of 0.22 ms
#: (ext4, 2-core x86 VM).
_SPOOL_MEMORY_BYTES = 1 << 16


def _write_report(fh, fmt, meta, spool, runtime_millis):
    fh.write(report_head(fmt, meta))
    shutil.copyfileobj(spool, fh)
    fh.write(report_tail(fmt, runtime_millis))


def _run_sweep_command(args) -> int:
    """Stream the sweep's records into a spool, then write the report:
    its first line carries the summary, which is known only once the last
    record is in.  A spool larger than ``_SPOOL_MEMORY_BYTES`` moves to an
    unnamed file beside ``--out``, on the file system chosen for the
    report, not in a temp directory that may be memory-backed.  ``--out``
    is opened only after the sweep has finished, so a sweep that fails
    leaves it untouched."""
    spec = _spec_from_args(args)
    where = os.path.dirname(os.path.abspath(args.out)) if args.out else None
    with tempfile.SpooledTemporaryFile(_SPOOL_MEMORY_BYTES, "w+",
                                       encoding="utf-8", newline="",
                                       dir=where) as spool:
        start = time.perf_counter()
        summary = write_records(iter_records(spec), args.format, spool)
        runtime_millis = (time.perf_counter() - start) * 1000.0
        spool.seek(0)
        meta = {**report_meta(spec), "summary": summary}
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_report(fh, args.format, meta, spool, runtime_millis)
            print(f"{summary['pass']} pass, {summary['fail']} fail, "
                  f"{summary['skip']} skipped -> {args.out}")
        else:
            _write_report(sys.stdout, args.format, meta, spool, runtime_millis)
    if summary["fail"]:
        return 1
    if args.strict and summary["skip"]:
        return 2
    return 0


def _cmd_mis_g(args) -> int:
    params = Params(args.n, args.k, args.s)
    value = conflict_graph_mis(params, cap=args.cap)
    want = size_extremal_family(params) - 1
    status = "ok" if value == want else "MISMATCH"
    print(f"n={args.n} k={args.k} s={args.s}: conflict-graph MIS = {value}, "
          f"extremal size - 1 = {want} [{status}]")
    return 0 if value == want else 1


def _cmd_emit_dot(args) -> int:
    params = Params(args.n, args.k, args.s)
    if args.what == "W":
        text = graph_to_dot(build_orbit_graph(params))
    else:
        text = decomposition_to_dot(build_chain_decomposition(params))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_shift(args) -> int:
    with open(args.family, "r", encoding="utf-8") as fh:
        family = family_from_text(fh.read(), n=args.n)
    closed = shift_closure(family)
    text = family_to_text(closed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossint",
        description="Exact verification toolkit for s-cross-intersecting "
                    "family bounds.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sweeps = {
        "verify": ("theorem",),
        "check-lemmas": ("lemma1", "lemma2"),
        "check-chains": ("chains",),
        "check-edges": ("edges", "biregular"),
    }
    for name, default_checks in sweeps.items():
        sub = subs.add_parser(name)
        _add_grid_arguments(sub, default_checks)
        sub.set_defaults(func=_run_sweep_command)

    sub = subs.add_parser("mis-g")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--s", type=int, required=True)
    sub.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    sub.set_defaults(func=_cmd_mis_g)

    sub = subs.add_parser("emit-dot")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--s", type=int, required=True)
    sub.add_argument("--what", choices=("W", "chains"), default="chains")
    sub.add_argument("--out")
    sub.set_defaults(func=_cmd_emit_dot)

    sub = subs.add_parser("shift")
    sub.add_argument("family", help="family fixture file, one set per line "
                                    "as comma-separated ascending elements")
    sub.add_argument("--n", type=int, help="ground size (default: max element)")
    sub.add_argument("--out")
    sub.set_defaults(func=_cmd_shift)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CrossIntError, ArithmeticError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
