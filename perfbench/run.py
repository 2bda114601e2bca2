"""crossint benchmark: three workloads, end-to-end and per-layer metrics.

One run:
    python3 perfbench/run.py --workload orbit-sweep --seed 1 --seconds 20 --trace 0

Every metric of every workload, untraced and traced:
    python3 perfbench/run.py

Two sets of runs of the same code, compared against the bounds:
    python3 perfbench/run.py --agree --runs 10

A run builds the workload's calls from the seed, has worker.py run whole
rounds of them for at least --seconds, then checks every round's reports
against values computed in workloads.py.  A single run prints its metrics
and, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.  Every invocation writes a
results file to perfbench/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

#: Setups per run; setup_s is their median.
SETUPS = 5

#: The warm-up instance of every setup.
WARMUP = ["verify", "--n", "7", "--k", "3", "--s", "2", "--jobs", "1"]

WORKER_TIMEOUT_S = 900


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace, spec):
    """One run: returns {correct, attempted, failed, metrics, problems}."""
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    try:
        calls = workloads.build(workload, seed, work)
        plan = {
            "src": SRC, "work": work, "seconds": seconds, "trace": trace,
            "setups": SETUPS, "warmup": WARMUP,
            "calls": [[call.argv, call.out] for call in calls],
            "chain_instances": sum(call.ops for call in calls
                                   if call.argv[0] == "check-chains"),
            "spans_path": os.path.join(RESULTS, f"spans-{workload}.bin"),
        }
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        with open(os.path.join(work, "worker.json"), encoding="utf-8") as fh:
            result = json.load(fh)

        rounds = [(f"round-{i}", codes) for i, codes in enumerate(result["codes"])]
        if trace:
            rounds.append(("traced", result["traced_codes"]))
        attempted = failed = 0
        problems = []
        for directory, codes in rounds:
            for call, code in zip(calls, codes):
                outcome = call.check(os.path.join(work, directory, call.out), code)
                attempted += call.ops
                failed += outcome.failed
                problems += [f"{directory} {call.argv[0]}: {p}"
                             for p in outcome.problems]

        if trace:
            metrics = {m["name"]: result["layers"][m["name"]]
                       for m in spec["per_layer"] if m["name"] in result["layers"]}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics = {"setup_s": statistics.median(result["setup_s"]),
                       "wall_s": statistics.median(result["walls"]),
                       "peak_rss_mb": result["peak_rss_mb"]}
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        return {
            "workload": workload, "seed": seed, "trace": trace,
            "correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
            "rounds": len(result["walls"]), "round_walls": result["walls"],
            "setups": result["setup_s"], "spans": result.get("spans"),
            "problems": problems[:20],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=ROOT, env=env, capture_output=True, text=True,
                               timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def medians(runs):
    """Median of every metric, per workload, over the given runs."""
    values = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(
                name, (metric["unit"], []))[1].append(metric["value"])
    return {workload: {name: {"value": statistics.median(vals), "unit": unit,
                              "runs": len(vals)}
                       for name, (unit, vals) in metrics.items()}
            for workload, metrics in values.items()}


def spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def agreement(first, second, spec):
    """Whether two sets of runs of the same code agree within the bounds."""
    rows = []
    ok = True
    for workload in sorted({r["workload"] for r in first}):
        sets = [[r for r in runs if r["workload"] == workload]
                for runs in (first, second)]
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        same_share = len(shares) == 1
        ok &= same_share and all(r["correct"] for runs in sets for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            m1, m2 = (statistics.median(v) for v in vals)
            s1, s2 = (spread(v) for v in vals)
            change = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            steady = name == "setup_s" or (s1 <= bound and s2 <= bound)
            row_ok = steady and change <= bound
            ok &= row_ok
            rows.append({"workload": workload, "metric": name, "bound": bound,
                         "median_1": m1, "median_2": m2, "spread_1": s1,
                         "spread_2": s2, "worse_by": change,
                         "failed_share_equal": same_share, "agree": row_ok})
    return ok, rows


def _print_run(run, spec):
    names = spec["per_layer"] if run["trace"] else spec["end_to_end"]
    print(f"# {run['workload']} seed {run['seed']} trace {run['trace']}: "
          f"{run['rounds']} round(s), {run['attempted']} operations attempted, "
          f"{run['failed']} failed, correct: {run['correct']}")
    for metric in names:
        got = run["metrics"].get(metric["name"])
        value = "absent" if got is None else f"{got['value']:.6g}"
        print(f"#   {metric['name']:34s} {value:>14s} {metric['unit']}")
    for problem in run["problems"]:
        print(f"#   problem: {problem}", file=sys.stderr)


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first run; later runs count up")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="untraced end-to-end run, traced per-layer run, or both")
    parser.add_argument("--runs", type=int, default=1, help="runs per set")
    parser.add_argument("--agree", action="store_true",
                        help="run two sets of runs and compare them against the bounds")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crossint", "__init__.py")):
        print(f"no crossint source tree at {SRC}", file=sys.stderr)
        return 2
    if args.agree and args.runs < 2:
        parser.error("--agree needs --runs of at least 2")
    chosen = names if args.workload == "all" else [args.workload]
    traces = [0] if args.agree else {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    sets = 2 if args.agree else 1
    single = len(chosen) == 1 and len(traces) == 1 and args.runs == 1 and sets == 1

    started = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    runs = []
    try:
        for index in range(sets):
            seeds = range(args.seed + index * args.runs,
                          args.seed + (index + 1) * args.runs)
            for workload in chosen:
                for seed in seeds:
                    for trace in traces:
                        run = run_once(workload, seed, args.seconds, trace, spec)
                        run["set"] = index
                        runs.append(run)
                        _print_run(run, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record = {
        "started": started, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_rev": _git_rev(),
        "argv": sys.argv[1:], "seconds": args.seconds,
        "seeds": sorted({r["seed"] for r in runs}),
        "runs": runs, "medians": medians(runs),
    }
    ok = all(r["correct"] for r in runs)
    if args.runs >= 2 and not args.agree:
        for workload in chosen:
            for metric in spec["end_to_end"]:
                vals = [r["metrics"][metric["name"]]["value"] for r in runs
                        if r["workload"] == workload and not r["trace"]]
                if len(vals) >= 2:
                    print(f"# {workload:14s} {metric['name']:12s} median "
                          f"{statistics.median(vals):.4g} {metric['unit']}, spread "
                          f"{spread(vals):.4f} (bound {metric['bound']}) over "
                          f"{len(vals)} runs")
    if args.agree:
        agreed, rows = agreement([r for r in runs if r["set"] == 0],
                                 [r for r in runs if r["set"] == 1], spec)
        record["agreement"] = {"agree": agreed, "rows": rows}
        for row in rows:
            print(f"# {row['workload']:14s} {row['metric']:12s} "
                  f"median {row['median_1']:.4g} -> {row['median_2']:.4g} "
                  f"(worse by {row['worse_by']:+.3f}, bound {row['bound']}), "
                  f"spread {row['spread_1']:.3f}/{row['spread_2']:.3f}, "
                  f"failed share equal: {row['failed_share_equal']} -> "
                  f"{'agree' if row['agree'] else 'DISAGREE'}")
        print(f"# two sets of {args.runs} runs agree within the bounds: {agreed}")
        ok &= agreed
    path = os.path.join(RESULTS, f"BENCH_{started}_{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"# results: {os.path.relpath(path, ROOT)}")
    if single:
        run = runs[0]
        print(json.dumps({key: run[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
