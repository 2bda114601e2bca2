"""The measured process: set up crossint, run whole rounds of CLI calls.

Usage: python3 perfbench/worker.py PLAN.json

The plan (written by run.py) names the source tree, the warm-up call, the
calls of one round and where each writes its report.  This process does
only what a user's process would: import crossint, build the parser and
run ``crossint.cli.main(argv)`` in-process, so its peak resident memory
is the workload's.  Checking the reports is left to run.py.

With tracing on, whole untraced rounds run first, then one traced round
whose spans are written out and reduced to per-layer metrics.
"""

import contextlib
import gc
import importlib
import json
import os
import statistics
import sys
import time
import traceback


def _purge(package):
    for name in [m for m in sys.modules
                 if m == package or m.startswith(package + ".")]:
        del sys.modules[name]


def _call(cli, argv):
    """Exit code of one CLI call; None when it raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crash is a failed operation, not a failed run
        traceback.print_exc()
        return None


def _peak_rss_mb():
    """This process's resident-memory high-water mark.

    ``getrusage`` is not used: on Linux its ``ru_maxrss`` keeps the
    parent's peak across exec, so it would count run.py's memory."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def set_up(plan):
    """Import, parser and one warm-up call, from a fresh import."""
    _purge("crossint")
    start = time.perf_counter()
    cli = importlib.import_module("crossint.cli")
    cli.build_parser()
    # Its report is not checked: the rounds' reports are.
    _call(cli, plan["warmup"] + ["--out", os.path.join(plan["work"], "warmup.json")])
    return cli, time.perf_counter() - start


def run_round(cli, plan, directory, marks=None, tracer=None):
    """Time one round; ``marks`` collects the span index at each call."""
    os.makedirs(directory)
    calls = [(argv + ["--out", os.path.join(directory, out)])
             for argv, out in plan["calls"]]
    gc.collect()
    codes = []
    start = time.perf_counter()
    for argv in calls:
        if marks is not None:
            marks.append(tracer.span_count())
        codes.append(_call(cli, argv))
    wall = time.perf_counter() - start
    return wall, codes


def layer_metrics(tracer, marks, plan):
    """Per-layer metrics of the traced round; absent when the function a
    metric needs no longer exists."""
    from spans import SpanTotals, calls_under

    totals = SpanTotals(tracer)
    metrics = {}

    def put(name, needs, value):
        if all(totals.has(n) for n in needs) and not (
                set(needs) & tracer.sizer_errors):
            metrics[name] = value()

    flow_s = lambda: totals.total("bipartite.max_flow")
    arcs = lambda: totals.sized("bipartite.max_flow")
    put("bipartite.busy_s", ["bipartite"], lambda: totals.busy["bipartite"])
    put("bipartite.flow_s", ["bipartite.max_flow"], flow_s)
    put("bipartite.calls", ["bipartite"], lambda: totals.entries["bipartite"])
    put("bipartite.arcs", ["bipartite.max_flow"], arcs)
    put("bipartite.arcs_per_s", ["bipartite.max_flow"],
        lambda: arcs() / flow_s() if flow_s() else 0.0)
    end = tracer.span_count()
    mwis = "bipartite.max_weight_independent_set"
    put("oracle.self_s", ["oracle"], lambda: totals.self_time["oracle"])
    from_oracle = calls_under(tracer, 0, end, mwis, "oracle") if totals.has(mwis) else None
    put("oracle.flow_graphs", ["oracle", mwis], lambda: from_oracle[0])
    put("oracle.conflict_edges", ["oracle", mwis], lambda: from_oracle[1])
    put("sets.enumerate_s", ["sets.enumerate_ksubsets"],
        lambda: totals.total("sets.enumerate_ksubsets"))
    put("sets.ksubsets", ["sets.enumerate_ksubsets"],
        lambda: totals.sized("sets.enumerate_ksubsets"))
    build = "orbitgraph.build_orbit_graph"
    put("orbitgraph.busy_s", ["orbitgraph"], lambda: totals.busy["orbitgraph"])
    put("orbitgraph.validate_s", ["orbitgraph.validate_decomposition"],
        lambda: totals.total("orbitgraph.validate_decomposition"))
    put("orbitgraph.build_calls", [build], lambda: totals.calls(build))
    put("orbitgraph.classify_calls", ["orbitgraph.classify_edges"],
        lambda: totals.calls("orbitgraph.classify_edges"))

    def builds_per_instance():
        bounds = marks + [end]
        builds = sum(calls_under(tracer, bounds[i], bounds[i + 1], build)[0]
                     for i, (argv, _) in enumerate(plan["calls"])
                     if argv[0] == "check-chains")
        return builds / plan["chain_instances"] if plan["chain_instances"] else 0.0

    put("orbitgraph.builds_per_instance", [build], builds_per_instance)
    put("orbitgraph.biregular_s", ["orbitgraph.check_biregularity"],
        lambda: totals.total("orbitgraph.check_biregularity"))
    put("extremal.busy_s", ["extremal"], lambda: totals.busy["extremal"])
    put("extremal.calls", ["extremal"], lambda: totals.entries["extremal"])
    put("shifting.closure_s", ["shifting.shift_closure"],
        lambda: totals.total("shifting.shift_closure"))
    put("shifting.calls", ["shifting"], lambda: totals.entries["shifting"])
    put("sweep.self_s", ["sweep"], lambda: totals.self_time["sweep"])
    put("report.emit_s", ["report.emit_report"],
        lambda: totals.total("report.emit_report"))
    put("report.bytes", ["report.emit_report"],
        lambda: totals.sized("report.emit_report"))
    put("cli.self_s", ["cli"], lambda: totals.self_time["cli"])
    return metrics


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    result = {"setup_s": [], "walls": [], "codes": []}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for _ in range(plan["setups"]):
            cli, elapsed = set_up(plan)
            result["setup_s"].append(elapsed)
        begin = time.perf_counter()
        while not result["walls"] or time.perf_counter() - begin < plan["seconds"]:
            wall, codes = run_round(
                cli, plan, os.path.join(plan["work"], f"round-{len(result['walls'])}"))
            result["walls"].append(wall)
            result["codes"].append(codes)
            # The first round's peak, so the figure does not depend on how
            # many rounds fit into the run.
            result.setdefault("peak_rss_mb", _peak_rss_mb())
        if plan["trace"]:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            marks = []
            try:
                wall, codes = run_round(cli, plan, os.path.join(plan["work"], "traced"),
                                        marks, tracer)
            finally:
                tracer.remove()
            result["traced_codes"] = codes
            metrics = layer_metrics(tracer, marks, plan)
            metrics["trace.overhead_s"] = wall - statistics.median(result["walls"])
            result["layers"] = metrics
            result["spans"] = tracer.span_count()
            tracer.write(plan["spans_path"])
    with open(os.path.join(plan["work"], "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
