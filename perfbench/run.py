#!/usr/bin/env python3
"""Repository benchmark for the BAAT simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the driver
(perfbench/CMakeLists.txt) into .bench_build/; later calls reuse it. The
benchmark then launches one driver process per operation, back to back,
until --seconds have passed, and never retries one that failed.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of the traced ones, plus the tracing overhead (the gap
between the two kinds). Every operation's simulated outputs are digested;
a digest that differs between operations, or from perfbench/reference.json
for the seed, or a resume that does not reproduce the uninterrupted bytes,
makes the result incorrect and the exit code 1.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "baatbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("dc_diurnal", "proto_lifetime", "sweep_li_faulted")

# name -> unit, in the order they are printed.
END_TO_END = {
    "node_days_per_s": "node-days/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checkpoint_s": "s",
    "checkpoint_mb": "MB",
    "resume_s": "s",
    "ops_ok_frac": "fraction",
}
PER_LAYER = {
    "sim.run_day_ns_per_node_tick": "ns",
    "power.route_ns_per_node_tick": "ns",
    "sim.other_ns_per_node_tick": "ns",
    "sim.cluster_run_day_ns_per_node_tick": "ns",
    "battery.step_ns_per_cell_tick": "ns",
    "sim.shard_efficiency": "ratio",
    "sim.sweep_efficiency": "ratio",
    "sim.loop_ns_per_day": "ns",
    "sim.allocs_per_node_tick": "count",
    "sim.deploy_success_ratio": "ratio",
    "snapshot.bytes_per_node": "B",
    "snapshot.write_mb_per_s": "MB/s",
    "snapshot.read_mb_per_s": "MB/s",
    "obs.tracing_overhead_pct": "%",
    "core.control_ticks": "count",
    "core.decisions.dvfs": "count",
    "core.decisions.migration": "count",
    "core.decisions.charge_priority": "count",
    "power.route_calls": "count",
    "obs.trace_events": "count",
    "fault.injections": "count",
    "core.guard_fallbacks": "count",
}
# Printed with every result of the workload.
WORKLOAD_NOTES = {
    "dc_diurnal": [
        "checkpoint_s is the engine's one mid-run BAATSECT commit (day 2 of 4); at most "
        "one checkpoint is on disk, in the operation's scratch directory, removed after it",
        "node_days_per_s excludes that commit; resume_s restores it into a fresh datacenter "
        "and runs until the first resumed tick",
    ],
    "proto_lifetime": [
        "checkpoint_s is the mean of the middle half of the 24 BAATSNAP commits the engine "
        "writes (every 30 days)",
        "weather: the Sunny/Cloudy/Rainy mix of the two years is fixed, the seed sets the order",
    ],
    "sweep_li_faulted": [
        "sweep points run with the flight recorder off: obs::set_crash_dump_hook is one "
        "process-global std::function that every concurrent run_multi_day assigns and "
        "clears, and four-job sweeps have aborted with heap corruption",
        "checkpoint_s, checkpoint_mb and resume_s are one point's full state: the point "
        "scenario run for 16 days with a commit after each, resumed from day 8; the sweep "
        "engine's own 80-byte point commit is file-system metadata, too short to time "
        "steadily",
        "weather: each point's Sunny/Cloudy/Rainy mix is fixed, the seed sets the order",
    ],
}

COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"
          and name != "sim.allocs_per_node_tick"]

# No operation starts after HARD_STOP_S, whatever --seconds says, and each
# is killed at the DEADLINE_S mark, so a run ends inside the 180 s it may take.
HARD_STOP_S = 120.0
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


# --- arithmetic (covered by --self-test) -------------------------------------

def median(values):
    return statistics.median(values)


def ok_fraction(attempted, failed):
    return (attempted - failed) / attempted


def overhead_pct(untraced_rate, traced_rate):
    """Extra wall time tracing costs, in percent of the untraced run."""
    return 100.0 * (untraced_rate / traced_rate - 1.0)


def run_rate(ops):
    """node-days/s of a run's operations, from their day timings.

    An operation reports the wall time of every simulated day per lane: one
    lane for a single engine, one per point for a sweep whose points run side
    by side (one job each). Each lane-day's median over the operations is
    taken; the run lasts as long as its longest lane, plus the median time the
    operations spent outside their lanes, less the median checkpoint commit.
    A burst of host noise in one operation thus stays out of the result.
    """
    lanes = [op["day_samples"] for op in ops]
    if len({tuple(map(len, op_lanes)) for op_lanes in lanes}) != 1:
        raise BenchError("operations timed different numbers of days")
    longest = max(sum(median(day) for day in zip(*lane)) for lane in zip(*lanes))
    outside = median([op["run_s"] - max(map(sum, op["day_samples"])) for op in ops])
    seconds = longest + outside - median([op["commit_s"] for op in ops])
    return ops[0]["node_days"] / seconds


def aggregate(ops, reference, trace):
    """Fold operation records into (correct, attempted, failed, metrics, notes).

    An op record is the driver's JSON object, or {"crashed": True,
    "attempted": n, "error": first stderr line} for a process that failed.
    """
    notes = []
    done = [op for op in ops if not op.get("crashed")]
    expected = reference or (done[0]["digest"] if done else None)
    attempted = sum(op["attempted"] for op in ops)
    failed = 0
    for op in ops:
        if op.get("crashed"):
            failed += op["attempted"]
            notes.append("failed operation: " + op["error"])
            continue
        notes.extend("failed point: " + f for f in op["failures"])
        if not op["resume_identical"]:
            failed += op["attempted"]
            notes.append("failed operation: " + op["resume_mismatch"])
        elif op["digest"] != expected:
            failed += op["attempted"]
            notes.append("failed operation: output digest %s, expected %s%s"
                         % (op["digest"], expected, " (reference)" if reference else ""))
        else:
            failed += op["failed"]
    correct = failed == 0 and bool(done)
    for traced in (False, True):
        counts = {json.dumps(op["counts"], sort_keys=True) for op in done if op["traced"] == traced}
        if len(counts) > 1:
            correct = False
            notes.append("work counts differ between operations")

    untraced = [op for op in done if not op["traced"]]
    traced = [op for op in done if op["traced"]]
    metrics = {}
    if not trace and untraced:
        for name in ("peak_rss_mb", "checkpoint_s", "checkpoint_mb", "resume_s"):
            metrics[name] = median([op["e2e"][name] for op in untraced])
        metrics["node_days_per_s"] = run_rate(untraced)
        metrics["setup_s"] = median([s for op in untraced for s in op["setup_samples"]])
        metrics["ops_ok_frac"] = ok_fraction(attempted, failed)
    if trace and untraced and traced:
        for name in PER_LAYER:
            if name == "obs.tracing_overhead_pct":
                continue
            source = "counts" if name in COUNTS else "layers"
            metrics[name] = median([op[source][name] for op in traced])
        metrics["obs.tracing_overhead_pct"] = overhead_pct(run_rate(untraced),
                                                          run_rate(traced))
    units = END_TO_END if not trace else PER_LAYER
    if set(metrics) != set(units):
        correct = False
        notes.append("missing metrics: " + ", ".join(sorted(set(units) - set(metrics))))
    return correct, attempted, failed, metrics, notes


# --- build and run -----------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found next to perfbench/ (no src/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = [["cmake", "--build", BUILD, "--target", "baatbench", "-j", "4"]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build failed: %s (see %s)" % (" ".join(cmd), log_path))


def run_op(workload, seed, traced, out_dir, extra=(), timeout=DEADLINE_S):
    """Run one operation in its own process; never retried."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--out", out_dir]
    if traced:
        cmd.append("--trace")
    cmd.extend(extra)
    attempted = 4 if workload == "sweep_li_faulted" and "--tiny" not in extra else 1
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        if lines and lines[-1].startswith("{"):
            # The driver finished but a check failed: keep its record.
            op = json.loads(lines[-1])
            if op["failed"] == 0 and op["resume_identical"]:
                op["failed"] = op["attempted"]
                op["failures"].append("exit %d" % proc.returncode)
            return op
        first = next((l for l in proc.stderr.splitlines() if l.strip()), "")
        return {"crashed": True, "attempted": attempted,
                "error": "exit %d: %s" % (proc.returncode, first)}
    except subprocess.TimeoutExpired:
        return {"crashed": True, "attempted": attempted,
                "error": "timed out after %.0f s" % timeout}
    finally:
        if traced and os.path.isfile(os.path.join(out_dir, "trace.json")):
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.copy(os.path.join(out_dir, "trace.json"),
                        os.path.join(traces, "%s-seed%s.trace.json" % (workload, seed)))
        shutil.rmtree(out_dir, ignore_errors=True)


def host_stamp():
    proc = subprocess.run([DRIVER, "--host"], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError("driver --host failed: " + proc.stderr.strip())
    return json.loads(proc.stdout)


def reference_digest(workload, seed):
    with open(REFERENCE) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def bench(args):
    build()
    host = host_stamp()
    reference = reference_digest(args.workload, args.seed)
    start = time.monotonic()
    scratch = os.path.join(BUILD, "runs", "%s-%d" % (args.workload, os.getpid()))
    ops = []
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_op(args.workload, args.seed, traced,
                          os.path.join(scratch, "op-%d" % len(ops)),
                          timeout=max(1.0, DEADLINE_S - (time.monotonic() - start))))
        elapsed = time.monotonic() - start
        need_more = args.trace and len(ops) < 2
        if (elapsed >= args.seconds and not need_more) or elapsed >= HARD_STOP_S:
            break
    shutil.rmtree(scratch, ignore_errors=True)

    correct, attempted, failed, metrics, notes = aggregate(ops, reference, args.trace)
    units = PER_LAYER if args.trace else END_TO_END
    print("workload %s, seed %d, %d operations in %.1f s, trace %d"
          % (args.workload, args.seed, len(ops), time.monotonic() - start, args.trace))
    print("host " + json.dumps(host, sort_keys=True))
    print("reference digest: " + (reference or "none recorded for this seed"))
    for op in ops:
        if not op.get("crashed"):
            print("operation digest %s traced %s" % (op["digest"], op["traced"]))
    for name, unit in units.items():
        if name in metrics:
            print("%-40s %16.6g %s" % (name, metrics[name], unit))
    for note in WORKLOAD_NOTES[args.workload]:
        print("workload note: " + note)
    if args.trace:
        print("trace: " + os.path.join(BUILD, "traces", "%s-seed%d.trace.json"
                                       % (args.workload, args.seed)))
    for note in notes:
        print("note: " + note)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


# --- self-test ---------------------------------------------------------------

def self_test():
    """Seconds-long checks of the benchmark itself, on tiny configs."""
    def check(cond, what):
        if not cond:
            raise BenchError("self-test failed: " + what)
        print("ok  " + what)

    # Arithmetic.
    check(median([3.0, 1.0, 2.0]) == 2.0, "median")
    check(ok_fraction(8, 2) == 0.75, "ok fraction counts failures against attempts")
    check(abs(overhead_pct(100.0, 80.0) - 25.0) < 1e-12, "tracing overhead")
    by_day = [{"node_days": 12.0, "commit_s": 0.5, "run_s": sum(d), "day_samples": [d]}
              for d in ([1.0, 2.0, 3.0], [1.0, 9.0, 3.0], [5.0, 2.0, 3.0])]
    check(abs(run_rate(by_day) - 12.0 / 5.5) < 1e-12,
          "run rate: per-day medians summed, less the median commit")
    lanes = [{"node_days": 8.0, "commit_s": 0.0, "run_s": 4.5, "day_samples": d}
             for d in ([[1.0, 1.0], [2.0, 2.0]], [[1.0, 1.0], [2.0, 9.0]],
                       [[1.0, 1.0], [2.0, 2.0]])]
    check(abs(run_rate(lanes) - 8.0 / 4.5) < 1e-12,
          "run rate: side-by-side lanes last as long as the longest, plus time outside them")

    def fake(digest="aa", traced=False, failed=0, resume=True, counts=None):
        return {"attempted": 4, "failed": failed, "failures": ["point-1: boom"] * failed,
                "digest": digest, "traced": traced, "resume_identical": resume,
                "node_days": 10.0 if not traced else 8.0, "run_s": 1.0, "commit_s": 0.0,
                "day_samples": [[1.0]],
                "resume_mismatch": "" if resume else "resumed series differs",
                "counts": counts or {n: 1.0 for n in COUNTS},
                "e2e": {"node_days_per_s": 10.0 if not traced else 8.0, "peak_rss_mb": 1.0,
                        "checkpoint_s": 1.0, "checkpoint_mb": 1.0, "resume_s": 1.0},
                "setup_samples": [1.0, 3.0],
                "layers": {n: 1.0 for n in PER_LAYER if n not in COUNTS}}
    ok, att, fail, m, _ = aggregate([fake(), fake()], "aa", 0)
    check(ok and att == 8 and fail == 0 and m["setup_s"] == 2.0 and m["ops_ok_frac"] == 1.0,
          "aggregate: clean run")
    ok, _, _, m, _ = aggregate([fake(), fake(traced=True)], None, 1)
    check(ok and abs(m["obs.tracing_overhead_pct"] - 25.0) < 1e-9
          and set(m) == set(PER_LAYER), "aggregate: traced run yields every per-layer metric")
    ok, _, fail, _, _ = aggregate([fake(), fake()], "bb", 0)
    check(not ok and fail == 8, "aggregate: a reference digest mismatch fails the operations")
    ok, _, fail, _, _ = aggregate([fake("aa"), fake("ab")], None, 0)
    check(not ok and fail == 4, "aggregate: digests differ between operations")
    ok, _, fail, _, _ = aggregate([fake(resume=False)], None, 0)
    check(not ok and fail == 4, "aggregate: a resume mismatch fails the operation")
    ok, att, fail, m, notes = aggregate(
        [fake(failed=1), {"crashed": True, "attempted": 4, "error": "exit -6: boom"}], None, 0)
    check(not ok and att == 8 and fail == 5 and m["ops_ok_frac"] == 3 / 8
          and "failed operation: exit -6: boom" in notes, "aggregate: failure accounting")

    # The driver, on tiny configs.
    build()
    scratch = os.path.join(BUILD, "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    launches = []

    def op(workload, traced=False, extra=()):
        launches.append(workload)
        return run_op(workload, 7, traced, os.path.join(scratch, "op-%d" % len(launches)),
                      ("--tiny",) + tuple(extra))

    for workload in WORKLOADS:
        a, b = op(workload), op(workload, traced=True)
        check(not a.get("crashed") and not b.get("crashed") and a["failed"] == 0
              and b["failed"] == 0, workload + ": tiny operations succeed")
        check(a["resume_identical"] and b["resume_identical"],
              workload + ": resume reproduces the uninterrupted bytes")
        check(a["digest"] == b["digest"], workload + ": tracing does not change the outputs")
        lay = b["layers"]
        total = lay["sim.cluster_run_day_ns_per_node_tick"]
        check(abs(lay["power.route_ns_per_node_tick"] + lay["sim.other_ns_per_node_tick"]
                  - total) <= 1e-9 * total and total > 0,
              workload + ": route + other reconciles with cluster_run_day per node-tick")
        check(all(name in lay for name in PER_LAYER if name not in COUNTS
                  and name != "obs.tracing_overhead_pct"),
              workload + ": traced operation yields every per-layer metric")
        check(b["counts"]["core.control_ticks"] > 0 and b["counts"]["power.route_calls"] > 0
              and b["counts"]["obs.trace_events"] > 0, workload + ": work counts recorded")
        check(0 < lay["sim.shard_efficiency"] <= 1.05 and 0 < lay["sim.sweep_efficiency"] <= 1.05,
              workload + ": efficiencies within (0, 1]")
    one = op("dc_diurnal", extra=("--workers", "1"))
    four = op("dc_diurnal", extra=("--workers", "4"))
    check(one["digest"] == four["digest"], "dc_diurnal: identical outputs at 1 and 4 workers")
    sweep = op("sweep_li_faulted", traced=True)
    check(sweep["counts"]["fault.injections"] > 0, "sweep_li_faulted: faults injected")

    before = len(launches)
    crashed = op("proto_lifetime", extra=("--inject-crash",))
    check(crashed.get("crashed") and crashed["error"].endswith("baatbench: injected crash")
          and len(launches) == before + 1,
          "a crashing operation is counted with its first stderr line, not retried")
    ok, att, fail, _, _ = aggregate([one, crashed], None, 0)
    check(not ok and att == 2 and fail == 1, "the crash counts as one failed operation")
    shutil.rmtree(scratch, ignore_errors=True)
    print("self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
