#!/usr/bin/env python3
"""Build the simulator and run the repository benchmark.

    python3 perfbench/run.py --workload ycsb-a|lsm-gc|cluster-mmpp|all
                             [--seed N|default|held-out] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into the directory named by
CARGO_TARGET_DIR, default .bench_build; later calls only rebuild what
changed. Build output goes to stderr.

One workload: its result is the last line of standard output, one JSON
object with keys correct, attempted, failed and metrics. An end-to-end
run (--trace 0) splits --seconds over five perfbench processes that
run one after the other, and pools their results; a traced run is one
process. With --workload all the workloads run one after the other,
and the command fails if any of them fails. Metric definitions are in
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["ycsb-a", "lsm-gc", "cluster-mmpp"]
# A run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170
# Processes an end-to-end run is split over.
PROCESSES = 5
# Metrics that depend only on the seed, so every process must agree.
SIM_METRICS = ["sim_ops_per_s", "lat_p50_us", "lat_p9999_us",
               "slo_miss_frac", "waf", "ckpt_ms_mean"]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run_process(cmd):
    """Run one perfbench process; returns (exit code, stdout lines)."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s" % (" ".join(cmd),
                                               RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, []
    return p.returncode, p.stdout.splitlines()


def pooled(results):
    """One result from several processes that ran the same seed.

    Simulated-side metrics must agree exactly. Host throughput pools
    all ops over all measured time, setup time is the median of every
    part's setup, peak RSS the median of the processes' peaks.
    """
    first = results[0][0]
    metrics = dict(first["metrics"])
    for r, _ in results[1:]:
        for k in SIM_METRICS:
            if r["metrics"][k]["value"] != first["metrics"][k]["value"]:
                print("perfbench: %s differs between processes" % k,
                      file=sys.stderr)
                return None
    ops = sum(d["ops"] for _, d in results)
    measured = sum(d["measured_s"] for _, d in results)
    setups = [x for _, d in results for x in d["setup_s"]]
    metrics["host_ops_per_s"] = {"value": ops / measured, "unit": "1/s"}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": statistics.median(
            r["metrics"]["peak_rss_mb"]["value"] for r, _ in results),
        "unit": "MB"}
    return {"correct": True,
            "attempted": sum(r["attempted"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
            "metrics": metrics}


def run_one(binary, out, workload, args):
    cmd = [binary, "--workload", workload, "--seed", args.seed,
           "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--seconds", str(args.seconds), "--spans-out",
                os.path.join(spans, "%s-%s.csv" % (workload, args.seed))]
        code, lines = run_process(cmd)
        print("\n".join(lines))
        return code
    # End-to-end runs split the budget over several processes: this
    # host's speed differs from one process to the next by up to 30 %,
    # which one process cannot average out.
    cmd += ["--seconds", str(args.seconds / PROCESSES)]
    results = []
    for _ in range(PROCESSES):
        code, lines = run_process(cmd)
        print("\n".join(lines[:-1]))
        if code != 0 or not lines:
            if lines:
                print(lines[-1])
            return code or 1
        detail = [json.loads(l)["host_detail"] for l in lines
                  if l.startswith('{"host_detail"')]
        results.append((json.loads(lines[-1]), detail[0]))
    result = pooled(results)
    if result is None:
        return 1
    print("%s pooled over %d processes:" % (workload, PROCESSES))
    for k, v in result["metrics"].items():
        print("  %-34s %22.6f %s" % (k, v["value"], v["unit"]))
    print("  %-34s %22.6f ratio" % (
        "failed_ops_frac", result["failed"] / result["attempted"]))
    print(json.dumps(result))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", default="default")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    if args.workload != "all":
        sys.stdout.flush()
        return run_one(binary, out, args.workload, args)
    failed = []
    for w in WORKLOADS:
        print("=== %s" % w)
        sys.stdout.flush()
        if run_one(binary, out, w, args) != 0:
            failed.append(w)
    if failed:
        print("perfbench: failed: %s" % ", ".join(failed),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
