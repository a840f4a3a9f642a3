#!/usr/bin/env python3
"""End-to-end benchmark of the Sync-Switch library.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus the ss_perfbench binary) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in its own process and prints, as the last line of stdout, one JSON
object with the keys correct / attempted / failed / metrics.  --trace 0
reports the end-to-end metrics of untraced jobs repeated for S seconds;
--trace 1 reports the per-layer metrics of a traced run and writes its
Chrome trace under the build directory.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("switch-threaded", "wire-wide", "sim-sweep", "controller-evict")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not (ROOT / "src").is_dir():
        fail(f"program sources not found: {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(out), "-j", jobs]]
    if not (out / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "ss_perfbench"


def host_cpu_times():
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def run_binary(binary, args, trace_file):
    run_dir = build_dir() / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    # Unix socket paths are short-limited: pass the run directory relative to
    # the checkout root, which is the binary's working directory.
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--run-dir", os.path.relpath(run_dir, ROOT)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--traced", "--trace-out", str(trace_file)]
    before = host_cpu_times()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    after = host_cpu_times()
    if before and after and after[1] > before[1]:
        # CPU time the hypervisor gave to other guests: a noisy host shows here.
        steal = 100.0 * (after[0] - before[0]) / (after[1] - before[1])
        print(f"perfbench: host steal {steal:.1f}% of CPU time during the run", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"ss_perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def report_failures(raw):
    for i, rep in enumerate(raw["reps"]):
        for what in rep["failures"]:
            print(f"perfbench: job {i} failed check: {what}", file=sys.stderr)


def end_to_end(raw):
    """Medians over the untraced jobs.  The first job of the process warms
    caches and the allocator; it is checked but left out of the timings."""
    reps = raw["reps"]
    timed = reps[1:] if len(reps) > 1 else reps
    values = {
        "setup_s": metrics.median([r["setup_s"] for r in timed]),
        "job_wall_s": metrics.median([r["job_wall_s"] for r in timed]),
        "samples_per_s": metrics.median([r["samples"] / r["job_wall_s"] for r in timed]),
        "final_acc": metrics.median([r["final_acc"] for r in reps]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    print(f"perfbench: {len(reps)} jobs, {len(timed)} timed", file=sys.stderr)
    return values, []


def per_layer(raw, workload, trace_file):
    layer = dict(raw.get("layer", {}))
    traced = raw.get("traced_rep")
    problems = list(raw.get("trace_failures", []))
    if traced is None:
        return {}, problems + ["no traced job"]
    check = [sys.executable, str(ROOT / "tools" / "check_trace.py"), str(trace_file)]
    if subprocess.run(check, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return {}, problems + ["tools/check_trace.py rejected the trace"]
    events = json.loads(Path(trace_file).read_text())
    layer.update(metrics.trace_metrics(events, layer, traced["job_wall_s"]))
    if traced["staleness"] >= 0:
        layer["ps.staleness_mean"] = traced["staleness"]
    if traced["speedup"] >= 0:
        layer["sim.speedup_vs_bsp"] = traced["speedup"]
    if workload == "switch-threaded" and layer.get("ps.straggler_delay_s", 0.0) <= 0:
        problems.append("no straggler delay recorded: the transient episode missed the run")
    print(f"perfbench: trace {trace_file}", file=sys.stderr)
    return layer, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: structural checks only, a few seconds per run")
    parser.add_argument("--trace-file", help="where the traced run writes its Chrome trace")
    args = parser.parse_args()

    binary = build()
    trace_file = Path(args.trace_file or
                      build_dir() / "traces" / f"{args.workload}-s{args.seed}.json").resolve()
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    raw = run_binary(binary, args, trace_file)
    report_failures(raw)

    reps = list(raw["reps"])
    if args.trace:
        values, problems = per_layer(raw, args.workload, trace_file)
        if "traced_rep" in raw:
            reps.append(raw["traced_rep"])
        names = metrics.PER_LAYER
    else:
        values, problems = end_to_end(raw)
        names = metrics.END_TO_END
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    failed = sum(1 for r in reps if r["failures"])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in names},
    }
    print(f"perfbench: workload {args.workload} seed {args.seed}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
