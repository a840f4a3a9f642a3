#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Runs every workload at a tiny size, untraced and traced, through run.py and
checks that:
  * the last stdout line is the result object (correct / attempted / failed
    / metrics) and every job passed its output checks;
  * the metric names and units are exactly those of metrics.py, and
    BENCHMARK.json lists the same names and units;
  * each traced run's Chrome trace passes tools/check_trace.py with the
    spans that workload must produce;
  * layers a workload does not exercise report 0 (net.* off the wire,
    control.* off the controller workload).

Usage (from the root of a checkout):  python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import metrics
import run

# Span names each workload's trace must contain.
EXPECTED_SPANS = {
    "switch-threaded": ["step", "drain_wait", "straggler_delay", "ps.threaded_train",
                        "nn.gradient_at", "tensor.matmul", "data.make_synthetic"],
    "wire-wide": ["step", "send Pull", "recv PullReply", "send PushDense", "recv PushReply",
                  "net.run_ps_server", "net.run_worker_process", "net.encode_frame"],
    "sim-sweep": ["core.SweepRunner::run", "sim.TrainingSession::run", "nn.gradient_at"],
    "controller-evict": ["step", "decision", "recovery", "ps.threaded_train"],
}


def check_benchmark_json(errors):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != names:
            errors.append(f"BENCHMARK.json {key} does not match metrics.py")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads do not match run.py")


def run_once(workload, trace, trace_file):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
           "--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(workload, trace, lines, errors):
    label = f"{workload} trace={trace}"
    if not lines:
        errors.append(f"{label}: no output")
        return None
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
        return None
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    want = metrics.PER_LAYER if trace else metrics.END_TO_END
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != want:
        errors.append(f"{label}: metric names/units differ from metrics.py")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{label}: {name} is not a finite number")
    if not trace:
        zeros = [name for name, m in result["metrics"].items() if m["value"] == 0]
        if zeros:
            errors.append(f"{label}: end-to-end metrics read 0: {zeros}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    errors = []
    check_benchmark_json(errors)
    out_dir = run.build_dir() / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            trace_file = out_dir / f"{workload}.json"
            code, lines = run_once(workload, trace, trace_file)
            if code != 0:
                errors.append(f"{workload} trace={trace}: run.py exited {code}")
                continue
            values = check_result(workload, trace, lines, errors)
            if not trace or values is None:
                continue
            check = [sys.executable, str(run.ROOT / "tools" / "check_trace.py"), str(trace_file),
                     "--min-events", "10"]
            for name in EXPECTED_SPANS[workload]:
                check += ["--expect", name]
            if subprocess.run(check).returncode != 0:
                errors.append(f"{workload}: check_trace.py rejected the trace")
            for prefix, owner in (("net.", "wire-wide"), ("control.", "controller-evict")):
                live = [n for n, v in values.items()
                        if n.startswith(prefix) and not n.endswith(".self_s") and v != 0]
                if (workload == owner) != bool(live):
                    errors.append(f"{workload}: {prefix}* figures {'missing' if workload == owner else 'present'}")
            print(f"selftest: {workload} ok", file=sys.stderr)
    for e in errors:
        print(f"selftest: FAIL {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "OK"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
