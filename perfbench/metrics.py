"""Metric definitions and trace analysis for the end-to-end benchmark.

END_TO_END and PER_LAYER name every metric the benchmark prints, with its
unit; BENCHMARK.json lists the same names (selftest.py checks they agree).
`trace_metrics` derives the per-layer figures that come from the Chrome
trace of a traced run: the program's own step / drain_wait /
straggler_delay / send / recv / decision spans plus the benchmark's spans
around each call it makes into a layer.
"""

import statistics
from collections import defaultdict

# (name, unit) of every end-to-end metric, printed by an untraced run.
END_TO_END = [
    ("setup_s", "s"),
    ("job_wall_s", "s"),
    ("samples_per_s", "samples/s"),
    ("final_acc", "fraction"),
    ("peak_rss_mb", "MB"),
]

# Modules under src/ the benchmark measures.  compress, scenario and common
# are left out on purpose (see README.md).
LAYERS = ["tensor", "nn", "data", "ps", "net", "sim", "core", "control", "elastic"]

# (name, unit) of every per-layer metric, printed by a traced run.  A layer
# the workload does not exercise reports 0.
PER_LAYER = [
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("nn.grad_ms", "ms"),
    ("nn.grad_ms_contended", "ms"),
    ("nn.eval_ms", "ms"),
    ("data.gather_us", "us"),
    ("data.synth_s", "s"),
    ("ps.pull_us", "us"),
    ("ps.push_us", "us"),
    ("ps.pull_us_contended", "us"),
    ("ps.push_us_contended", "us"),
    ("ps.step_ms_p50", "ms"),
    ("ps.step_ms_p99", "ms"),
    ("ps.bsp_idle_share", "fraction"),
    ("ps.drain_wait_ms", "ms"),
    ("ps.straggler_delay_s", "s"),
    ("ps.bsp_updates_per_s", "updates/s"),
    ("ps.asp_updates_per_s", "updates/s"),
    ("ps.updates", "count"),
    ("ps.push_bytes_per_update", "B"),
    ("ps.scaling_eff", "fraction"),
    ("ps.staleness_mean", "updates"),
    ("net.pull_rtt_us_p50", "us"),
    ("net.pull_rtt_us_p99", "us"),
    ("net.push_rtt_us_p50", "us"),
    ("net.push_rtt_us_p99", "us"),
    ("net.send_mb_per_s", "MB/s"),
    ("net.bytes_per_step", "B"),
    ("net.frames_per_step", "count"),
    ("net.frame_encode_us", "us"),
    ("net.frame_decode_us", "us"),
    ("net.share_of_step", "fraction"),
    ("sim.ss_acc", "fraction"),
    ("sim.run_s_p50", "s"),
    ("sim.run_s_max", "s"),
    ("sim.tasks", "count"),
    ("sim.us_per_task.small", "us"),
    ("sim.us_per_task.large", "us"),
    ("sim.engine_share.small", "fraction"),
    ("sim.engine_share.large", "fraction"),
    ("sim.speedup_vs_bsp", "x"),
    ("core.sweep_util", "fraction"),
    ("core.sweep_contention", "x"),
    ("control.decide_ms_p50", "ms"),
    ("control.decide_ms_p90", "ms"),
    ("control.decisions", "count"),
    ("control.enacted", "count"),
    ("control.twin_hit_frac", "fraction"),
    ("control.evict_step", "step"),
    ("control.decide_share", "fraction"),
    ("elastic.recovery_ms", "ms"),
    ("elastic.updates_lost", "count"),
    ("obs.trace_overhead", "x"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS]

# Layer of each span the program itself emits.
PROGRAM_SPAN_LAYER = {
    "step": "ps",
    "drain_wait": "ps",
    "straggler_delay": "ps",
    "snapshot": "ps",
    "recovery": "elastic",
    "decision": "control",
}


def span_layer(ev):
    """Layer a complete span belongs to, or None for blocking-call spans."""
    args = ev.get("args") or {}
    if "layer" in args:
        return None if args.get("kind") == "blocking" else args["layer"]
    name = ev["name"]
    if name.startswith("send ") or name.startswith("recv "):
        return "net"
    return PROGRAM_SPAN_LAYER.get(name)


def self_times(spans):
    """Seconds of self time per layer: each span's duration minus the part
    of it that spans nested inside it on the same track cover."""
    by_track = defaultdict(list)
    for ev in spans:
        layer = span_layer(ev)
        if layer is not None:
            by_track[ev["tid"]].append((ev["ts"], ev["ts"] + ev["dur"], layer))
    totals = defaultdict(float)
    for items in by_track.values():
        items.sort(key=lambda s: (s[0], -s[1]))
        for i, (start, end, layer) in enumerate(items):
            covered, reach = 0.0, start
            for c_start, c_end, _ in items[i + 1:]:
                if c_start >= end:
                    break
                if c_end > end:
                    continue  # overlaps the edge: not a child
                lo = max(c_start, reach)
                if c_end > lo:
                    covered += c_end - lo
                    reach = c_end
            totals[layer] += (end - start - covered) / 1e6
    return totals


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1]); 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * (len(values) - 1) + 0.5))]


def bsp_idle_share(spans, instants):
    """1 - step time / (workers x wall) over the run's BSP phases, with phase
    windows taken from the runtime's phase_start markers."""
    starts = sorted((ev["ts"], (ev.get("args") or {}).get("protocol"))
                    for ev in instants if ev["name"] == "phase_start")
    steps = [ev for ev in spans if ev["name"] == "step"]
    if not starts or not steps:
        return 0.0
    run_end = max(ev["ts"] + ev["dur"] for ev in steps)
    busy = capacity = 0.0
    for k, (t0, proto) in enumerate(starts):
        t1 = starts[k + 1][0] if k + 1 < len(starts) else run_end
        if proto != "BSP" or t1 <= t0:
            continue
        inside = [ev for ev in steps if t0 <= ev["ts"] < t1]
        busy += sum(ev["dur"] for ev in inside)
        capacity += len({ev["tid"] for ev in inside}) * (t1 - t0)
    return 1.0 - busy / capacity if capacity > 0 else 0.0


def wire_rtts(spans):
    """Worker-side round trips in microseconds: 'send Pull' start to the end
    of the matching 'recv PullReply' on the same track, likewise for
    PushDense -> PushReply.  Server session threads share the worker's track
    but send and receive the other message types."""
    pairs = {"send Pull": "recv PullReply", "send PushDense": "recv PushReply"}
    rtt = {"send Pull": [], "send PushDense": []}
    by_track = defaultdict(list)
    for ev in spans:
        if ev["name"] in pairs or ev["name"] in pairs.values():
            by_track[ev["tid"]].append(ev)
    for items in by_track.values():
        items.sort(key=lambda e: e["ts"])
        pending = {}
        for ev in items:
            if ev["name"] in pairs:
                pending[pairs[ev["name"]]] = (ev["name"], ev["ts"])
            elif ev["name"] in pending:
                req, t0 = pending.pop(ev["name"])
                rtt[req].append(ev["ts"] + ev["dur"] - t0)
    return rtt["send Pull"], rtt["send PushDense"]


def trace_metrics(events, layer_raw, job_wall_s):
    """Per-layer figures derived from the trace and the obs counters."""
    spans = [ev for ev in events if ev.get("ph") == "X"]
    instants = [ev for ev in events if ev.get("ph") == "i"]
    steps_ms = [ev["dur"] / 1e3 for ev in spans if ev["name"] == "step"]
    out = {
        "ps.step_ms_p50": percentile(steps_ms, 0.5),
        "ps.step_ms_p99": percentile(steps_ms, 0.99),
        "ps.drain_wait_ms": sum(ev["dur"] for ev in spans if ev["name"] == "drain_wait") / 1e3,
        "ps.straggler_delay_s":
            sum(ev["dur"] for ev in spans if ev["name"] == "straggler_delay") / 1e6,
        "ps.bsp_idle_share": bsp_idle_share(spans, instants),
    }
    pull, push = wire_rtts(spans)
    if pull or push:
        out["net.pull_rtt_us_p50"] = percentile(pull, 0.5)
        out["net.pull_rtt_us_p99"] = percentile(pull, 0.99)
        out["net.push_rtt_us_p50"] = percentile(push, 0.5)
        out["net.push_rtt_us_p99"] = percentile(push, 0.99)
        step_us = sum(ms * 1e3 for ms in steps_ms)
        out["net.share_of_step"] = (sum(pull) + sum(push)) / step_us if step_us else 0.0
        steps = max(1.0, layer_raw.get("ps.updates", 0.0))
        sent = layer_raw.get("ss_net_bytes_sent_total", 0.0)
        out["net.send_mb_per_s"] = sent / job_wall_s / 1e6
        out["net.bytes_per_step"] = sent / steps
        out["net.frames_per_step"] = layer_raw.get("ss_net_frames_sent_total", 0.0) / steps
    for layer, seconds in self_times(spans).items():
        out[f"{layer}.self_s"] = seconds
    return out


def median(values):
    return statistics.median(values) if values else 0.0
