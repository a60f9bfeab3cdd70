#!/usr/bin/env python3
"""Convert an smn_lab --trace=FILE step-trace JSON into a chrome://tracing
(Perfetto-loadable) Trace Event file.

Usage:
  trace_to_chrome.py <trace.json> <out.trace.json>

The engine records wall-clock *durations* per phase, not absolute
timestamps, so the timeline is synthetic: each step's four phases (walk,
index, components, exchange) are laid end to end as complete ("X") events,
which preserves every duration and proportion while keeping the trace
self-contained. Counter ("C") tracks carry the per-step telemetry series:
informed agents, components, occupied/scanned nodes, pairs tested — so
the counter panels line up under the phase spans.

Every phase and counter field is read by name, so a step record that lacks
one (a field renamed or dropped on the engine side) stops the conversion
with a KeyError instead of plotting a flat zero track.
"""
import json
import sys

PHASES = ["walk_s", "index_s", "components_s", "exchange_s"]

COUNTER_TRACKS = {
    "progress": ["informed", "components"],
    "scan nodes": ["units", "rescanned"],
    "pairs": ["pairs_tested", "pairs_survived"],
    "moves": ["index_moves"],
    "dsu": ["dsu_unites", "dsu_fast_hits"],
    "walk decode": ["blocks_decoded", "blocks_scalar"],
}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    with open(sys.argv[1]) as fh:
        trace = json.load(fh)
    if trace.get("record") != "step_trace":
        sys.exit("trace_to_chrome: input is not a step_trace document")

    events = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "smn step trace"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "step phases"}},
    ]
    ts = 0.0  # microseconds, synthetic end-to-end timeline
    for rec in trace.get("steps", []):
        step = rec["step"]
        step_begin = ts
        for phase in PHASES:
            dur = rec[phase] * 1e6
            events.append({
                "name": phase[:-2], "cat": "phase", "ph": "X",
                "pid": 1, "tid": 1, "ts": ts, "dur": dur,
                "args": {"step": step},
            })
            ts += dur
        if ts == step_begin:
            ts += 1.0  # untimed steps still advance so C events stay ordered
        events.append({
            "name": "step", "cat": "step", "ph": "X",
            "pid": 1, "tid": 1, "ts": step_begin, "dur": ts - step_begin,
            "args": {"step": step},
        })
        for track, fields in COUNTER_TRACKS.items():
            events.append({
                "name": track, "ph": "C", "pid": 1, "ts": ts,
                "args": {f: rec[f] for f in fields},
            })

    out = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": sys.argv[1],
            "capacity": trace.get("capacity"),
            "dropped": trace.get("dropped"),
        },
    }
    with open(sys.argv[2], "w") as fh:
        json.dump(out, fh)
        fh.write("\n")
    print(f"trace_to_chrome: wrote {sys.argv[2]} "
          f"({len(trace.get('steps', []))} step(s), {len(events)} event(s))")


if __name__ == "__main__":
    main()
