#!/usr/bin/env python3
"""Convert an smn_lab step_throughput JSONL sweep into a BENCH_*.json record
and (optionally) gate it against a checked-in baseline.

Usage:
  perf_gate.py <fresh.jsonl> <out.json> [--baseline BENCH_PR4.json]
               [--min-ratio 0.7]
  perf_gate.py check-overhead <plain.jsonl> <journaled.jsonl>
               [--budget-pct 2.0] [--merge-into BENCH_PR9.json]

The fresh JSONL must have been produced with --timings. Each parameter
point becomes one entry keyed by its canonical parameter string. With
--baseline, every baseline point must be present in the fresh run at
>= min-ratio of the baseline's after_steps_per_s, else exit 1 — the
">30% regression fails CI" contract (0.7 default leaves headroom for
runner-to-runner machine variance; override with --min-ratio or the
PERF_GATE_MIN_RATIO environment variable).

check-overhead compares two timing runs of the same sweep — one plain,
one with --journal — and fails if journaling costs more than budget-pct
of sweep wall-clock on any point. Both files should hold several repeats
of each point; the minimum wall per point is compared, which filters
scheduler noise the way best-of-N benchmarking does (override the budget
with --budget-pct or PERF_OVERHEAD_BUDGET_PCT).
"""
import argparse
import json
import os
import sys


def canonical_key(params):
    return ";".join(f"{k}={v}" for k, v in sorted(params.items()))


def derived_rates(counters):
    """Telemetry ratios worth eyeballing next to steps/s: how the pair scan,
    the DSU and the walk behaved on this point."""
    rates = {}
    def ratio(name, num, den):
        if den > 0:
            rates[name] = round(num / den, 4)
    ratio("pair_survivor_rate", counters.get("scan.pairs_survived", 0),
          counters.get("scan.pairs_tested", 0))
    ratio("dsu_fast_hit_rate", counters.get("dsu.fast_path_hits", 0),
          counters.get("dsu.fast_path_hits", 0) + counters.get("dsu.unites", 0))
    ratio("relink_fraction", counters.get("index.relinks", 0),
          counters.get("index.moves", 0))
    return rates


def min_walls(jsonl_path):
    """Minimum sweep wall-clock per parameter key across repeated records.
    sweep_wall_s covers the whole pooled pass — journal appends included —
    which is exactly the cost the overhead gate must see."""
    walls = {}
    with open(jsonl_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "record" in rec:
                continue
            timing = rec.get("timing")
            if timing is None:
                sys.exit("perf_gate: record without timing — rerun smn_lab with --timings")
            wall = timing.get("sweep_wall_s", timing["wall_s"])
            key = canonical_key(rec["params"])
            walls[key] = min(walls.get(key, wall), wall)
    if not walls:
        sys.exit("perf_gate: no records in " + jsonl_path)
    return walls


def check_overhead(argv):
    ap = argparse.ArgumentParser(prog="perf_gate.py check-overhead")
    ap.add_argument("plain_jsonl")
    ap.add_argument("journaled_jsonl")
    ap.add_argument("--budget-pct", type=float,
                    default=float(os.environ.get("PERF_OVERHEAD_BUDGET_PCT", "2.0")))
    ap.add_argument("--merge-into", metavar="BENCH_JSON",
                    help="record the measurement under 'journal_overhead' in "
                         "an existing BENCH json")
    args = ap.parse_args(argv)

    plain = min_walls(args.plain_jsonl)
    journaled = min_walls(args.journaled_jsonl)
    points = []
    failures = []
    for key, base_wall in sorted(plain.items()):
        if key not in journaled:
            failures.append(f"point missing from journaled run: {key}")
            continue
        overhead_pct = (journaled[key] - base_wall) / base_wall * 100.0
        status = "OK" if overhead_pct <= args.budget_pct else "OVER BUDGET"
        print(f"[perf-gate] journal overhead {key}: plain {base_wall:.4f}s, "
              f"journaled {journaled[key]:.4f}s → {overhead_pct:+.2f}% "
              f"(budget {args.budget_pct:.1f}%) {status}")
        points.append({
            "key": key,
            "plain_wall_s": base_wall,
            "journaled_wall_s": journaled[key],
            "overhead_pct": round(overhead_pct, 3),
        })
        if overhead_pct > args.budget_pct:
            failures.append(
                f"{key}: journaling costs {overhead_pct:.2f}% of sweep wall, "
                f"budget is {args.budget_pct:.1f}%")

    if args.merge_into:
        with open(args.merge_into) as fh:
            bench = json.load(fh)
        bench["journal_overhead"] = {
            "budget_pct": args.budget_pct,
            "points": points,
        }
        with open(args.merge_into, "w") as fh:
            json.dump(bench, fh, indent=2)
            fh.write("\n")
        print(f"[perf-gate] merged journal_overhead into {args.merge_into}")

    if failures:
        print("perf_gate: FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        sys.exit(1)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "check-overhead":
        check_overhead(sys.argv[2:])
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh_jsonl")
    ap.add_argument("out_json")
    ap.add_argument("--baseline")
    ap.add_argument("--min-ratio", type=float,
                    default=float(os.environ.get("PERF_GATE_MIN_RATIO", "0.7")))
    args = ap.parse_args()

    points = []
    provenance = None
    with open(args.fresh_jsonl) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "record" in rec:
                # Run-level records (provenance, counters_total) — not
                # parameter points; keep provenance in the BENCH json.
                if rec["record"] == "provenance":
                    provenance = {k: rec[k] for k in
                                  ("git_sha", "build_type", "simd", "obs_enabled")
                                  if k in rec}
                continue
            timing = rec.get("timing")
            if timing is None:
                sys.exit("perf_gate: record without timing — rerun smn_lab with --timings")
            point = {
                "key": canonical_key(rec["params"]),
                "scenario": rec["scenario"],
                "steps_per_s": timing["steps_per_s"],
                "wall_s": timing["wall_s"],
            }
            # sweep_wall_s (records written since the pipelined runner) is
            # the end-to-end wall clock of the whole pooled pass the point
            # belonged to; wall_s sums per-replication cost. Their ratio is
            # the sweep's effective replication-level parallelism.
            sweep_wall = timing.get("sweep_wall_s")
            if sweep_wall is not None:
                point["sweep_wall_s"] = sweep_wall
                if sweep_wall > 0:
                    point["parallel_speedup"] = round(timing["wall_s"] / sweep_wall, 3)
                print(f"[perf-gate] {point['key']}: wall {timing['wall_s']:.3f}s, "
                      f"sweep wall {sweep_wall:.3f}s"
                      + (f", parallel speedup {point['parallel_speedup']:.2f}x"
                         if sweep_wall > 0 else ""))
            phases = timing.get("phases")
            if phases:
                point["phases"] = phases
                fracs = ", ".join(
                    f"{name[:-5]} {phases[name]:.0%}"
                    for name in sorted(phases) if name.endswith("_frac"))
                print(f"[perf-gate] {point['key']}: phase split: {fracs}")
            counters = rec.get("counters")
            if counters:
                rates = derived_rates(counters)
                if rates:
                    point["rates"] = rates
                    print(f"[perf-gate] {point['key']}: "
                          + ", ".join(f"{name} {value:.2%}"
                                      for name, value in sorted(rates.items())))
            points.append(point)
    if not points:
        sys.exit("perf_gate: no records in " + args.fresh_jsonl)

    by_key = {p["key"]: p for p in points}
    failures = []
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        for base in baseline["points"]:
            key = base["key"]
            target = base.get("after_steps_per_s", base.get("steps_per_s"))
            fresh = by_key.get(key)
            if fresh is None:
                failures.append(f"baseline point missing from fresh run: {key}")
                continue
            ratio = fresh["steps_per_s"] / target
            fresh["baseline_steps_per_s"] = target
            fresh["ratio_vs_baseline"] = ratio
            status = "OK" if ratio >= args.min_ratio else "REGRESSION"
            print(f"[perf-gate] {key}: {fresh['steps_per_s']:.0f} steps/s "
                  f"vs baseline {target:.0f} (ratio {ratio:.2f}) {status}")
            if ratio < args.min_ratio:
                failures.append(
                    f"{key}: {fresh['steps_per_s']:.0f} steps/s is below "
                    f"{args.min_ratio:.0%} of baseline {target:.0f}")

    out = {
        "schema": 1,
        "scenario": "step_throughput",
        "generated_by": "scripts/perf_baseline.sh",
        "points": points,
    }
    if provenance:
        out["provenance"] = provenance
    with open(args.out_json, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"[perf-gate] wrote {args.out_json} ({len(points)} point(s))")

    if failures:
        print("perf_gate: FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
