#!/usr/bin/env bash
# Hot-path perf baseline: run the step_throughput micro-scenario on the
# three tracked parameter points (percolation-scale radius; all-move at two
# sizes plus the Frog model), convert the timing sweep into a BENCH json
# record, and — when a checked-in baseline is given — fail on >30%
# regression (see scripts/perf_gate.py for the knobs; it also reports each
# record's sweep wall-clock next to its steps/s).
#
# Usage: scripts/perf_baseline.sh [build-dir] [out-json] [baseline-json]
set -euo pipefail

build_dir="${1:-build}"
out_json="${2:-results/BENCH_PR9.json}"
baseline_json="${3:-}"

out_dir="$(dirname "${out_json}")"
mkdir -p "${out_dir}"
jsonl="${out_dir}/step_throughput.jsonl"
: > "${jsonl}"

# --threads=1 keeps replications sequential so steps_per_s measures the
# single-threaded step loop; 3 reps amortize process noise. --counters
# feeds perf_gate.py's derived rates (pair survivor rate, DSU fast-hit
# rate, relink fraction) so each BENCH point records how the machinery engaged.
run() {
    "${build_dir}/smn_lab" --scenario=step_throughput --sweep="$1" \
        --reps=3 --threads=1 --timings --counters --out="${jsonl}.part"
    cat "${jsonl}.part" >> "${jsonl}"
    rm -f "${jsonl}.part"
}

run "side=256;k=4096;radius=rc;steps=200;mobility=all"
run "side=256;k=4096;radius=rc;steps=200;mobility=frog"
run "side=128;k=1024;radius=rc;steps=400;mobility=all"

if [ -n "${baseline_json}" ]; then
    python3 "$(dirname "$0")/perf_gate.py" "${jsonl}" "${out_json}" --baseline "${baseline_json}"
else
    python3 "$(dirname "$0")/perf_gate.py" "${jsonl}" "${out_json}"
fi

# Journaling-overhead guard (docs/robustness.md): the smallest tracked
# point, 96 sequential reps (~1s sweeps), seven interleaved runs per leg.
# The journal appends one line per completed replication; best-of-7 sweep
# wall-clock with --journal must stay within 2% of plain. The comparison
# is min-vs-min over deliberately long runs: scheduler noise between whole
# runs is far larger than the append cost, and only the minimum of enough
# ~1s draws converges on the true floor (0.25s sweeps showed ±3% jitter
# in the min itself, flakier than the 2% budget;
# PERF_OVERHEAD_BUDGET_PCT overrides the budget on noisy runners).
plain_jsonl="${out_dir}/overhead_plain.jsonl"
journaled_jsonl="${out_dir}/overhead_journaled.jsonl"
: > "${plain_jsonl}"
: > "${journaled_jsonl}"
overhead_sweep="side=128;k=1024;radius=rc;steps=400;mobility=all"
for _ in 1 2 3 4 5 6 7; do
    "${build_dir}/smn_lab" --scenario=step_throughput --sweep="${overhead_sweep}" \
        --reps=96 --threads=1 --timings --out="${jsonl}.part"
    cat "${jsonl}.part" >> "${plain_jsonl}"
    "${build_dir}/smn_lab" --scenario=step_throughput --sweep="${overhead_sweep}" \
        --reps=96 --threads=1 --timings --journal="${jsonl}.journal" --out="${jsonl}.part"
    cat "${jsonl}.part" >> "${journaled_jsonl}"
    rm -f "${jsonl}.part" "${jsonl}.journal"
done
python3 "$(dirname "$0")/perf_gate.py" check-overhead \
    "${plain_jsonl}" "${journaled_jsonl}" --merge-into "${out_json}"
