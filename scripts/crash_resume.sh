#!/usr/bin/env bash
# crash_resume.sh — end-to-end crash-safety check for journaled sweeps
# (docs/robustness.md). Legs 1-3 each assert that the merged output is
# byte-identical to an uninterrupted reference run; leg 4 bounds what the
# journal costs:
#
#   1. SIGKILL: a journaled sweep is killed with -9 mid-flight, then
#      finished with --resume. The journal's torn final line (if the kill
#      landed inside an append) must be tolerated.
#   2. Transient faults: SMN_FAILPOINTS injects a 50% per-unit failure
#      rate; --retries drives every unit to completion anyway.
#   3. Failure reporting: a unit that fails on every attempt must leave a
#      failed_units record and exit 3 while the healthy units complete.
#   4. Journaling overhead: the best of 7 sweep wall-clocks with --journal
#      must stay within 2% of the best of 7 without.
#
# Usage: scripts/crash_resume.sh [build-dir] [work-dir]
set -euo pipefail

build_dir="${1:-build}"
work_dir="${2:-$(mktemp -d)}"
mkdir -p "${work_dir}"

lab="${build_dir}/smn_lab"
if [ ! -x "${lab}" ]; then
    echo "crash_resume: ${lab} not found (build first)" >&2
    exit 1
fi

# Heavy enough that a kill 0.5s in lands mid-sweep on a fast machine,
# small enough to finish in a few seconds: 16 reps of a 400x400 grid with
# 64 agents. Timings stay off — wall-clock fields would break byte
# comparison by design.
common=(--scenario=grid_broadcast --sweep="side=400;k=64" --reps=16
        --seed=7 --no-progress)

echo "[crash_resume] reference run"
"${lab}" "${common[@]}" --out="${work_dir}/reference.jsonl"
total_units=16

# ---------------------------------------------------------------- leg 1
echo "[crash_resume] leg 1: SIGKILL mid-sweep, then --resume"
partial=0
for attempt in 1 2 3 4 5; do
    rm -f "${work_dir}/kill.jsonl" "${work_dir}/kill.jsonl.journal"
    "${lab}" "${common[@]}" --journal --out="${work_dir}/kill.jsonl" &
    pid=$!
    sleep 0.5
    if kill -9 "${pid}" 2>/dev/null; then
        set +e; wait "${pid}"; status=$?; set -e
        [ "${status}" -eq 137 ] || { echo "expected exit 137 after SIGKILL, got ${status}" >&2; exit 1; }
    else
        set +e; wait "${pid}"; set -e  # finished before the kill landed
    fi
    done_units="$(grep -c '^unit ' "${work_dir}/kill.jsonl.journal" || true)"
    if [ "${done_units}" -gt 0 ] && [ "${done_units}" -lt "${total_units}" ]; then
        partial=1
        echo "  killed with ${done_units}/${total_units} units journaled (attempt ${attempt})"
        break
    fi
    echo "  attempt ${attempt}: kill landed outside the sweep (${done_units}/${total_units} units), retrying"
done
if [ "${partial}" -ne 1 ]; then
    echo "  WARNING: never caught the sweep mid-flight; resume still checked against a complete journal"
fi
"${lab}" "${common[@]}" --resume="${work_dir}/kill.jsonl.journal" \
    --out="${work_dir}/resumed.jsonl"
cmp "${work_dir}/reference.jsonl" "${work_dir}/resumed.jsonl" || {
    echo "crash_resume: resumed output differs from the uninterrupted run" >&2
    exit 1
}
echo "  resume output byte-identical"

# ---------------------------------------------------------------- leg 2
echo "[crash_resume] leg 2: injected transient faults + --retries"
SMN_FAILPOINTS="unit_body=0.5@42" \
    "${lab}" "${common[@]}" --retries=5 --out="${work_dir}/flaky.jsonl"
cmp "${work_dir}/reference.jsonl" "${work_dir}/flaky.jsonl" || {
    echo "crash_resume: retried output differs from the fault-free run" >&2
    exit 1
}
echo "  retried output byte-identical"

# ---------------------------------------------------------------- leg 3
echo "[crash_resume] leg 3: permanent failures are reported, not fatal"
set +e
SMN_FAILPOINTS="unit_body=0.3@9" \
    "${lab}" "${common[@]}" --out="${work_dir}/failed.jsonl" 2> "${work_dir}/failed.err"
status=$?
set -e
[ "${status}" -eq 3 ] || {
    echo "crash_resume: expected exit 3 with permanently failing units, got ${status}" >&2
    cat "${work_dir}/failed.err" >&2
    exit 1
}
grep -q '"record":"failed_units"' "${work_dir}/failed.jsonl" || {
    echo "crash_resume: no failed_units record in the output" >&2
    exit 1
}
# The healthy units still aggregated into a point record.
grep -q '"scenario":"grid_broadcast"' "${work_dir}/failed.jsonl" || {
    echo "crash_resume: point record missing from the failing run" >&2
    exit 1
}
echo "  failures reported (exit 3), healthy units completed"

# ---------------------------------------------------------------- leg 4
# The journal appends one line per completed replication. 96 sequential reps
# make 0.5-1 s sweeps, and the two sides alternate seven times. Scheduler
# noise between whole runs is far larger than the append cost, so only the
# minimum of enough long draws approaches the true floor (0.25 s sweeps
# showed ±3% jitter in the minimum itself, more than the budget).
echo "[crash_resume] leg 4: journaling overhead (best of 7, 2% budget)"
overhead=(--scenario=step_throughput --sweep="side=128;k=1024;radius=rc;steps=400;mobility=all"
          --reps=96 --threads=1 --timings --no-progress --out="${work_dir}/overhead.jsonl")
: > "${work_dir}/plain.jsonl"
: > "${work_dir}/journaled.jsonl"
for _ in 1 2 3 4 5 6 7; do
    "${lab}" "${overhead[@]}"
    cat "${work_dir}/overhead.jsonl" >> "${work_dir}/plain.jsonl"
    "${lab}" "${overhead[@]}" --journal
    cat "${work_dir}/overhead.jsonl" >> "${work_dir}/journaled.jsonl"
done
python3 - "${work_dir}/plain.jsonl" "${work_dir}/journaled.jsonl" <<'PY'
import json, sys
def best(path):
    return min(json.loads(line)["timing"]["sweep_wall_s"]
               for line in open(path) if '"timing"' in line)
plain, journaled = best(sys.argv[1]), best(sys.argv[2])
overhead = (journaled - plain) / plain * 100
print(f"  best sweep wall: plain {plain:.4f} s, journaled {journaled:.4f} s, "
      f"{overhead:+.2f}% (budget 2%)")
sys.exit(f"crash_resume: journaling costs {overhead:.2f}% of sweep wall" if overhead > 2.0 else 0)
PY

echo "crash_resume: all legs OK"
